// ebct_serve — the long-lived streaming compression daemon.
//
// Usage:
//   ebct_serve --socket=<path> [--window=<elems>] [--budget=<bytes>]
//              [--max-frame=<bytes>] [--metrics=<path.json>] [--threads=<n>]
//
// Flags override the EBCT_SERVE_* environment (docs/CONFIG.md), which
// overrides built-in defaults. The daemon multiplexes concurrent streaming
// encode/decode requests over an AF_UNIX socket (protocol in
// docs/SERVING.md), running each request's codec work on its connection's
// handler thread (--threads sizes the work-stealing pool that the SZ
// codec's block-parallel stages use) and enforcing per-tenant byte budgets
// with 429-style backpressure.
//
// Lifecycle: prints "ebct_serve ready on <socket>" once accepting (CI waits
// for this line), then blocks until SIGTERM/SIGINT. On signal it drains —
// in-flight requests complete, new connections are refused — then writes a
// serve_* metrics snapshot (--metrics / EBCT_SERVE_METRICS), verifies no
// spill files leaked, and prints "ebct_serve: clean shutdown".

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

#include "core/env.hpp"
#include "memory/spill_file.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "tensor/sched.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

void write_metrics_json(const std::string& path) {
  const obs::ServeSnapshot s = obs::ServeMetrics::instance().snapshot();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "ebct_serve: cannot write metrics to %s\n", path.c_str());
    return;
  }
  out << "{\n"
      << "  \"serve_requests\": " << s.requests << ",\n"
      << "  \"serve_rejects\": " << s.rejects << ",\n"
      << "  \"serve_errors\": " << s.errors << ",\n"
      << "  \"serve_bytes_in\": " << s.bytes_in << ",\n"
      << "  \"serve_bytes_out\": " << s.bytes_out << ",\n"
      << "  \"serve_active_sessions\": " << s.active_sessions << ",\n"
      << "  \"serve_peak_sessions\": " << s.peak_sessions << ",\n"
      << "  \"serve_latency_p50_ns\": " << s.latency_percentile_ns(0.50) << ",\n"
      << "  \"serve_latency_p99_ns\": " << s.latency_percentile_ns(0.99) << "\n"
      << "}\n";
  std::fprintf(stderr, "ebct_serve: metrics snapshot -> %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using ebct::core::parse_size;
  using ebct::serve::Server;
  using ebct::serve::ServerConfig;

  std::string metrics_path;
  if (const char* v = std::getenv("EBCT_SERVE_METRICS"); v != nullptr && *v != '\0')
    metrics_path = v;

  ServerConfig cfg;
  int threads = 0;
  try {
    cfg = ServerConfig::from_env(cfg);
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--socket=", 9) == 0) {
        cfg.socket_path = a + 9;
      } else if (std::strncmp(a, "--window=", 9) == 0) {
        cfg.window_elems = parse_size("--window", a + 9);
      } else if (std::strncmp(a, "--budget=", 9) == 0) {
        cfg.tenant_budget_bytes = parse_size("--budget", a + 9);
      } else if (std::strncmp(a, "--max-frame=", 12) == 0) {
        cfg.max_frame = parse_size("--max-frame", a + 12);
      } else if (std::strncmp(a, "--metrics=", 10) == 0) {
        metrics_path = a + 10;
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        // The scheduler caps the pool size itself; clamp only to fit an int.
        threads = static_cast<int>(std::min<std::size_t>(
            parse_size("--threads", a + 10), std::numeric_limits<int>::max()));
      } else {
        std::fprintf(stderr,
                     "usage: %s --socket=<path> [--window=<elems>] [--budget=<bytes>]\n"
                     "          [--max-frame=<bytes>] [--metrics=<path.json>] "
                     "[--threads=<n>]\n",
                     argv[0]);
        return 2;
      }
    }
    if (threads > 0) ebct::tensor::sched::set_num_threads(threads);

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    Server server(cfg);
    server.start();
    std::printf("ebct_serve ready on %s\n", cfg.socket_path.c_str());
    std::fflush(stdout);

    while (!g_stop.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::fprintf(stderr, "ebct_serve: draining (%zu active connections)\n",
                 server.active_connections());
    server.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ebct_serve: fatal: %s\n", e.what());
    return 1;
  }

  if (!metrics_path.empty()) write_metrics_json(metrics_path);

  const auto open_files = ebct::memory::SpillFile::files_open();
  if (open_files != 0) {
    std::fprintf(stderr, "ebct_serve: %llu spill files still open at shutdown\n",
                 static_cast<unsigned long long>(open_files));
    return 1;
  }
  std::printf("ebct_serve: clean shutdown\n");
  return 0;
}
