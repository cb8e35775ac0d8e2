// serve_load — closed-loop load bench for the ebct_serve daemon core:
// mixed codec specs, fixed client concurrency, encode+decode round trips
// against an in-process Server. Reports req/s and p50/p99 request latency
// per spec and overall to BENCH_serve_load.json (JsonReporter), the rows
// docs/BENCH_SCHEMA.md documents.
//
// --smoke: reduced request count plus hard invariant checks (every streamed
// response bitwise-identical to the one-shot reference, zero rejects/errors,
// no leaked spill files) — exits non-zero on any violation, so CI gets a
// pass/fail signal without wall-clock thresholds. EBCT_SERVE_LOAD_REQS
// overrides the per-client request count in either mode.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/codec_registry.hpp"
#include "core/env.hpp"
#include "memory/spill_file.hpp"
#include "nn/streaming.hpp"
#include "obs/metrics.hpp"
#include <unistd.h>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace ebct;

constexpr std::size_t kWindow = 16 * 1024;
constexpr std::size_t kPayloadFloats = 96 * 1024;  // ~384 KiB raw per request
constexpr int kClients = 4;

const std::vector<std::string>& specs() {
  static const std::vector<std::string> s = {"sz:eb=1e-3", "lossless", "none"};
  return s;
}

std::vector<std::uint8_t> payload_bytes(std::uint64_t seed) {
  // Relu-like mix (~35% exact zeros over a normal tail) — the activation
  // distribution the codecs are tuned for.
  std::vector<float> v(kPayloadFloats);
  tensor::Rng rng(seed);
  rng.fill_normal({v.data(), v.size()}, 0.0f, 1.0f);
  for (auto& f : v)
    if (rng.uniform_index(100) < 35) f = 0.0f;
  std::vector<std::uint8_t> b(v.size() * sizeof(float));
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

double percentile_ms(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted_ms.size() - 1, static_cast<std::size_t>(p * static_cast<double>(sorted_ms.size())));
  return sorted_ms[idx];
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  std::size_t reqs_per_client = 0;
  try {
    reqs_per_client = core::env_count("EBCT_SERVE_LOAD_REQS", smoke ? 6 : 24);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "serve_load: %s\n", e.what());
    return 2;
  }

  serve::ServerConfig cfg;
  cfg.socket_path =
      "/tmp/ebct-load-" + std::to_string(static_cast<long>(::getpid())) + ".sock";
  cfg.window_elems = kWindow;
  serve::Server server(cfg);
  obs::ServeMetrics::instance().reset();
  server.start();

  // One payload + reference container per spec, shared by all clients: the
  // bench measures the serving path, not payload generation.
  std::vector<std::vector<std::uint8_t>> raws;
  std::vector<std::vector<std::uint8_t>> refs;
  for (std::size_t s = 0; s < specs().size(); ++s) {
    raws.push_back(payload_bytes(40 + s));
    const auto* f = reinterpret_cast<const float*>(raws.back().data());
    refs.push_back(nn::streaming_encode_all(
        core::CodecRegistry::instance().create(specs()[s]), specs()[s], f,
        kPayloadFloats, kWindow));
  }

  // Closed loop: each client alternates encode/decode over the spec mix.
  // Latencies are wall-clock per round trip, collected per (spec, op).
  std::vector<std::vector<double>> enc_ms(specs().size());
  std::vector<std::vector<double>> dec_ms(specs().size());
  std::vector<std::thread> threads;
  std::atomic<int> violations{0};
  std::mutex lat_mu;
  const auto bench_t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        serve::Client client(cfg.socket_path);
        const std::string tenant = "load" + std::to_string(c);
        for (std::size_t r = 0; r < reqs_per_client; ++r) {
          const std::size_t s = (static_cast<std::size_t>(c) + r) % specs().size();
          const auto t0 = std::chrono::steady_clock::now();
          const std::vector<std::uint8_t> container =
              client.encode_bytes(tenant, specs()[s], kWindow, raws[s]);
          const auto t1 = std::chrono::steady_clock::now();
          const std::vector<std::uint8_t> decoded =
              client.decode_bytes(tenant, container);
          const auto t2 = std::chrono::steady_clock::now();
          if (container != refs[s]) violations.fetch_add(1);
          {
            std::lock_guard<std::mutex> lock(lat_mu);
            enc_ms[s].push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
            dec_ms[s].push_back(std::chrono::duration<double, std::milli>(t2 - t1).count());
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_load: client %d failed: %s\n", c, e.what());
        violations.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - bench_t0).count();
  server.stop();

  const obs::ServeSnapshot snap = obs::ServeMetrics::instance().snapshot();
  const std::uint64_t total_reqs = static_cast<std::uint64_t>(kClients) *
                                   reqs_per_client * 2;  // encode + decode

  bench::JsonReporter report("serve_load");
  std::vector<double> all_ms;
  for (std::size_t s = 0; s < specs().size(); ++s) {
    for (auto* lat : {&enc_ms[s], &dec_ms[s]}) {
      std::sort(lat->begin(), lat->end());
      all_ms.insert(all_ms.end(), lat->begin(), lat->end());
    }
    report.add(specs()[s],
               {{"encode_reqs", static_cast<double>(enc_ms[s].size())},
                {"encode_p50_ms", percentile_ms(enc_ms[s], 0.50)},
                {"encode_p99_ms", percentile_ms(enc_ms[s], 0.99)},
                {"decode_p50_ms", percentile_ms(dec_ms[s], 0.50)},
                {"decode_p99_ms", percentile_ms(dec_ms[s], 0.99)}});
    std::printf("%-28s encode p50 %.2f ms p99 %.2f ms | decode p50 %.2f ms p99 %.2f ms\n",
                specs()[s].c_str(), percentile_ms(enc_ms[s], 0.50),
                percentile_ms(enc_ms[s], 0.99), percentile_ms(dec_ms[s], 0.50),
                percentile_ms(dec_ms[s], 0.99));
  }
  std::sort(all_ms.begin(), all_ms.end());
  const double req_per_s = elapsed_s > 0 ? static_cast<double>(total_reqs) / elapsed_s : 0;
  report.add("overall", {{"concurrency", kClients},
                         {"requests", static_cast<double>(total_reqs)},
                         {"req_per_s", req_per_s},
                         {"p50_ms", percentile_ms(all_ms, 0.50)},
                         {"p99_ms", percentile_ms(all_ms, 0.99)},
                         {"serve_bytes_in", static_cast<double>(snap.bytes_in)},
                         {"serve_bytes_out", static_cast<double>(snap.bytes_out)},
                         {"serve_rejects", static_cast<double>(snap.rejects)},
                         {"serve_errors", static_cast<double>(snap.errors)},
                         {"serve_peak_sessions", static_cast<double>(snap.peak_sessions)}});
  std::printf("overall: %llu requests, %.1f req/s, p50 %.2f ms, p99 %.2f ms\n",
              static_cast<unsigned long long>(total_reqs), req_per_s,
              percentile_ms(all_ms, 0.50), percentile_ms(all_ms, 0.99));

  if (smoke) {
    int rc = 0;
    if (violations.load() != 0) {
      std::fprintf(stderr, "serve_load: %d bitwise/transport violations\n", violations.load());
      rc = 1;
    }
    if (snap.requests != total_reqs || snap.rejects != 0 || snap.errors != 0) {
      std::fprintf(stderr,
                   "serve_load: metrics mismatch (requests %llu want %llu, rejects %llu, "
                   "errors %llu)\n",
                   static_cast<unsigned long long>(snap.requests),
                   static_cast<unsigned long long>(total_reqs),
                   static_cast<unsigned long long>(snap.rejects),
                   static_cast<unsigned long long>(snap.errors));
      rc = 1;
    }
    if (memory::SpillFile::files_open() != 0) {
      std::fprintf(stderr, "serve_load: leaked spill files\n");
      rc = 1;
    }
    if (rc == 0) std::printf("serve_load: smoke OK\n");
    return rc;
  }
  return violations.load() == 0 ? 0 : 1;
}
