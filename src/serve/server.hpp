#pragma once

/// \file server.hpp
/// The ebct_serve daemon core: a long-lived server multiplexing concurrent
/// streaming encode/decode requests over an AF_UNIX socket.
///
/// Architecture (docs/SERVING.md has the operator-facing description):
///
///  - One accept thread; one handler thread per connection. A connection
///    carries requests back to back, so a client that keeps its connection
///    pays the accept and the thread spawn once, not per request.
///  - Codec work runs on the handler thread: each DATA frame is fed to the
///    request's StreamingEncoder/StreamingDecoder from the frame's own
///    buffer, and output frames are written from inside that call. Requests
///    run in parallel across connections; handing each window to the
///    work-stealing pool cost more in cross-thread hops than its overlap of
///    socket I/O with compute won back.
///  - Per-tenant byte budgets: each tenant owns one atomic count of
///    charged bytes; a session's resident-byte cap is charged at admission
///    (add -> check -> rollback on overflow), and a tenant over budget gets
///    a 429-style reject — backpressure, not queueing — until running
///    sessions release their charge.
///  - SIGTERM drain: stop() closes the listener, lets in-flight requests
///    complete (bounded by drain_grace_ms), wakes idle reads AND writes
///    (a peer that stopped reading cannot wedge shutdown; a connection
///    waiting for its next request leaves within one poll slice), joins
///    every handler, then releases pooled sessions. The daemon wrapper
///    (examples/ebct_serve.cpp) translates the signal into stop().
///  - Observability: every request runs under an obs::trace span
///    (cat "serve") and feeds the obs::ServeMetrics serve_* counters.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/codec_registry.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace ebct::serve {

struct ServerConfig {
  std::string socket_path;                             ///< EBCT_SERVE_SOCKET
  std::size_t window_elems = nn::kDefaultWindowElems;  ///< EBCT_SERVE_WINDOW
  std::size_t max_frame = kDefaultMaxFrame;            ///< EBCT_SERVE_MAX_FRAME
  std::size_t tenant_budget_bytes = 0;                 ///< EBCT_SERVE_TENANT_BUDGET, 0 = off
  int drain_grace_ms = 5000;                           ///< EBCT_SERVE_DRAIN_MS

  /// Overlay EBCT_SERVE_* env vars (strict parses, same contract as the
  /// framework envs: bad values throw rather than silently default).
  static ServerConfig from_env(ServerConfig base);
  static ServerConfig from_env();
};

class Server {
 public:
  /// `fw` seeds codec construction (same defaults the registry applies in
  /// TrainingSession), so a served "sz" stream matches an in-process one.
  explicit Server(ServerConfig cfg, core::FrameworkConfig fw = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + start accepting. Throws on socket errors (stale
  /// socket files are unlinked first).
  void start();

  /// Drain and shut down: stop accepting, complete in-flight requests
  /// (up to drain_grace_ms each), join all threads. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const ServerConfig& config() const { return cfg_; }

  /// Bytes currently charged to a tenant (creates it on first use) — test hook.
  std::size_t tenant_charged_bytes(const std::string& tenant);

  /// Number of connections currently open (busy or between requests).
  std::size_t active_connections() const {
    return active_conns_.load(std::memory_order_relaxed);
  }

  /// Handler threads currently tracked (live or awaiting reap) — test hook
  /// for the accept loop's reaping of finished connections.
  std::size_t tracked_connections() const {
    std::lock_guard<std::mutex> lock(conns_mu_);
    return conns_.size();
  }

 private:
  /// A handler thread plus the flag it sets just before exiting, so the
  /// accept loop can reap finished threads without blocking on live ones —
  /// a long-lived daemon must not accumulate one joinable thread (pthread
  /// stack + vector entry) per completed request until shutdown.
  struct Conn {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_loop();
  void reap_finished_locked();  ///< join+erase done conns; conns_mu_ held
  void handle_connection(int fd);
  /// Serves one request; true only after DONE, when the connection may
  /// carry the next one. `frame` is the connection's reused read buffer.
  bool handle_request(int fd, Frame& frame);
  std::atomic<std::size_t>& tenant_charge(const std::string& tenant);

  ServerConfig cfg_;
  core::FrameworkConfig fw_;
  SessionPool pool_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> active_conns_{0};
  std::thread accept_thread_;
  mutable std::mutex conns_mu_;
  std::vector<Conn> conns_;
  std::mutex tenants_mu_;
  std::map<std::string, std::atomic<std::size_t>> tenants_;  ///< charged bytes
};

}  // namespace ebct::serve
