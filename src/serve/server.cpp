#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ebct::serve {

namespace {

int env_int(const char* name, int fallback) {
  const std::size_t v = core::env_size(name, static_cast<std::size_t>(fallback));
  if (v > static_cast<std::size_t>(std::numeric_limits<int>::max()))
    throw std::invalid_argument(std::string(name) + ": out of range, got " + std::to_string(v));
  return static_cast<int>(v);
}

}  // namespace

ServerConfig ServerConfig::from_env() { return from_env(ServerConfig{}); }

ServerConfig ServerConfig::from_env(ServerConfig base) {
  if (const char* v = std::getenv("EBCT_SERVE_SOCKET"); v != nullptr && *v != '\0')
    base.socket_path = v;
  base.window_elems = core::env_size("EBCT_SERVE_WINDOW", base.window_elems);
  base.max_frame = core::env_size("EBCT_SERVE_MAX_FRAME", base.max_frame);
  base.tenant_budget_bytes = core::env_size("EBCT_SERVE_TENANT_BUDGET", base.tenant_budget_bytes);
  base.drain_grace_ms = env_int("EBCT_SERVE_DRAIN_MS", base.drain_grace_ms);
  if (base.max_frame == 0)
    throw std::invalid_argument("EBCT_SERVE_MAX_FRAME must be positive");
  return base;
}

Server::Server(ServerConfig cfg, core::FrameworkConfig fw)
    : cfg_(std::move(cfg)),
      fw_(std::move(fw)),
      pool_([this](const std::string& spec) {
        return core::CodecRegistry::instance().create(spec, fw_);
      }) {
  if (cfg_.socket_path.empty())
    throw std::invalid_argument("ebct_serve: socket path must be set (EBCT_SERVE_SOCKET)");
  // AF_UNIX sun_path is ~108 bytes; fail loudly instead of binding truncated.
  if (cfg_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw std::invalid_argument("ebct_serve: socket path too long for AF_UNIX: " +
                                cfg_.socket_path);
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("ebct_serve: socket() failed: ") +
                             std::strerror(errno));
  ::unlink(cfg_.socket_path.c_str());  // stale socket from a previous run
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, cfg_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("ebct_serve: bind(" + cfg_.socket_path +
                             ") failed: " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("ebct_serve: listen() failed: ") +
                             std::strerror(err));
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // In-flight requests finish (their reads and writes poll stopping_ and
  // give up after drain_grace_ms of silence); connections waiting for their
  // next request close at the first poll slice. Join everything.
  std::vector<Conn> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns)
    if (c.thread.joinable()) c.thread.join();
  ::unlink(cfg_.socket_path.c_str());
}

std::atomic<std::size_t>& Server::tenant_charge(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  return tenants_[tenant];  // map nodes are stable; value-initialized to 0
}

std::size_t Server::tenant_charged_bytes(const std::string& tenant) {
  return tenant_charge(tenant).load(std::memory_order_relaxed);
}

void Server::reap_finished_locked() {
  // A conn whose done flag is set has left handle_connection; its join
  // completes in microseconds (the thread is between the store and pthread
  // exit at worst), so reaping under the lock is fine.
  auto it = conns_.begin();
  while (it != conns_.end()) {
    if (it->done->load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    struct pollfd pfd {};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;  // listener gone — stop() handles cleanup
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      reap_finished_locked();
    }
    if (pr == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back({std::thread([this, fd, done] {
                        handle_connection(fd);
                        done->store(true, std::memory_order_release);
                      }),
                      done});
  }
}

void Server::handle_connection(int fd) {
  active_conns_.fetch_add(1, std::memory_order_relaxed);
  Frame frame;  // one read buffer for every request on the connection
  try {
    while (handle_request(fd, frame)) {
    }
  } catch (...) {
    // handle_request reports its own errors; nothing useful left to do.
  }
  ::close(fd);
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
}

bool Server::handle_request(int fd, Frame& frame) {
  auto& metrics = obs::ServeMetrics::instance();

  // Reads AND writes poll this so a draining server abandons sockets that
  // go silent (or stop reading). A connection waiting for its next request
  // leaves at the first poll slice after stop(); a request in flight gets
  // drain_grace_ms of patience from the stop signal.
  bool in_request = false;
  std::int64_t grace_left_ms = cfg_.drain_grace_ms;
  const std::function<bool()> poll_stop = [this, &in_request, &grace_left_ms]() {
    if (!stopping_.load(std::memory_order_acquire)) return false;
    if (!in_request) return true;
    grace_left_ms -= 100;  // one poll slice burned waiting
    return grace_left_ms <= 0;
  };

  try {
    if (!read_frame(fd, frame, cfg_.max_frame, &poll_stop)) return false;  // EOF between requests
  } catch (const ServerError& e) {
    metrics.on_error();
    write_error_frame(fd, e.code(), e.message(), &poll_stop);
    return false;
  } catch (const std::exception& e) {
    if (stopping_.load(std::memory_order_acquire)) return false;  // idle through a drain
    metrics.on_error();
    write_error_frame(fd, kErrInternal, e.what(), &poll_stop);
    return false;
  }
  in_request = true;
  const std::uint64_t t0 = obs::trace::detail::now_ns();
  metrics.on_session_open();
  bool session_open = true;
  auto close_session = [&]() {
    if (session_open) metrics.on_session_close();
    session_open = false;
  };

  OpenRequest req;
  try {
    if (frame.type != FrameType::kOpen)
      throw ServerError(kErrMalformed, "expected OPEN as the first frame");
    req = parse_open(frame.payload);
  } catch (const ServerError& e) {
    metrics.on_error();
    write_error_frame(fd, e.code(), e.message(), &poll_stop);
    close_session();
    return false;
  }

  const bool encode = req.op == Op::kEncode;
  obs::trace::Span span(encode ? "serve.encode" : "serve.decode", obs::trace::Cat::kServe);

  std::unique_ptr<nn::StreamingEncoder> enc;
  std::unique_ptr<nn::StreamingDecoder> dec;
  std::atomic<std::size_t>& tenant_bytes = tenant_charge(req.tenant);
  std::size_t charged = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;

  // Output sink: frames bytes back to the client from inside feed()/finish()
  // on this thread. `sink_failed` tells a failed socket write apart from a
  // codec error thrown through the same call.
  bool sink_failed = false;
  auto sink = [this, fd, &bytes_out, &poll_stop, &sink_failed](const std::uint8_t* data,
                                                               std::size_t n) {
    try {
      while (n > 0) {
        const std::size_t take = std::min(n, cfg_.max_frame);
        write_frame(fd, FrameType::kData, data, take, &poll_stop);
        data += take;
        n -= take;
        bytes_out += take;
      }
    } catch (...) {
      sink_failed = true;
      throw;
    }
  };
  // Whatever the decoder throws while parsing or decoding the client's
  // container is the client's fault (400); a failed write stays transport.
  auto decoding = [&sink_failed](auto&& step) {
    try {
      step();
    } catch (const std::exception& e) {
      if (sink_failed) throw;
      throw ServerError(kErrMalformed, e.what());
    }
  };

  auto release = [&]() {
    if (charged > 0) {
      tenant_bytes.fetch_sub(charged, std::memory_order_relaxed);
      charged = 0;
    }
    pool_.release(std::move(enc));
    pool_.release(std::move(dec));
  };

  try {
    const std::size_t window = req.window_elems != 0 ? req.window_elems : cfg_.window_elems;
    if (encode) {
      std::shared_ptr<nn::ActivationCodec> codec;
      try {
        codec = core::CodecRegistry::instance().create(req.spec, fw_);
      } catch (const std::invalid_argument& e) {
        throw ServerError(kErrUnknownSpec, e.what());
      }
      enc = pool_.acquire_encoder(std::move(codec), req.spec, window, sink);
    } else {
      // The decoder produces floats; the client is sent their raw bytes.
      dec = pool_.acquire_decoder([sink](const float* data, std::size_t n) {
        sink(reinterpret_cast<const std::uint8_t*>(data), n * sizeof(float));
      });
    }

    // Budget admission: charge the session's resident cap, then check.
    // add-then-check keeps the race window closed against concurrent
    // admissions of the same tenant (the later add sees the sum of both).
    // A decode re-runs this once the EBCS header (in the first DATA frame)
    // has fixed window_elems, so a client-chosen large window bounces with
    // a 429 mid-stream instead of bypassing the tenant budget.
    auto charge = [&](std::size_t cap, const char* what) {
      if (cap <= charged) return;
      const std::size_t delta = cap - charged;
      const std::size_t total = tenant_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
      charged = cap;
      if (cfg_.tenant_budget_bytes != 0 && total > cfg_.tenant_budget_bytes) {
        throw ServerError(kErrOverBudget, "tenant '" + req.tenant + "' over byte budget (" +
                                              std::to_string(cfg_.tenant_budget_bytes) + ")" +
                                              what + "; retry when sessions drain");
      }
    };
    charge(encode ? enc->resident_cap_bytes() : dec->resident_cap_bytes(), "");

    {
      std::vector<std::uint8_t> ok;
      put_u32(ok, static_cast<std::uint32_t>(encode ? enc->window_elems() : 0));
      write_frame(fd, FrameType::kOpenOk, ok.data(), ok.size(), &poll_stop);
    }

    for (bool finished = false; !finished;) {
      if (!read_frame(fd, frame, cfg_.max_frame, &poll_stop))
        throw ServerError(kErrMalformed, "client disconnected mid-request");
      switch (frame.type) {
        case FrameType::kData: {
          bytes_in += frame.payload.size();
          obs::trace::Span wspan("serve.window", obs::trace::Cat::kServe);
          if (encode) {
            enc->feed_bytes(frame.payload.data(), frame.payload.size());
          } else {
            decoding([&] { dec->feed(frame.payload.data(), frame.payload.size()); });
            charge(dec->resident_cap_bytes(), " for declared window");
          }
          break;
        }
        case FrameType::kFinish:
          finished = true;
          break;
        default:
          throw ServerError(kErrMalformed, "unexpected frame type mid-request");
      }
    }
    if (encode)
      enc->finish();
    else
      decoding([&] { dec->finish(); });

    // Commit metrics, the session gauge and the budget charge BEFORE the
    // DONE frame: once the client sees DONE the request is complete, so a
    // snapshot taken then must already include it (and a follow-up request
    // by the same tenant must not bounce off a charge we are about to drop).
    metrics.on_bytes_in(bytes_in);
    metrics.on_bytes_out(bytes_out);
    metrics.on_request_done(obs::trace::detail::now_ns() - t0);
    release();
    close_session();
    std::vector<std::uint8_t> done;
    put_u64(done, bytes_in);
    put_u64(done, bytes_out);
    write_frame(fd, FrameType::kDone, done.data(), done.size(), &poll_stop);
    return true;
  } catch (const ServerError& e) {
    if (e.code() == kErrOverBudget)
      metrics.on_reject();
    else
      metrics.on_error();
    write_error_frame(fd, e.code(), e.message(), &poll_stop);
  } catch (const std::exception& e) {
    metrics.on_error();
    write_error_frame(fd, kErrInternal, e.what(), &poll_stop);
  }
  release();
  close_session();
  return false;
}

}  // namespace ebct::serve
