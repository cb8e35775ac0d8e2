#include "serve/client.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ebct::serve {

namespace {

int connect_unix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw std::invalid_argument("ebct_client: socket path too long for AF_UNIX: " + path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("ebct_client: socket() failed: ") +
                             std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("ebct_client: connect(" + path +
                             ") failed: " + std::strerror(err));
  }
  // The pump services reads and writes in one loop.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("ebct_client: fcntl failed: ") + std::strerror(err));
  }
  return fd;
}

[[noreturn]] void throw_error_frame(const std::uint8_t* payload, std::size_t len) {
  if (len < 2) throw std::runtime_error("ebct_client: malformed ERROR frame from server");
  throw ServerError(get_u16(payload),
                    std::string(reinterpret_cast<const char*>(payload) + 2, len - 2));
}

[[noreturn]] void throw_unexpected(FrameType type, const char* when) {
  throw std::runtime_error("ebct_client: unexpected frame type " +
                           std::to_string(static_cast<int>(type)) + " " + when);
}

}  // namespace

struct Client::Connection {
  explicit Connection(int socket) : fd(socket) {}
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd;
  std::vector<std::uint8_t> out;  ///< wire bytes to send; only ever grows
  std::vector<std::uint8_t> in;   ///< wire bytes received; only ever grows
};

Client::Client(std::string socket_path) : socket_path_(std::move(socket_path)) {
  if (socket_path_.empty())
    throw std::invalid_argument("ebct_client: socket path must be non-empty");
}

Client::~Client() { delete idle_.exchange(nullptr); }

Client::Client(Client&& other) noexcept
    : socket_path_(std::move(other.socket_path_)),
      idle_(other.idle_.exchange(nullptr)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    socket_path_ = std::move(other.socket_path_);
    delete idle_.exchange(other.idle_.exchange(nullptr));
  }
  return *this;
}

std::unique_ptr<Client::Connection> Client::take_connection() {
  // The exchange hands the kept connection to one request only; a second
  // thread sharing this Client finds the slot empty and connects its own.
  std::unique_ptr<Connection> conn(idle_.exchange(nullptr));
  if (conn) {
    // Between requests the server sends nothing, so a kept socket that is
    // readable (EOF after a server stop or restart) or hung up is stale.
    struct pollfd pfd {};
    pfd.fd = conn->fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 0) == 0) return conn;
    conn.reset();
  }
  return std::make_unique<Connection>(connect_unix(socket_path_));
}

void Client::keep_connection(std::unique_ptr<Connection> conn) {
  // Another thread's request may have kept one meanwhile; keep the newer.
  delete idle_.exchange(conn.release());
}

TransferStats Client::run(const OpenRequest& open, const PullReader& reader,
                          const PushWriter& writer) {
  std::unique_ptr<Connection> conn = take_connection();
  const TransferStats stats = transfer(*conn, open, reader, writer);  // throws: conn closes
  keep_connection(std::move(conn));
  return stats;
}

TransferStats Client::transfer(Connection& conn, const OpenRequest& open,
                               const PullReader& reader, const PushWriter& writer) {
  const int fd = conn.fd;
  std::vector<std::uint8_t>& out = conn.out;
  std::vector<std::uint8_t>& in = conn.in;

  // OPEN goes out before the reader is asked for data, and nothing waits
  // for OPEN_OK: the server's verdict on it arrives through the same pump
  // as the output. Between requests the server's receive buffer is empty,
  // so this write does not block.
  {
    const std::vector<std::uint8_t> payload = serialize_open(open);
    write_frame(fd, FrameType::kOpen, payload.data(), payload.size());
  }

  if (out.size() < 5 + kIoChunk) out.resize(5 + kIoChunk);
  std::size_t out_at = 0;   // send offset into out
  std::size_t out_end = 0;  // end of the queued bytes in out
  std::size_t in_end = 0;   // end of the received, unparsed bytes in in
  bool input_done = false;  // reader hit EOF and FINISH is queued
  TransferStats stats;
  bool opened = false;  // OPEN_OK received
  bool done = false;    // DONE received
  while (!done) {
    // Refill the send buffer from the reader once drained: DATA pulled
    // straight into it, or FINISH once the reader reports EOF.
    if (!input_done && out_at == out_end) {
      const std::size_t n = reader(out.data() + 5, kIoChunk);
      store_frame_header(out.data(), n > 0 ? FrameType::kData : FrameType::kFinish, n);
      out_at = 0;
      out_end = 5 + n;
      input_done = n == 0;
    }

    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (out_at < out_end) pfd.events |= POLLOUT;
    const int pr = ::poll(&pfd, 1, 1000);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("ebct_client: poll failed: ") +
                               std::strerror(errno));
    }

    if (pfd.revents & POLLOUT) {
      // MSG_NOSIGNAL: EPIPE (server closed after an ERROR frame we have not
      // drained yet), not SIGPIPE. A server that closes with our input still
      // unread resets the connection, so ECONNRESET means the same. The
      // pending ERROR frame still gets read, so the caller sees the
      // ServerError, not the broken pipe.
      const ssize_t n = ::send(fd, out.data() + out_at, out_end - out_at, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EPIPE || errno == ECONNRESET) {
          out_at = out_end = 0;  // stop writing; drain the server's verdict
          input_done = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          throw std::runtime_error(std::string("ebct_client: write failed: ") +
                                   std::strerror(errno));
        }
      } else {
        out_at += static_cast<std::size_t>(n);
      }
    }

    if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
      if (in.size() < in_end + kIoChunk) in.resize(in_end + kIoChunk);
      const ssize_t n = ::read(fd, in.data() + in_end, kIoChunk);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          throw std::runtime_error(std::string("ebct_client: read failed: ") +
                                   std::strerror(errno));
        continue;
      }
      if (n == 0) throw std::runtime_error("ebct_client: server closed connection mid-request");
      in_end += static_cast<std::size_t>(n);

      // Consume every complete frame by offset; the writer sees DATA
      // payloads in place. A partial frame moves to the front once.
      std::size_t at = 0;
      while (!done && in_end - at >= 5) {
        const std::size_t len = get_u32(in.data() + at);
        if (in_end - at - 5 < len) break;
        const std::uint8_t raw_type = in[at + 4];
        if (raw_type < static_cast<std::uint8_t>(FrameType::kOpen) ||
            raw_type > static_cast<std::uint8_t>(FrameType::kError))
          throw std::runtime_error("ebct_client: server sent unknown frame type " +
                                   std::to_string(raw_type));
        const auto type = static_cast<FrameType>(raw_type);
        const std::uint8_t* payload = in.data() + at + 5;
        at += 5 + len;
        if (type == FrameType::kError) throw_error_frame(payload, len);
        if (!opened) {
          if (type != FrameType::kOpenOk) throw_unexpected(type, "before OPEN_OK");
          if (len >= 4) stats.window_elems = get_u32(payload);
          opened = true;
          continue;
        }
        switch (type) {
          case FrameType::kData:
            writer(payload, len);
            break;
          case FrameType::kDone:
            if (len >= 16) {
              stats.bytes_in = get_u64(payload);
              stats.bytes_out = get_u64(payload + 8);
            }
            done = true;
            break;
          default:
            throw_unexpected(type, "mid-request");
        }
      }
      // DONE answers FINISH, and nothing follows it: a kept connection with
      // input unsent or a byte unread would corrupt the next request.
      if (done && (!input_done || out_at != out_end || at != in_end))
        throw std::runtime_error("ebct_client: server sent DONE out of turn");
      std::memmove(in.data(), in.data() + at, in_end - at);
      in_end -= at;
    }
  }
  return stats;
}

TransferStats Client::encode(const std::string& tenant, const std::string& spec,
                             std::size_t window_elems, const PullReader& reader,
                             const PushWriter& writer) {
  OpenRequest req;
  req.op = Op::kEncode;
  req.tenant = tenant;
  req.spec = spec;
  req.window_elems = static_cast<std::uint32_t>(window_elems);
  return run(req, reader, writer);
}

TransferStats Client::decode(const std::string& tenant, const PullReader& reader,
                             const PushWriter& writer) {
  OpenRequest req;
  req.op = Op::kDecode;
  req.tenant = tenant;
  return run(req, reader, writer);
}

std::vector<std::uint8_t> Client::encode_bytes(const std::string& tenant,
                                               const std::string& spec,
                                               std::size_t window_elems,
                                               const std::vector<std::uint8_t>& raw) {
  std::size_t at = 0;
  std::vector<std::uint8_t> out;
  encode(
      tenant, spec, window_elems,
      [&raw, &at](std::uint8_t* buf, std::size_t cap) {
        const std::size_t n = std::min(cap, raw.size() - at);
        std::memcpy(buf, raw.data() + at, n);
        at += n;
        return n;
      },
      [&out](const std::uint8_t* data, std::size_t n) { out.insert(out.end(), data, data + n); });
  return out;
}

std::vector<std::uint8_t> Client::decode_bytes(const std::string& tenant,
                                               const std::vector<std::uint8_t>& container) {
  std::size_t at = 0;
  std::vector<std::uint8_t> out;
  decode(
      tenant,
      [&container, &at](std::uint8_t* buf, std::size_t cap) {
        const std::size_t n = std::min(cap, container.size() - at);
        std::memcpy(buf, container.data() + at, n);
        at += n;
        return n;
      },
      [&out](const std::uint8_t* data, std::size_t n) { out.insert(out.end(), data, data + n); });
  return out;
}

}  // namespace ebct::serve
