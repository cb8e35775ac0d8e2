#include "serve/protocol.hpp"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace ebct::serve {

void store_frame_header(std::uint8_t* at, FrameType type, std::size_t len) {
  const auto len32 = static_cast<std::uint32_t>(len);
  for (int i = 0; i < 4; ++i) at[i] = static_cast<std::uint8_t>((len32 >> (8 * i)) & 0xff);
  at[4] = static_cast<std::uint8_t>(type);
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  const std::uint8_t* payload, std::size_t len) {
  put_u32(out, static_cast<std::uint32_t>(len));
  out.push_back(static_cast<std::uint8_t>(type));
  if (len > 0) out.insert(out.end(), payload, payload + len);
}

namespace {

/// Sends every byte of iov[0, n), advancing the entries past what went out.
void send_all(int fd, iovec* iov, std::size_t n, const std::function<bool()>* poll_stop) {
  while (n > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    // MSG_NOSIGNAL: a peer that vanished mid-request must surface as EPIPE
    // (an exception the handler reports), not a process-killing SIGPIPE.
    // MSG_DONTWAIT: a peer that stopped *reading* (full socket buffer) must
    // surface as EAGAIN so we fall through to the poll slice below and give
    // poll_stop a chance to abandon the drain — mirroring read_exact.
    const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent > 0) {
      auto left = static_cast<std::size_t>(sent);
      while (n > 0 && left >= iov->iov_len) {
        left -= iov->iov_len;
        ++iov;
        --n;
      }
      if (n > 0) {
        iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + left;
        iov->iov_len -= left;
      }
      continue;
    }
    if (sent < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
      throw std::runtime_error(std::string("ebct_serve: socket write failed: ") +
                               std::strerror(errno));
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("ebct_serve: poll failed: ") +
                               std::strerror(errno));
    }
    if (pr == 0 && poll_stop && (*poll_stop)())
      throw std::runtime_error("ebct_serve: write abandoned (server draining)");
  }
}

/// Blocking exact read. Returns false on EOF before the first byte (clean
/// close); throws on EOF mid-buffer or error. Reads first and polls only
/// when nothing is waiting, in 100 ms slices, so a draining server can
/// abandon the wait via `poll_stop`.
bool read_exact(int fd, std::uint8_t* data, std::size_t len, bool eof_ok,
                const std::function<bool()>* poll_stop) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, MSG_DONTWAIT);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw std::runtime_error("ebct_serve: connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      throw std::runtime_error(std::string("ebct_serve: socket read failed: ") +
                               std::strerror(errno));
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("ebct_serve: poll failed: ") +
                               std::strerror(errno));
    }
    if (pr == 0 && poll_stop && (*poll_stop)())
      throw std::runtime_error("ebct_serve: read abandoned (server draining)");
  }
  return true;
}

}  // namespace

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::function<bool()>* poll_stop) {
  iovec iov{const_cast<std::uint8_t*>(data), len};
  send_all(fd, &iov, len > 0 ? 1 : 0, poll_stop);
}

void write_frame(int fd, FrameType type, const std::uint8_t* payload, std::size_t len,
                 const std::function<bool()>* poll_stop) {
  // Header and payload go out in one sendmsg, with no copy of the payload.
  std::uint8_t header[5];
  store_frame_header(header, type, len);
  iovec iov[2] = {{header, sizeof(header)}, {const_cast<std::uint8_t*>(payload), len}};
  send_all(fd, iov, len > 0 ? 2 : 1, poll_stop);
}

void write_error_frame(int fd, std::uint16_t code, const std::string& message,
                       const std::function<bool()>* poll_stop) noexcept {
  try {
    std::vector<std::uint8_t> payload;
    put_u16(payload, code);
    payload.insert(payload.end(), message.begin(), message.end());
    write_frame(fd, FrameType::kError, payload.data(), payload.size(), poll_stop);
  } catch (...) {
    // Teardown path: the peer may already be gone; nothing more to report.
  }
}

bool read_frame(int fd, Frame& out, std::size_t max_payload,
                const std::function<bool()>* poll_stop) {
  std::uint8_t header[5];
  if (!read_exact(fd, header, 5, /*eof_ok=*/true, poll_stop)) return false;
  const std::uint32_t len = get_u32(header);
  const std::uint8_t type = header[4];
  if (type < static_cast<std::uint8_t>(FrameType::kOpen) ||
      type > static_cast<std::uint8_t>(FrameType::kError))
    throw ServerError(kErrMalformed, "unknown frame type " + std::to_string(type));
  if (len > max_payload)
    throw ServerError(kErrFrameTooBig, "frame payload " + std::to_string(len) +
                                           " bytes exceeds cap " +
                                           std::to_string(max_payload));
  out.type = static_cast<FrameType>(type);
  out.payload.resize(len);
  if (len > 0) read_exact(fd, out.payload.data(), len, /*eof_ok=*/false, poll_stop);
  return true;
}

std::vector<std::uint8_t> serialize_open(const OpenRequest& req) {
  // A u16 length field cannot declare a longer value; truncating the field
  // while writing every byte would make the server parse other fields.
  if (req.tenant.size() > 0xffff || req.spec.size() > 0xffff)
    throw std::invalid_argument("serialize_open: tenant and spec must be at most 65535 bytes");
  std::vector<std::uint8_t> p;
  p.reserve(1 + 2 + req.tenant.size() + 2 + req.spec.size() + 4);
  p.push_back(static_cast<std::uint8_t>(req.op));
  put_u16(p, static_cast<std::uint16_t>(req.tenant.size()));
  tensor::append_bytes(p, req.tenant.data(), req.tenant.size());
  put_u16(p, static_cast<std::uint16_t>(req.spec.size()));
  tensor::append_bytes(p, req.spec.data(), req.spec.size());
  put_u32(p, req.window_elems);
  return p;
}

OpenRequest parse_open(const std::vector<std::uint8_t>& payload) {
  const auto need = [&payload](std::size_t at, std::size_t n) {
    if (at + n > payload.size())
      throw ServerError(kErrMalformed, "truncated OPEN payload");
  };
  OpenRequest req;
  need(0, 1);
  const std::uint8_t op = payload[0];
  if (op > 1) throw ServerError(kErrMalformed, "OPEN op must be 0 (encode) or 1 (decode)");
  req.op = static_cast<Op>(op);
  std::size_t at = 1;
  need(at, 2);
  const std::uint16_t tenant_len = get_u16(payload.data() + at);
  at += 2;
  need(at, tenant_len);
  req.tenant.assign(reinterpret_cast<const char*>(payload.data() + at), tenant_len);
  at += tenant_len;
  need(at, 2);
  const std::uint16_t spec_len = get_u16(payload.data() + at);
  at += 2;
  need(at, spec_len);
  req.spec.assign(reinterpret_cast<const char*>(payload.data() + at), spec_len);
  at += spec_len;
  need(at, 4);
  req.window_elems = get_u32(payload.data() + at);
  at += 4;
  if (at != payload.size())
    throw ServerError(kErrMalformed, "trailing bytes in OPEN payload");
  if (req.tenant.empty()) throw ServerError(kErrMalformed, "OPEN tenant must be non-empty");
  if (req.op == Op::kEncode && req.spec.empty())
    throw ServerError(kErrMalformed, "OPEN encode requires a codec spec");
  return req;
}

}  // namespace ebct::serve
