#pragma once

/// \file protocol.hpp
/// Wire protocol of the ebct_serve daemon: a length-prefixed framed stream
/// over a local (AF_UNIX) socket. Documented for external clients in
/// docs/SERVING.md — keep the two in sync.
///
/// Frame layout (all integers little-endian):
///
///   u32 payload_len | u8 type | payload[payload_len]
///
/// A connection carries requests back to back: OPEN, DATA..., FINISH from
/// the client, answered by OPEN_OK, DATA..., DONE, after which the next
/// OPEN may follow on the same connection. A client may send DATA right
/// after OPEN without waiting for OPEN_OK; a rejected OPEN is answered
/// with ERROR. Client-to-server frames:
///
///   kOpen    payload: u8 op (0 = encode, 1 = decode)
///            | u16 tenant_len | tenant bytes
///            | u16 spec_len   | spec bytes   (encode only; "" on decode —
///                                             the EBCS header names it)
///            | u32 window_elems (encode only; 0 = server default)
///   kData    payload: raw bytes — float32 input for encode, EBCS container
///            bytes for decode. Any granularity; output bytes are
///            independent of how the input is framed.
///   kFinish  payload: empty — end of input.
///
/// Server-to-client frames:
///
///   kOpenOk  payload: u32 window_elems in force (the budget-admission ack);
///            always the first frame of a reply that is not an ERROR
///   kData    payload: output bytes (EBCS container for encode, raw floats
///            for decode)
///   kDone    payload: u64 bytes_in | u64 bytes_out — request complete.
///   kError   payload: u16 code | message bytes. Codes are HTTP-flavoured:
///            400 malformed frame/stream, 404 unknown codec spec,
///            413 frame exceeds the size cap, 429 tenant over byte budget
///            (backpressure — retry later), 500 internal error.
///            After kError the server closes the connection, whatever
///            input the client still had in flight.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/bytes.hpp"

namespace ebct::serve {

enum class FrameType : std::uint8_t {
  kOpen = 1,
  kData = 2,
  kFinish = 3,
  kOpenOk = 4,
  kDone = 5,
  kError = 6,
};

enum class Op : std::uint8_t { kEncode = 0, kDecode = 1 };

/// HTTP-flavoured error codes carried by kError frames.
inline constexpr std::uint16_t kErrMalformed = 400;
inline constexpr std::uint16_t kErrUnknownSpec = 404;
inline constexpr std::uint16_t kErrFrameTooBig = 413;
inline constexpr std::uint16_t kErrOverBudget = 429;
inline constexpr std::uint16_t kErrInternal = 500;

/// Hard cap on a frame payload unless overridden (EBCT_SERVE_MAX_FRAME).
inline constexpr std::size_t kDefaultMaxFrame = 4u << 20;

/// A parsed frame (payload copied out of the stream buffer).
struct Frame {
  FrameType type = FrameType::kData;
  std::vector<std::uint8_t> payload;
};

/// Server-reported request failure, surfaced to client-library callers.
class ServerError : public std::runtime_error {
 public:
  ServerError(std::uint16_t code, const std::string& message)
      : std::runtime_error("ebct_serve error " + std::to_string(code) + ": " + message),
        code_(code),
        message_(message) {}
  std::uint16_t code() const { return code_; }
  /// The message without what()'s "ebct_serve error <code>: " prefix: what
  /// an ERROR frame carries, since the client adds the prefix back.
  const std::string& message() const { return message_; }

 private:
  std::uint16_t code_;
  std::string message_;
};

// --- frame (de)serialisation helpers -------------------------------------

using tensor::get_u16;
using tensor::get_u32;
using tensor::get_u64;
using tensor::put_u16;
using tensor::put_u32;
using tensor::put_u64;

/// Write the 5-byte frame header (u32 payload_len | u8 type) at `at`.
void store_frame_header(std::uint8_t* at, FrameType type, std::size_t len);

/// Serialise a frame header+payload into `out` (appended).
void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  const std::uint8_t* payload, std::size_t len);

/// Blocking exact write of the whole buffer; throws std::runtime_error on
/// EPIPE/EINTR-exhausted/other socket errors. Like read_frame, polls in
/// 100 ms slices and consults `poll_stop` between them, so a draining
/// server also abandons writes to a peer that stopped reading (full socket
/// buffer) instead of hanging stop() past drain_grace_ms.
void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::function<bool()>* poll_stop = nullptr);

/// Blocking frame write; same `poll_stop` contract as write_all.
void write_frame(int fd, FrameType type, const std::uint8_t* payload, std::size_t len,
                 const std::function<bool()>* poll_stop = nullptr);

/// Convenience error-frame write (never throws — used on teardown paths).
void write_error_frame(int fd, std::uint16_t code, const std::string& message,
                       const std::function<bool()>* poll_stop = nullptr) noexcept;

/// Blocking frame read with a payload size cap. Returns false on clean EOF
/// at a frame boundary; throws on mid-frame EOF, oversize payloads
/// (ServerError 413) or socket errors. `poll_stop`, when non-null, is
/// consulted between poll slices so a draining server can abandon a read
/// that will never complete (throws std::runtime_error when it fires).
bool read_frame(int fd, Frame& out, std::size_t max_payload,
                const std::function<bool()>* poll_stop = nullptr);

/// kOpen payload contents.
struct OpenRequest {
  Op op = Op::kEncode;
  std::string tenant;
  std::string spec;
  std::uint32_t window_elems = 0;
};

/// Throws std::invalid_argument when the tenant or spec is longer than
/// its u16 length field can declare (65,535 bytes).
std::vector<std::uint8_t> serialize_open(const OpenRequest& req);
OpenRequest parse_open(const std::vector<std::uint8_t>& payload);  // throws ServerError(400)

}  // namespace ebct::serve
