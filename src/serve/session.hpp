#pragma once

/// \file session.hpp
/// Per-request encode/decode session objects with pooled scratch buffers.
///
/// A session wraps a streaming codec (nn/streaming.hpp) plus the frame
/// staging buffers one request needs. The SessionPool keeps finished
/// session objects — including their window/scratch vector capacity — and
/// hands them back to the next request via rebind(), so a long-lived
/// server reaches a steady state with zero per-request allocation in the
/// staging path (the LJSON pooled-buffer idiom). Sessions are used by one
/// connection thread at a time; the pool itself is thread-safe.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/streaming.hpp"

namespace ebct::serve {

/// One in-flight encode request: raw float bytes in, EBCS container out.
class EncodeSession {
 public:
  /// Arm for a request. `sink` receives container bytes as windows close.
  void begin(std::shared_ptr<nn::ActivationCodec> codec, const std::string& spec,
             std::size_t window_elems, nn::ByteSink sink);

  void feed_bytes(const std::uint8_t* data, std::size_t n) { enc_->feed_bytes(data, n); }
  void finish() { enc_->finish(); }

  std::size_t window_elems() const { return enc_ ? enc_->window_elems() : 0; }
  std::uint64_t bytes_out() const { return enc_ ? enc_->bytes_out() : 0; }

  /// Bound on bytes this session keeps resident between frames — what the
  /// server charges against the tenant's budget at admission.
  std::size_t resident_cap_bytes() const { return enc_ ? enc_->resident_cap_bytes() : 0; }

 private:
  std::unique_ptr<nn::StreamingEncoder> enc_;  ///< reused across begin()s
};

/// One in-flight decode request: EBCS container bytes in, raw floats out.
class DecodeSession {
 public:
  explicit DecodeSession(nn::CodecFactory factory) : factory_(std::move(factory)) {}

  /// Arm for a request. `sink` receives raw float bytes per decoded window.
  void begin(nn::ByteSink sink);

  void feed_bytes(const std::uint8_t* data, std::size_t n) { dec_->feed(data, n); }
  void finish() { dec_->finish(); }

  const std::string& spec() const { return dec_->spec(); }
  std::size_t window_elems() const { return dec_ ? dec_->window_elems() : 0; }

  /// Resident bound: one framed block plus its decoded floats. Known only
  /// after the container header parses (it fixes window_elems); before
  /// that, reports the floor for one default-window stream. The server
  /// charges the floor at admission and re-charges the actual cap against
  /// the tenant budget once the header arrives (429 mid-stream on overrun).
  std::size_t resident_cap_bytes() const;

 private:
  nn::CodecFactory factory_;
  std::unique_ptr<nn::StreamingDecoder> dec_;
};

/// Thread-safe free-lists of session objects. acquire_* pops a pooled
/// object (or builds a fresh one); release_* returns it once the request
/// completes. Objects keep their buffer capacity between requests.
class SessionPool {
 public:
  explicit SessionPool(nn::CodecFactory factory) : factory_(std::move(factory)) {}

  std::unique_ptr<EncodeSession> acquire_encode();
  void release_encode(std::unique_ptr<EncodeSession> s);

  std::unique_ptr<DecodeSession> acquire_decode();
  void release_decode(std::unique_ptr<DecodeSession> s);

 private:
  nn::CodecFactory factory_;
  std::mutex mu_;
  std::vector<std::unique_ptr<EncodeSession>> free_encode_;
  std::vector<std::unique_ptr<DecodeSession>> free_decode_;
};

}  // namespace ebct::serve
