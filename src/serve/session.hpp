#pragma once

/// \file session.hpp
/// Pooled streaming encoders/decoders for the serve layer.
///
/// The SessionPool keeps the nn::StreamingEncoder/StreamingDecoder objects
/// of finished requests — with their window and staging capacity — and
/// rebinds them for the next request, so a long-lived server reaches a
/// steady state with no per-request allocation ramp-up in the staging path
/// (the LJSON pooled-buffer idiom). An encoder or decoder is used by one
/// request at a time; the pool itself is thread-safe.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/streaming.hpp"

namespace ebct::serve {

class SessionPool {
 public:
  explicit SessionPool(nn::CodecFactory factory) : factory_(std::move(factory)) {}

  /// A pooled encoder rebound to the request (or a fresh one). `sink`
  /// receives container bytes as windows close.
  std::unique_ptr<nn::StreamingEncoder> acquire_encoder(
      std::shared_ptr<nn::ActivationCodec> codec, std::string spec, std::size_t window_elems,
      nn::ByteSink sink);

  /// A pooled decoder rebound to `sink` (or a fresh one over the pool's
  /// codec factory).
  std::unique_ptr<nn::StreamingDecoder> acquire_decoder(nn::FloatSink sink);

  /// Return an object once its request completes (null is ignored).
  void release(std::unique_ptr<nn::StreamingEncoder> enc);
  void release(std::unique_ptr<nn::StreamingDecoder> dec);

 private:
  nn::CodecFactory factory_;
  std::mutex mu_;
  std::vector<std::unique_ptr<nn::StreamingEncoder>> free_encoders_;
  std::vector<std::unique_ptr<nn::StreamingDecoder>> free_decoders_;
};

}  // namespace ebct::serve
