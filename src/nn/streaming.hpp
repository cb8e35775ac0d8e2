#pragma once

/// \file streaming.hpp
/// Chunked streaming codec API: encode/decode a float payload of any size
/// in bounded windows, so the full tensor never needs to be resident. This
/// is the constant-memory seam the serving subsystem (src/serve/) and the
/// stdin/stdout mode of ebct_compress_cli are built on — the push-style
/// (SAX-like) idiom LJSON uses for parse-while-reading /
/// print-while-writing, applied to the activation codecs.
///
/// Format ("EBCS" container, all integers little-endian):
///
///   "EBCS" | u8 version=1 | u8 reserved=0 | u16 spec_len | spec bytes |
///   u32 window_elems |
///   blocks: { u32 payload_len | u32 numel | payload } ...   (numel >= 1)
///   terminator: u32 0 | u32 0 | u64 total_numel
///
/// Each block's payload is EXACTLY the bytes the underlying registry codec's
/// one-shot encode() produces for that window's floats (shape
/// nchw(1,1,1,numel), layer name "stream"). The window size is a property of
/// the stream, fixed at encoder construction and recorded in the header —
/// never of how the caller happens to feed bytes. Two consequences, which
/// together extend the repo's determinism contract across the chunk
/// boundary:
///
///  - Feed granularity is invisible: pushing the payload 1 KiB at a time,
///    64 KiB at a time, or whole produces bitwise-identical container bytes.
///  - Every window round-trips exactly as the one-shot codec path would:
///    decoding a container yields the concatenation of
///    codec->decode(codec->encode("stream", window_i)) for each window.
///
/// Memory: an encoder holds at most one window of staged floats plus one
/// window's encoded bytes (and the codec's own scratch); a decoder holds at
/// most one framed block plus its decoded floats. Both expose the cap.
///
/// There is one codec path: every window goes through the codec's one-shot
/// encode()/decode(). The encoder stages floats straight into a
/// window-sized tensor and encodes it in place (only a partial tail window
/// is copied into a tail-sized tensor); the decoder receives each block's
/// payload straight into the EncodedActivation it decodes and sinks the
/// decoded tensor.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation_store.hpp"
#include "tensor/tensor.hpp"

namespace ebct::nn {

/// Destination for produced container/output bytes. Called zero or more
/// times per feed(); the pointed-to range is only valid for the call.
using ByteSink = std::function<void(const std::uint8_t*, std::size_t)>;

/// Destination for decoded floats, same lifetime rules as ByteSink.
using FloatSink = std::function<void(const float*, std::size_t)>;

/// Layer name every streamed window is encoded under. Constant so container
/// bytes are a pure function of (spec, window_elems, payload).
inline constexpr const char* kStreamLayer = "stream";

/// Bounds on the per-stream window size (elements). The default, 64 Ki
/// floats = 256 KiB raw per window, keeps resident memory small while
/// amortising per-window codec setup.
inline constexpr std::size_t kMinWindowElems = 256;
inline constexpr std::size_t kMaxWindowElems = std::size_t{1} << 26;
inline constexpr std::size_t kDefaultWindowElems = 64 * 1024;

/// Push-style streaming encoder. Feed float data in any granularity;
/// complete windows are encoded and framed into the ByteSink as they fill.
/// finish() flushes the tail window (if any), the terminator and the
/// element-count trailer.
class StreamingEncoder {
 public:
  /// `spec` is recorded verbatim in the container header (a decoder
  /// rebuilds the codec from it); `codec` must be the codec that spec
  /// resolves to. window_elems is clamped to [kMinWindowElems,
  /// kMaxWindowElems]; 0 selects kDefaultWindowElems.
  StreamingEncoder(std::shared_ptr<ActivationCodec> codec, std::string spec,
                   std::size_t window_elems, ByteSink sink);

  /// Push n floats.
  void feed(const float* data, std::size_t n);

  /// Push raw bytes of float32 data; handles reads that split a float
  /// (stdin pipes deliver arbitrary byte counts).
  void feed_bytes(const std::uint8_t* bytes, std::size_t n);

  /// Flush the tail window, terminator and trailer. Throws
  /// std::invalid_argument if buffered bytes do not form whole floats.
  void finish();

  /// Rearm for a new payload with a different codec/spec/window/sink,
  /// keeping the staged window's storage when the window size is unchanged
  /// — how the serve layer's SessionPool reuses one encoder across
  /// requests. Validates exactly as the constructor does.
  void rebind(std::shared_ptr<ActivationCodec> codec, std::string spec,
              std::size_t window_elems, ByteSink sink);

  std::size_t window_elems() const { return window_elems_; }
  std::uint64_t floats_in() const { return floats_in_; }
  std::uint64_t bytes_out() const { return bytes_out_; }

  /// Upper bound on bytes this encoder keeps resident: one staged window
  /// plus one encoded window (conservatively 2x raw, lossy codecs emit
  /// less) plus the float-split remainder.
  std::size_t resident_cap_bytes() const { return 3 * window_elems_ * sizeof(float) + 4; }

 private:
  void emit_header();
  void stage(const void* floats, std::size_t n);  ///< copy n floats into window_
  void flush_window();
  void sink_bytes(const void* data, std::size_t n);

  std::shared_ptr<ActivationCodec> codec_;
  std::string spec_;
  std::size_t window_elems_ = 0;
  ByteSink sink_;
  tensor::Tensor window_;   ///< window_elems_ floats; the first staged_ are live
  std::size_t staged_ = 0;  ///< < window_elems_ between calls
  std::uint8_t byte_carry_[4] = {0, 0, 0, 0};
  std::size_t byte_carry_len_ = 0;
  bool header_emitted_ = false;
  bool finished_ = false;
  std::uint64_t floats_in_ = 0;
  std::uint64_t bytes_out_ = 0;
};

/// Builds the codec a container names. The serve layer passes the
/// CodecRegistry; keeping it a callback keeps nn/ free of a dependency on
/// core/ (which already depends on nn/).
using CodecFactory =
    std::function<std::shared_ptr<ActivationCodec>(const std::string& spec)>;

/// Push-style streaming decoder for the EBCS container. Feed container
/// bytes in any granularity; each completed block is decoded and its floats
/// pushed into the FloatSink. finish() validates the terminator/trailer and
/// throws std::runtime_error on a truncated or malformed stream.
class StreamingDecoder {
 public:
  StreamingDecoder(CodecFactory factory, FloatSink sink);

  void feed(const std::uint8_t* bytes, std::size_t n);
  void finish();

  /// Rearm for a new container through a new sink (pooled reuse), keeping
  /// buffer capacity. Validates exactly as the constructor does.
  void rebind(FloatSink sink);

  /// Spec recorded in the header (empty until the header has been parsed).
  const std::string& spec() const { return spec_; }
  std::size_t window_elems() const { return window_elems_; }
  std::uint64_t floats_out() const { return floats_out_; }

  /// Bytes kept resident: one framed block plus its decoded floats. A block
  /// payload is capped at 4x the raw window + 1 MiB (codecs can expand
  /// incompressible data, but not unboundedly) — larger frames fail loudly
  /// as malformed. The window is known only once the header has parsed;
  /// before that this reports the bound for a default-window stream. The
  /// serve layer charges that floor at admission and re-charges the actual
  /// cap against the tenant budget once the header arrives (429 mid-stream
  /// on overrun).
  std::size_t resident_cap_bytes() const;

 private:
  enum class State { kMagic, kHeader, kBlockHeader, kBlockPayload, kTrailer, kDone };

  /// Consume the need_ bytes gathered in `buf` for the current state and
  /// move to the next one.
  void step(const std::vector<std::uint8_t>& buf);

  CodecFactory factory_;
  FloatSink sink_;
  std::shared_ptr<ActivationCodec> codec_;
  std::string spec_;
  std::size_t window_elems_ = 0;
  State state_ = State::kMagic;
  std::vector<std::uint8_t> staging_;  ///< the current header/frame field
  std::size_t need_ = 8;               ///< bytes the current state consumes
  EncodedActivation block_;            ///< current block; payload lands in block_.bytes
  std::uint64_t floats_out_ = 0;
};

/// One-shot helpers over the streaming classes — the reference "one-shot
/// path" the determinism tests compare streamed output against, and the
/// convenience API for callers with the payload already resident.
std::vector<std::uint8_t> streaming_encode_all(std::shared_ptr<ActivationCodec> codec,
                                               const std::string& spec,
                                               const float* data, std::size_t n,
                                               std::size_t window_elems);
std::vector<float> streaming_decode_all(const CodecFactory& factory,
                                        const std::uint8_t* bytes, std::size_t n);

}  // namespace ebct::nn
