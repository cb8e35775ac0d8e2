#include "nn/streaming.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/bytes.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace ebct::nn {

namespace {

constexpr char kMagic[4] = {'E', 'B', 'C', 'S'};
constexpr std::uint8_t kVersion = 1;

using tensor::get_u16;
using tensor::get_u32;
using tensor::get_u64;
using tensor::put_u16;
using tensor::put_u32;
using tensor::put_u64;

/// Fallback WindowEncoder: copies the window into a Tensor and runs the
/// codec's one-shot encode(). Correct for every codec by construction;
/// native hooks exist to skip exactly this copy.
class BufferedWindowEncoder final : public WindowEncoder {
 public:
  explicit BufferedWindowEncoder(std::shared_ptr<ActivationCodec> codec)
      : codec_(std::move(codec)) {}

  void encode_window(const float* data, std::size_t n,
                     std::vector<std::uint8_t>& out) override {
    tensor::Tensor t(tensor::Shape::nchw(1, 1, 1, n));
    std::memcpy(t.data(), data, n * sizeof(float));
    EncodedActivation enc = codec_->encode(kStreamLayer, t);
    out = std::move(enc.bytes);
  }

 private:
  std::shared_ptr<ActivationCodec> codec_;
};

/// Fallback WindowDecoder: rebuilds the EncodedActivation a one-shot encode
/// of the window would have produced and runs codec->decode().
class BufferedWindowDecoder final : public WindowDecoder {
 public:
  explicit BufferedWindowDecoder(std::shared_ptr<ActivationCodec> codec)
      : codec_(std::move(codec)) {}

  void decode_window(const std::uint8_t* payload, std::size_t payload_len,
                     std::size_t numel, std::vector<float>& out) override {
    EncodedActivation enc;
    enc.bytes.assign(payload, payload + payload_len);
    enc.shape = tensor::Shape::nchw(1, 1, 1, numel);
    enc.layer = kStreamLayer;
    tensor::Tensor t = codec_->decode(enc);
    if (t.numel() != numel)
      throw std::runtime_error("streaming decode: codec returned " +
                               std::to_string(t.numel()) + " elems, block declared " +
                               std::to_string(numel));
    out.resize(numel);
    std::memcpy(out.data(), t.data(), numel * sizeof(float));
  }

 private:
  std::shared_ptr<ActivationCodec> codec_;
};

std::size_t clamp_window(std::size_t w) {
  if (w == 0) return kDefaultWindowElems;
  return std::clamp(w, kMinWindowElems, kMaxWindowElems);
}

}  // namespace

// ---------------------------------------------------------------------------
// StreamingEncoder

StreamingEncoder::StreamingEncoder(std::shared_ptr<ActivationCodec> codec,
                                   std::string spec, std::size_t window_elems,
                                   ByteSink sink)
    : codec_(std::move(codec)),
      spec_(std::move(spec)),
      window_elems_(clamp_window(window_elems)),
      sink_(std::move(sink)) {
  if (!codec_) throw std::invalid_argument("StreamingEncoder: null codec");
  if (!sink_) throw std::invalid_argument("StreamingEncoder: null sink");
  if (spec_.size() > 0xffff) throw std::invalid_argument("StreamingEncoder: spec too long");
  window_encoder_ = codec_->make_window_encoder();
  if (!window_encoder_) window_encoder_ = std::make_unique<BufferedWindowEncoder>(codec_);
  window_.reserve(window_elems_);
}

void StreamingEncoder::sink_bytes(const void* data, std::size_t n) {
  sink_(static_cast<const std::uint8_t*>(data), n);
  bytes_out_ += n;
}

void StreamingEncoder::emit_header() {
  std::vector<std::uint8_t> h;
  h.reserve(12 + spec_.size());
  h.insert(h.end(), kMagic, kMagic + 4);
  h.push_back(kVersion);
  h.push_back(0);  // reserved
  put_u16(h, static_cast<std::uint16_t>(spec_.size()));
  h.insert(h.end(), spec_.begin(), spec_.end());
  put_u32(h, static_cast<std::uint32_t>(window_elems_));
  sink_bytes(h.data(), h.size());
  header_emitted_ = true;
}

void StreamingEncoder::flush_window() {
  if (window_.empty()) return;
  encoded_.clear();
  window_encoder_->encode_window(window_.data(), window_.size(), encoded_);
  std::vector<std::uint8_t> frame;
  frame.reserve(8);
  put_u32(frame, static_cast<std::uint32_t>(encoded_.size()));
  put_u32(frame, static_cast<std::uint32_t>(window_.size()));
  sink_bytes(frame.data(), frame.size());
  sink_bytes(encoded_.data(), encoded_.size());
  window_.clear();
}

void StreamingEncoder::feed(const float* data, std::size_t n) {
  if (finished_) throw std::logic_error("StreamingEncoder::feed after finish");
  if (!header_emitted_) emit_header();
  floats_in_ += n;
  while (n > 0) {
    const std::size_t take = std::min(n, window_elems_ - window_.size());
    window_.insert(window_.end(), data, data + take);
    data += take;
    n -= take;
    if (window_.size() == window_elems_) flush_window();
  }
}

void StreamingEncoder::feed_bytes(const std::uint8_t* bytes, std::size_t n) {
  // Complete a split float left over from the previous call first.
  if (byte_carry_len_ > 0) {
    while (byte_carry_len_ < 4 && n > 0) {
      byte_carry_[byte_carry_len_++] = *bytes++;
      --n;
    }
    if (byte_carry_len_ == 4) {
      float f;
      std::memcpy(&f, byte_carry_, 4);
      feed(&f, 1);
      byte_carry_len_ = 0;
    }
  }
  const std::size_t whole = n / 4;
  if (whole > 0) {
    // The byte stream may be unaligned (pipe buffers); stage through memcpy.
    const std::size_t chunk = 4096;
    float tmp[chunk];
    std::size_t done = 0;
    while (done < whole) {
      const std::size_t take = std::min(chunk, whole - done);
      std::memcpy(tmp, bytes + done * 4, take * 4);
      feed(tmp, take);
      done += take;
    }
  }
  const std::size_t rem = n % 4;
  if (rem > 0) {
    std::memcpy(byte_carry_, bytes + whole * 4, rem);
    byte_carry_len_ = rem;
  }
}

void StreamingEncoder::finish() {
  if (finished_) return;
  if (byte_carry_len_ != 0)
    throw std::invalid_argument("StreamingEncoder::finish: input is not a whole number of "
                                "float32 values (" +
                                std::to_string(byte_carry_len_) + " trailing bytes)");
  if (!header_emitted_) emit_header();
  flush_window();
  std::vector<std::uint8_t> tail;
  put_u32(tail, 0);  // terminator: payload_len == 0
  put_u32(tail, 0);  //             numel == 0
  put_u64(tail, floats_in_);
  sink_bytes(tail.data(), tail.size());
  finished_ = true;
}

void StreamingEncoder::reset() {
  window_.clear();
  encoded_.clear();
  byte_carry_len_ = 0;
  header_emitted_ = false;
  finished_ = false;
  floats_in_ = 0;
  bytes_out_ = 0;
}

void StreamingEncoder::rebind(std::shared_ptr<ActivationCodec> codec, std::string spec,
                              std::size_t window_elems, ByteSink sink) {
  if (!codec) throw std::invalid_argument("StreamingEncoder::rebind: null codec");
  if (!sink) throw std::invalid_argument("StreamingEncoder::rebind: null sink");
  if (spec.size() > 0xffff) throw std::invalid_argument("StreamingEncoder::rebind: spec too long");
  codec_ = std::move(codec);
  spec_ = std::move(spec);
  window_elems_ = clamp_window(window_elems);
  sink_ = std::move(sink);
  window_encoder_ = codec_->make_window_encoder();
  if (!window_encoder_) window_encoder_ = std::make_unique<BufferedWindowEncoder>(codec_);
  window_.reserve(window_elems_);
  reset();
}

// ---------------------------------------------------------------------------
// StreamingDecoder

StreamingDecoder::StreamingDecoder(CodecFactory factory, FloatSink sink)
    : factory_(std::move(factory)), sink_(std::move(sink)) {
  if (!factory_) throw std::invalid_argument("StreamingDecoder: null codec factory");
  if (!sink_) throw std::invalid_argument("StreamingDecoder: null sink");
}

void StreamingDecoder::feed(const std::uint8_t* bytes, std::size_t n) {
  if (state_ == State::kDone && n > 0)
    throw std::runtime_error("streaming decode: trailing bytes after trailer");
  staging_.insert(staging_.end(), bytes, bytes + n);
  advance();
}

void StreamingDecoder::advance() {
  while (staging_.size() >= need_) {
    switch (state_) {
      case State::kMagic: {
        // magic + version + reserved + spec_len
        if (std::memcmp(staging_.data(), kMagic, 4) != 0)
          throw std::runtime_error("streaming decode: bad magic (not an EBCS stream)");
        if (staging_[4] != kVersion)
          throw std::runtime_error("streaming decode: unsupported EBCS version " +
                                   std::to_string(staging_[4]));
        const std::uint16_t spec_len = get_u16(staging_.data() + 6);
        state_ = State::kHeader;
        need_ = std::size_t{8} + spec_len + 4;  // rest of header incl. window_elems
        break;
      }
      case State::kHeader: {
        const std::uint16_t spec_len = get_u16(staging_.data() + 6);
        spec_.assign(reinterpret_cast<const char*>(staging_.data() + 8), spec_len);
        window_elems_ = get_u32(staging_.data() + 8 + spec_len);
        if (window_elems_ < kMinWindowElems || window_elems_ > kMaxWindowElems)
          throw std::runtime_error("streaming decode: window_elems " +
                                   std::to_string(window_elems_) + " out of range");
        codec_ = factory_(spec_);
        if (!codec_)
          throw std::runtime_error("streaming decode: unknown codec spec '" + spec_ + "'");
        window_decoder_ = codec_->make_window_decoder();
        if (!window_decoder_)
          window_decoder_ = std::make_unique<BufferedWindowDecoder>(codec_);
        staging_.erase(staging_.begin(), staging_.begin() + static_cast<std::ptrdiff_t>(need_));
        state_ = State::kBlockHeader;
        need_ = 8;
        break;
      }
      case State::kBlockHeader: {
        block_payload_len_ = get_u32(staging_.data());
        block_numel_ = get_u32(staging_.data() + 4);
        if (block_payload_len_ == 0 && block_numel_ == 0) {
          // Terminator: keep the 8 bytes consumed, expect the u64 trailer.
          staging_.erase(staging_.begin(), staging_.begin() + 8);
          state_ = State::kTrailer;
          need_ = 8;
          break;
        }
        if (block_numel_ == 0 || block_numel_ > window_elems_)
          throw std::runtime_error("streaming decode: block numel " +
                                   std::to_string(block_numel_) + " exceeds window " +
                                   std::to_string(window_elems_));
        if (block_payload_len_ > max_block_bytes())
          throw std::runtime_error("streaming decode: block payload " +
                                   std::to_string(block_payload_len_) +
                                   " bytes exceeds cap " + std::to_string(max_block_bytes()));
        staging_.erase(staging_.begin(), staging_.begin() + 8);
        state_ = State::kBlockPayload;
        need_ = block_payload_len_;
        break;
      }
      case State::kBlockPayload: {
        window_decoder_->decode_window(staging_.data(), block_payload_len_, block_numel_,
                                       decoded_);
        sink_(decoded_.data(), decoded_.size());
        floats_out_ += decoded_.size();
        staging_.erase(staging_.begin(),
                       staging_.begin() + static_cast<std::ptrdiff_t>(block_payload_len_));
        state_ = State::kBlockHeader;
        need_ = 8;
        break;
      }
      case State::kTrailer: {
        const std::uint64_t declared = get_u64(staging_.data());
        if (declared != floats_out_)
          throw std::runtime_error("streaming decode: trailer declares " +
                                   std::to_string(declared) + " elems, decoded " +
                                   std::to_string(floats_out_));
        staging_.erase(staging_.begin(), staging_.begin() + 8);
        state_ = State::kDone;
        need_ = 1;  // any further byte is an error, caught in feed()
        if (!staging_.empty())
          throw std::runtime_error("streaming decode: trailing bytes after trailer");
        return;
      }
      case State::kDone:
        return;
    }
  }
}

void StreamingDecoder::finish() {
  if (state_ != State::kDone)
    throw std::runtime_error("streaming decode: truncated stream (ended mid-" +
                             std::string(state_ == State::kMagic || state_ == State::kHeader
                                             ? "header"
                                             : state_ == State::kTrailer ? "trailer" : "block") +
                             ", " + std::to_string(staging_.size()) + " bytes buffered)");
}

void StreamingDecoder::rebind(FloatSink sink) {
  if (!sink) throw std::invalid_argument("StreamingDecoder::rebind: null sink");
  sink_ = std::move(sink);
  reset();
}

void StreamingDecoder::reset() {
  codec_.reset();
  window_decoder_.reset();
  spec_.clear();
  window_elems_ = 0;
  state_ = State::kMagic;
  staging_.clear();
  need_ = 8;
  block_payload_len_ = 0;
  block_numel_ = 0;
  decoded_.clear();
  floats_out_ = 0;
}

// ---------------------------------------------------------------------------
// One-shot helpers

std::vector<std::uint8_t> streaming_encode_all(std::shared_ptr<ActivationCodec> codec,
                                               const std::string& spec, const float* data,
                                               std::size_t n, std::size_t window_elems) {
  std::vector<std::uint8_t> out;
  StreamingEncoder enc(std::move(codec), spec, window_elems,
                       [&out](const std::uint8_t* p, std::size_t len) {
                         out.insert(out.end(), p, p + len);
                       });
  enc.feed(data, n);
  enc.finish();
  return out;
}

std::vector<float> streaming_decode_all(const CodecFactory& factory,
                                        const std::uint8_t* bytes, std::size_t n) {
  std::vector<float> out;
  StreamingDecoder dec(factory,
                       [&out](const float* p, std::size_t len) { out.insert(out.end(), p, p + len); });
  dec.feed(bytes, n);
  dec.finish();
  return out;
}

}  // namespace ebct::nn
