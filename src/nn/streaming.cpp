#include "nn/streaming.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/bytes.hpp"
#include "tensor/shape.hpp"

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

std::size_t clamp_window(std::size_t w) {
  if (w == 0) return kDefaultWindowElems;
  return std::clamp(w, kMinWindowElems, kMaxWindowElems);
}

/// Largest block payload a window of `w` floats may declare.
std::size_t max_block_bytes(std::size_t w) {
  return 4 * w * sizeof(float) + (std::size_t{1} << 20);
}

}  // namespace

// ---------------------------------------------------------------------------
// StreamingEncoder

StreamingEncoder::StreamingEncoder(std::shared_ptr<ActivationCodec> codec,
                                   std::string spec, std::size_t window_elems,
                                   ByteSink sink) {
  rebind(std::move(codec), std::move(spec), window_elems, std::move(sink));
}

void StreamingEncoder::rebind(std::shared_ptr<ActivationCodec> codec, std::string spec,
                              std::size_t window_elems, ByteSink sink) {
  if (!codec) throw std::invalid_argument("StreamingEncoder: null codec");
  if (!sink) throw std::invalid_argument("StreamingEncoder: null sink");
  if (spec.size() > 0xffff) throw std::invalid_argument("StreamingEncoder: spec too long");
  codec_ = std::move(codec);
  spec_ = std::move(spec);
  sink_ = std::move(sink);
  const std::size_t w = clamp_window(window_elems);
  if (w != window_elems_) {
    window_ = tensor::Tensor(tensor::Shape::nchw(1, 1, 1, w));
    window_elems_ = w;
  }
  staged_ = 0;
  byte_carry_len_ = 0;
  header_emitted_ = false;
  finished_ = false;
  floats_in_ = 0;
  bytes_out_ = 0;
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
  if (staged_ == 0) return;
  EncodedActivation enc;
  if (staged_ == window_elems_) {
    enc = codec_->encode(kStreamLayer, window_);
  } else {
    tensor::Tensor tail(tensor::Shape::nchw(1, 1, 1, staged_));
    std::memcpy(tail.data(), window_.data(), staged_ * sizeof(float));
    enc = codec_->encode(kStreamLayer, tail);
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(8);
  put_u32(frame, static_cast<std::uint32_t>(enc.bytes.size()));
  put_u32(frame, static_cast<std::uint32_t>(staged_));
  sink_bytes(frame.data(), frame.size());
  sink_bytes(enc.bytes.data(), enc.bytes.size());
  staged_ = 0;
}

void StreamingEncoder::stage(const void* floats, std::size_t n) {
  if (finished_) throw std::logic_error("StreamingEncoder::feed after finish");
  if (!header_emitted_) emit_header();
  floats_in_ += n;
  // memcpy, not float loads: feed_bytes passes pipe buffers that need not
  // be float-aligned.
  const auto* src = static_cast<const std::uint8_t*>(floats);
  while (n > 0) {
    const std::size_t take = std::min(n, window_elems_ - staged_);
    std::memcpy(window_.data() + staged_, src, take * sizeof(float));
    src += take * sizeof(float);
    n -= take;
    staged_ += take;
    if (staged_ == window_elems_) flush_window();
  }
}

void StreamingEncoder::feed(const float* data, std::size_t n) { stage(data, n); }

void StreamingEncoder::feed_bytes(const std::uint8_t* bytes, std::size_t n) {
  // Complete a split float left over from the previous call first.
  if (byte_carry_len_ > 0) {
    while (byte_carry_len_ < 4 && n > 0) {
      byte_carry_[byte_carry_len_++] = *bytes++;
      --n;
    }
    if (byte_carry_len_ == 4) {
      stage(byte_carry_, 1);
      byte_carry_len_ = 0;
    }
  }
  const std::size_t whole = n / 4;
  if (whole > 0) stage(bytes, whole);
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

// ---------------------------------------------------------------------------
// StreamingDecoder

StreamingDecoder::StreamingDecoder(CodecFactory factory, FloatSink sink)
    : factory_(std::move(factory)) {
  if (!factory_) throw std::invalid_argument("StreamingDecoder: null codec factory");
  rebind(std::move(sink));
}

void StreamingDecoder::rebind(FloatSink sink) {
  if (!sink) throw std::invalid_argument("StreamingDecoder: null sink");
  sink_ = std::move(sink);
  codec_.reset();
  spec_.clear();
  window_elems_ = 0;
  state_ = State::kMagic;
  staging_.clear();
  need_ = 8;
  block_.bytes.clear();
  block_.layer = kStreamLayer;
  floats_out_ = 0;
}

std::size_t StreamingDecoder::resident_cap_bytes() const {
  const std::size_t w = window_elems_ > 0 ? window_elems_ : kDefaultWindowElems;
  return max_block_bytes(w) + w * sizeof(float);
}

void StreamingDecoder::feed(const std::uint8_t* bytes, std::size_t n) {
  // Each state gathers exactly need_ bytes — a block's payload straight
  // into block_.bytes, every other field into staging_ — and step()
  // consumes them whole, so each input byte is copied once and nothing is
  // ever shifted.
  while (state_ != State::kDone) {
    std::vector<std::uint8_t>& buf = state_ == State::kBlockPayload ? block_.bytes : staging_;
    const std::size_t take = std::min(n, need_ - buf.size());
    tensor::append_bytes(buf, bytes, take);
    bytes += take;
    n -= take;
    if (buf.size() < need_) return;
    step(buf);
  }
  if (n > 0) throw std::runtime_error("streaming decode: trailing bytes after trailer");
}

void StreamingDecoder::step(const std::vector<std::uint8_t>& buf) {
  switch (state_) {
    case State::kMagic: {
      // magic + version + reserved + spec_len
      if (std::memcmp(buf.data(), kMagic, 4) != 0)
        throw std::runtime_error("streaming decode: bad magic (not an EBCS stream)");
      if (buf[4] != kVersion)
        throw std::runtime_error("streaming decode: unsupported EBCS version " +
                                 std::to_string(buf[4]));
      state_ = State::kHeader;
      need_ = std::size_t{get_u16(buf.data() + 6)} + 4;  // spec bytes + window_elems
      break;
    }
    case State::kHeader: {
      const std::size_t spec_len = need_ - 4;
      spec_.assign(reinterpret_cast<const char*>(buf.data()), spec_len);
      window_elems_ = get_u32(buf.data() + spec_len);
      if (window_elems_ < kMinWindowElems || window_elems_ > kMaxWindowElems)
        throw std::runtime_error("streaming decode: window_elems " +
                                 std::to_string(window_elems_) + " out of range");
      codec_ = factory_(spec_);
      if (!codec_)
        throw std::runtime_error("streaming decode: unknown codec spec '" + spec_ + "'");
      state_ = State::kBlockHeader;
      need_ = 8;
      break;
    }
    case State::kBlockHeader: {
      const std::uint32_t payload_len = get_u32(buf.data());
      const std::uint32_t numel = get_u32(buf.data() + 4);
      if (payload_len == 0 && numel == 0) {  // terminator; the u64 trailer follows
        state_ = State::kTrailer;
        need_ = 8;
        break;
      }
      if (numel == 0 || numel > window_elems_)
        throw std::runtime_error("streaming decode: block numel " + std::to_string(numel) +
                                 " exceeds window " + std::to_string(window_elems_));
      if (payload_len > max_block_bytes(window_elems_))
        throw std::runtime_error("streaming decode: block payload " +
                                 std::to_string(payload_len) + " bytes exceeds cap " +
                                 std::to_string(max_block_bytes(window_elems_)));
      block_.shape = tensor::Shape::nchw(1, 1, 1, numel);
      block_.bytes.clear();
      state_ = State::kBlockPayload;
      need_ = payload_len;
      break;
    }
    case State::kBlockPayload: {
      const tensor::Tensor t = codec_->decode(block_);
      if (t.numel() != block_.shape.numel())
        throw std::runtime_error("streaming decode: codec returned " +
                                 std::to_string(t.numel()) + " elems, block declared " +
                                 std::to_string(block_.shape.numel()));
      sink_(t.data(), t.numel());
      floats_out_ += t.numel();
      block_.bytes.clear();
      state_ = State::kBlockHeader;
      need_ = 8;
      break;
    }
    case State::kTrailer: {
      const std::uint64_t declared = get_u64(buf.data());
      if (declared != floats_out_)
        throw std::runtime_error("streaming decode: trailer declares " +
                                 std::to_string(declared) + " elems, decoded " +
                                 std::to_string(floats_out_));
      state_ = State::kDone;
      break;
    }
    case State::kDone:
      break;
  }
  staging_.clear();
}

void StreamingDecoder::finish() {
  if (state_ != State::kDone)
    throw std::runtime_error(
        "streaming decode: truncated stream (ended mid-" +
        std::string(state_ == State::kMagic || state_ == State::kHeader ? "header"
                    : state_ == State::kTrailer                         ? "trailer"
                                                                        : "block") +
        ", " +
        std::to_string(state_ == State::kBlockPayload ? block_.bytes.size() : staging_.size()) +
        " bytes buffered)");
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
