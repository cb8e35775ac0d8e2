#include "baselines/lossless.hpp"

#include <cstring>
#include <stdexcept>

#include "core/codec_registry.hpp"
#include "sz/bitstream.hpp"
#include "sz/huffman.hpp"
#include "sz/zero_runs.hpp"

namespace ebct::baselines {

using nn::EncodedActivation;
using tensor::Tensor;

namespace {

constexpr std::size_t kPlaneAlphabet = 256;  // one byte plane of a float

/// The whole transform, span-to-bytes — appended to `out`.
void encode_span(std::span<const float> data, std::vector<std::uint8_t>& out) {
  // Stream 1: alternating zero-run / nonzero-run lengths.
  sz::BitWriter rle;
  std::vector<float> packed;
  sz::split_zero_runs(data, rle, packed);
  auto rle_bytes = rle.finish();

  // Stream 2: per-byte-plane Huffman over the packed nonzero floats.
  std::vector<std::uint8_t> plane_payload;
  std::vector<std::uint64_t> plane_sizes;
  for (int plane = 0; plane < 4; ++plane) {
    std::vector<std::uint32_t> symbols(packed.size());
    for (std::size_t k = 0; k < packed.size(); ++k) {
      std::uint32_t bits;
      std::memcpy(&bits, &packed[k], 4);
      symbols[k] = (bits >> (8 * plane)) & 0xff;
    }
    std::vector<std::uint64_t> freqs(kPlaneAlphabet, 0);
    for (auto s : symbols) ++freqs[s];
    sz::HuffmanCodec codec;
    codec.build(freqs);
    auto table = codec.serialize_table();
    auto body = codec.encode(symbols);
    plane_sizes.push_back(table.size());
    plane_sizes.push_back(body.size());
    plane_payload.insert(plane_payload.end(), table.begin(), table.end());
    plane_payload.insert(plane_payload.end(), body.begin(), body.end());
  }

  // Layout: u64 numel, u64 packed_count, u64 rle_size, 8x u64 plane sizes,
  // rle bytes, plane payload.
  auto put_u64 = [&out](std::uint64_t v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    out.insert(out.end(), p, p + 8);
  };
  put_u64(data.size());
  put_u64(packed.size());
  put_u64(rle_bytes.size());
  for (auto s : plane_sizes) put_u64(s);
  out.insert(out.end(), rle_bytes.begin(), rle_bytes.end());
  out.insert(out.end(), plane_payload.begin(), plane_payload.end());
}

}  // namespace

void LosslessCodec::decode_span(std::span<const std::uint8_t> payload, std::span<float> out) {
  constexpr std::size_t kHeaderBytes = 8 * 11;  // numel, packed, rle_size, 8 plane sizes
  if (payload.size() < kHeaderBytes)
    throw std::runtime_error("lossless decode: payload shorter than header");
  const std::size_t numel = out.size();
  const std::uint8_t* p = payload.data();
  auto get_u64 = [&p]() {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  };
  const std::uint64_t declared_numel = get_u64();
  const std::uint64_t packed_count = get_u64();
  const std::uint64_t rle_size = get_u64();
  std::uint64_t plane_sizes[8];
  for (auto& s : plane_sizes) s = get_u64();
  if (declared_numel != numel)
    throw std::runtime_error("lossless decode: header declares " +
                             std::to_string(declared_numel) + " elems, expected " +
                             std::to_string(numel));
  if (packed_count > numel)
    throw std::runtime_error("lossless decode: packed count " +
                             std::to_string(packed_count) + " exceeds numel " +
                             std::to_string(numel));
  // Validate each declared size against the bytes actually left, never by
  // summing: the sizes are untrusted u64s and a sum can wrap past
  // the payload size.
  std::uint64_t remaining = payload.size() - kHeaderBytes;
  if (rle_size > remaining)
    throw std::runtime_error("lossless decode: payload truncated");
  remaining -= rle_size;
  for (auto s : plane_sizes) {
    if (s > remaining)
      throw std::runtime_error("lossless decode: payload truncated");
    remaining -= s;
  }

  std::span<const std::uint8_t> rle_bytes{p, static_cast<std::size_t>(rle_size)};
  p += rle_size;

  std::vector<std::uint32_t> planes[4];
  for (int plane = 0; plane < 4; ++plane) {
    const std::uint64_t table_size = plane_sizes[2 * plane];
    const std::uint64_t body_size = plane_sizes[2 * plane + 1];
    sz::HuffmanCodec codec;
    codec.deserialize_table({p, static_cast<std::size_t>(table_size)}, kPlaneAlphabet);
    p += table_size;
    planes[plane] = codec.decode({p, static_cast<std::size_t>(body_size)},
                                 static_cast<std::size_t>(packed_count));
    p += body_size;
  }

  std::vector<float> packed(packed_count);
  for (std::size_t k = 0; k < packed_count; ++k) {
    std::uint32_t bits = 0;
    for (int plane = 0; plane < 4; ++plane) {
      bits |= (planes[plane][k] & 0xffu) << (8 * plane);
    }
    std::memcpy(&packed[k], &bits, 4);
  }

  // Every element is written by a zero run or a nonzero run, or we throw.
  sz::join_zero_runs(rle_bytes, packed, out, "lossless decode");
}

EncodedActivation LosslessCodec::encode(const std::string& layer, const Tensor& act) {
  EncodedActivation enc;
  enc.layer = layer;
  enc.shape = act.shape();
  encode_span(act.span(), enc.bytes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_ratio_[layer] =
        static_cast<double>(act.bytes()) / static_cast<double>(enc.bytes.size());
  }
  return enc;
}

std::map<std::string, double> LosslessCodec::last_ratios() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_ratio_;
}

Tensor LosslessCodec::decode(const EncodedActivation& enc) {
  Tensor out(enc.shape);
  decode_span(enc.bytes, out.span());
  return out;
}

}  // namespace ebct::baselines

namespace ebct::core::detail {

void register_lossless_codec(CodecRegistry& reg) {
  reg.register_codec(
      {"lossless",
       "exact zero-RLE + byte-plane Huffman (~2x on sparse activations)", "", false},
      [](const std::string& params, const FrameworkConfig&) {
        CodecParams p("lossless", params);
        p.finish();  // takes no parameters
        return std::make_shared<baselines::LosslessCodec>();
      });
}

}  // namespace ebct::core::detail
