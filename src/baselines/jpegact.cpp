#include "baselines/jpegact.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/codec_registry.hpp"
#include "sz/bitstream.hpp"
#include "sz/huffman.hpp"
#include "tensor/ops.hpp"

namespace ebct::baselines {

using nn::EncodedActivation;
using tensor::Tensor;

namespace {

// Standard JPEG luminance quantization table (Annex K).
constexpr int kBaseQ[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

// Zigzag order of an 8x8 block.
constexpr int kZigzag[64] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

constexpr double kPi = 3.14159265358979323846;

void dct8x8(const float in[64], float out[64]) {
  // Separable 2-D DCT-II (orthonormal).
  float tmp[64];
  for (int u = 0; u < 8; ++u) {
    for (int x = 0; x < 8; ++x) {
      double acc = 0.0;
      for (int y = 0; y < 8; ++y)
        acc += in[x * 8 + y] * std::cos((2 * y + 1) * u * kPi / 16.0);
      tmp[x * 8 + u] = static_cast<float>(acc * (u == 0 ? std::sqrt(1.0 / 8.0)
                                                        : std::sqrt(2.0 / 8.0)));
    }
  }
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      double acc = 0.0;
      for (int x = 0; x < 8; ++x)
        acc += tmp[x * 8 + v] * std::cos((2 * x + 1) * u * kPi / 16.0);
      out[u * 8 + v] = static_cast<float>(acc * (u == 0 ? std::sqrt(1.0 / 8.0)
                                                        : std::sqrt(2.0 / 8.0)));
    }
  }
}

void idct8x8(const float in[64], float out[64]) {
  float tmp[64];
  for (int v = 0; v < 8; ++v) {
    for (int x = 0; x < 8; ++x) {
      double acc = 0.0;
      for (int u = 0; u < 8; ++u)
        acc += in[u * 8 + v] * (u == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0)) *
               std::cos((2 * x + 1) * u * kPi / 16.0);
      tmp[x * 8 + v] = static_cast<float>(acc);
    }
  }
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      double acc = 0.0;
      for (int v = 0; v < 8; ++v)
        acc += tmp[x * 8 + v] * (v == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0)) *
               std::cos((2 * y + 1) * v * kPi / 16.0);
      out[x * 8 + y] = static_cast<float>(acc);
    }
  }
}

constexpr std::uint32_t kRadius = 4096;  // coefficient symbol offset
constexpr std::uint32_t kAlphabet = 2 * kRadius;

}  // namespace

JpegActCodec::JpegActCodec(int quality) : quality_(std::clamp(quality, 1, 100)) {
  // libjpeg quality-to-scale mapping.
  const int scale = quality_ < 50 ? 5000 / quality_ : 200 - 2 * quality_;
  for (int i = 0; i < 64; ++i) {
    qtable_[i] = std::clamp((kBaseQ[i] * scale + 50) / 100, 1, 255);
  }
}

EncodedActivation JpegActCodec::encode(const std::string& layer, const Tensor& act) {
  EncodedActivation enc;
  enc.layer = layer;
  enc.shape = act.shape();
  const auto& s = act.shape();
  if (s.rank() != 4) throw std::invalid_argument("JpegActCodec: expected NCHW");
  const std::size_t planes = s.n() * s.c();
  const std::size_t H = s.h(), W = s.w();
  const std::size_t bh = (H + 7) / 8, bw = (W + 7) / 8;

  const float amax = tensor::max_abs(act.span());
  const float fwd_scale = amax > 0.0f ? 127.0f / amax : 1.0f;

  std::vector<std::uint32_t> symbols;
  symbols.reserve(planes * bh * bw * 64);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* plane = act.data() + p * H * W;
    for (std::size_t by = 0; by < bh; ++by) {
      for (std::size_t bx = 0; bx < bw; ++bx) {
        float block[64];
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            // Clamp-to-edge padding for partial border blocks.
            const std::size_t sy = std::min(H - 1, by * 8 + static_cast<std::size_t>(y));
            const std::size_t sx = std::min(W - 1, bx * 8 + static_cast<std::size_t>(x));
            block[y * 8 + x] = plane[sy * W + sx] * fwd_scale;
          }
        }
        float coef[64];
        dct8x8(block, coef);
        for (int i = 0; i < 64; ++i) {
          const int z = kZigzag[i];
          const int q = static_cast<int>(
              std::lround(coef[z] / static_cast<float>(qtable_[z])));
          const int clamped =
              std::clamp(q, -static_cast<int>(kRadius) + 1, static_cast<int>(kRadius) - 1);
          symbols.push_back(static_cast<std::uint32_t>(clamped + static_cast<int>(kRadius)));
        }
      }
    }
  }

  std::vector<std::uint64_t> freqs(kAlphabet, 0);
  for (auto sym : symbols) ++freqs[sym];
  sz::HuffmanCodec codec;
  codec.build(freqs);
  const auto table = codec.serialize_table();
  const auto body = codec.encode(symbols);

  auto put_u64 = [&enc](std::uint64_t v) {
    const auto* q = reinterpret_cast<const std::uint8_t*>(&v);
    enc.bytes.insert(enc.bytes.end(), q, q + 8);
  };
  put_u64(symbols.size());
  put_u64(table.size());
  put_u64(body.size());
  std::uint64_t scale_bits = 0;
  static_assert(sizeof(float) == 4);
  std::memcpy(&scale_bits, &fwd_scale, 4);
  put_u64(scale_bits);
  enc.bytes.insert(enc.bytes.end(), table.begin(), table.end());
  enc.bytes.insert(enc.bytes.end(), body.begin(), body.end());
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_ratio_[layer] =
        static_cast<double>(act.bytes()) / static_cast<double>(enc.bytes.size());
  }
  return enc;
}

std::map<std::string, double> JpegActCodec::last_ratios() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_ratio_;
}

Tensor JpegActCodec::decode(const EncodedActivation& enc) {
  const std::uint8_t* p = enc.bytes.data();
  auto get_u64 = [&p]() {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  };
  const std::uint64_t num_symbols = get_u64();
  const std::uint64_t table_size = get_u64();
  const std::uint64_t body_size = get_u64();
  const std::uint64_t scale_bits = get_u64();
  float fwd_scale;
  std::memcpy(&fwd_scale, &scale_bits, 4);
  const float inv_scale = fwd_scale > 0.0f ? 1.0f / fwd_scale : 1.0f;

  sz::HuffmanCodec codec;
  codec.deserialize_table({p, static_cast<std::size_t>(table_size)}, kAlphabet);
  p += table_size;
  const auto symbols =
      codec.decode({p, static_cast<std::size_t>(body_size)},
                   static_cast<std::size_t>(num_symbols));

  const auto& s = enc.shape;
  Tensor out(s);
  const std::size_t planes = s.n() * s.c();
  const std::size_t H = s.h(), W = s.w();
  const std::size_t bh = (H + 7) / 8, bw = (W + 7) / 8;
  std::size_t si = 0;
  for (std::size_t pl = 0; pl < planes; ++pl) {
    float* plane = out.data() + pl * H * W;
    for (std::size_t by = 0; by < bh; ++by) {
      for (std::size_t bx = 0; bx < bw; ++bx) {
        float coef[64];
        for (int i = 0; i < 64; ++i) {
          const int z = kZigzag[i];
          const int q = static_cast<int>(symbols[si++]) - static_cast<int>(kRadius);
          coef[z] = static_cast<float>(q * qtable_[z]);
        }
        float block[64];
        idct8x8(coef, block);
        for (int y = 0; y < 8; ++y) {
          const std::size_t sy = by * 8 + static_cast<std::size_t>(y);
          if (sy >= H) continue;
          for (int x = 0; x < 8; ++x) {
            const std::size_t sx = bx * 8 + static_cast<std::size_t>(x);
            if (sx >= W) continue;
            plane[sy * W + sx] = block[y * 8 + x] * inv_scale;
          }
        }
      }
    }
  }
  return out;
}

}  // namespace ebct::baselines

namespace ebct::core::detail {

void register_jpegact_codec(CodecRegistry& reg) {
  reg.register_codec(
      {"jpeg-act",
       "JPEG-ACT DCT codec (Evans et al., ISCA'20) — NOT error-bounded",
       "quality=<1..100>", false},
      [](const std::string& params, const FrameworkConfig&) {
        CodecParams p("jpeg-act", params);
        const std::uint32_t quality = p.get_uint("quality", 50);
        if (quality < 1 || quality > 100) {
          throw std::invalid_argument("jpeg-act: quality must be in [1, 100]");
        }
        p.finish();
        return std::make_shared<baselines::JpegActCodec>(static_cast<int>(quality));
      });
}

}  // namespace ebct::core::detail
