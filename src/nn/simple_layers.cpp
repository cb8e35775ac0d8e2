#include "nn/simple_layers.hpp"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "tensor/parallel.hpp"

namespace ebct::nn {

using tensor::Tensor;

namespace {
inline void set_bit(std::vector<std::uint64_t>& mask, std::size_t i, bool v) {
  if (v)
    mask[i >> 6] |= (1ULL << (i & 63));
  else
    mask[i >> 6] &= ~(1ULL << (i & 63));
}
inline bool get_bit(const std::vector<std::uint64_t>& mask, std::size_t i) {
  return (mask[i >> 6] >> (i & 63)) & 1ULL;
}
/// Elements per mask word; one parallel ReLU iteration handles one word.
constexpr std::size_t kWord = 64;

/// ReLU of `len` <= 64 elements; returns their sign mask, bit i for element
/// i. Full words take four lanes at a time (a compare gives the output
/// select and, via movemask, four mask bits); the result is the same bytes
/// as the scalar loop.
std::uint64_t relu_word(const float* in, float* out, std::size_t len) {
  std::uint64_t bits = 0;
  std::size_t i = 0;
#if defined(__SSE2__)
  if (len == kWord) {
    const __m128 zero = _mm_setzero_ps();
    for (; i < kWord; i += 4) {
      const __m128 x = _mm_loadu_ps(in + i);
      const __m128 pos = _mm_cmpgt_ps(x, zero);
      _mm_storeu_ps(out + i, _mm_and_ps(x, pos));
      bits |= static_cast<std::uint64_t>(_mm_movemask_ps(pos)) << i;
    }
  }
#endif
  for (; i < len; ++i) {
    const bool pos = in[i] > 0.0f;
    out[i] = pos ? in[i] : 0.0f;
    bits |= static_cast<std::uint64_t>(pos) << i;
  }
  return bits;
}

/// Gradient of `len` <= 64 elements through their sign mask.
void relu_grad_word(std::uint64_t bits, const float* go, float* out, std::size_t len) {
  std::size_t i = 0;
#if defined(__SSE2__)
  if (len == kWord) {
    const __m128i lane = _mm_setr_epi32(1, 2, 4, 8);
    for (; i < kWord; i += 4) {
      const __m128i nibble = _mm_set1_epi32(static_cast<int>((bits >> i) & 0xF));
      const __m128 keep =
          _mm_castsi128_ps(_mm_cmpeq_epi32(_mm_and_si128(nibble, lane), lane));
      _mm_storeu_ps(out + i, _mm_and_ps(_mm_loadu_ps(go + i), keep));
    }
  }
#endif
  for (; i < len; ++i) out[i] = (bits >> i) & 1u ? go[i] : 0.0f;
}
}  // namespace

Tensor ReLU::forward(const Tensor& input, bool /*train*/) {
  shape_ = input.shape();
  const std::size_t numel = input.numel();
  mask_.resize((numel + kWord - 1) / kWord);
  Tensor out(input.shape());
  const float* in = input.data();
  float* dst = out.data();
  // Each word of the mask is built in a register from its 64 elements, so
  // words are independent and the loop parallelises with no shared writes.
  tensor::parallel_for(mask_.size(), kWord, [&](std::size_t w) {
    const std::size_t lo = w * kWord;
    mask_[w] = relu_word(in + lo, dst + lo, std::min(kWord, numel - lo));
  });
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  Tensor grad(shape_);
  const std::size_t numel = grad.numel();
  const float* go = grad_output.data();
  float* dst = grad.data();
  tensor::parallel_for(mask_.size(), kWord, [&](std::size_t w) {
    const std::size_t lo = w * kWord;
    relu_grad_word(mask_[w], go + lo, dst + lo, std::min(kWord, numel - lo));
  });
  return grad;
}

Tensor Flatten::forward(const Tensor& input, bool /*train*/) {
  shape_ = input.shape();
  Tensor out = input.clone();
  out.reshape(output_shape(shape_));
  return out;
}

Tensor Flatten::backward(const Tensor& grad_output) {
  Tensor grad = grad_output.clone();
  grad.reshape(shape_);
  return grad;
}

Tensor Dropout::forward(const Tensor& input, bool train) {
  train_mode_ = train;
  if (!train) return input.clone();
  mask_.assign((input.numel() + 63) / 64, 0);
  Tensor out(input.shape());
  const float scale = static_cast<float>(1.0 / (1.0 - p_));
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const bool keep = rng_.uniform() >= p_;
    set_bit(mask_, i, keep);
    out[i] = keep ? input[i] * scale : 0.0f;
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (!train_mode_) return grad_output.clone();
  Tensor grad(grad_output.shape());
  const float scale = static_cast<float>(1.0 / (1.0 - p_));
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    grad[i] = get_bit(mask_, i) ? grad_output[i] * scale : 0.0f;
  }
  return grad;
}

}  // namespace ebct::nn
