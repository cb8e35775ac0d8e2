#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/parallel.hpp"

namespace ebct::tensor {

// The gemm / gemm_at / gemm_bt entry points live in gemm.cpp (the blocked,
// packed, 2D-parallel engine); this file keeps the elementwise kernels,
// reductions and the im2col/col2im pair.

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  const std::size_t n = x.size();
  parallel_for(n, [&](std::size_t i) { y[i] += alpha * x[i]; });
}

void scale(float alpha, std::span<float> x) {
  parallel_for(x.size(), [&](std::size_t i) { x[i] *= alpha; });
}

double sum(std::span<const float> x) {
  return parallel_sum(x.size(), [&](std::size_t i) { return static_cast<double>(x[i]); });
}

double mean_abs(std::span<const float> x) {
  if (x.empty()) return 0.0;
  const double s =
      parallel_sum(x.size(), [&](std::size_t i) { return std::fabs(static_cast<double>(x[i])); });
  return s / static_cast<double>(x.size());
}

float max_abs(std::span<const float> x) {
  // Max is exact under any merge order, but parallel_reduce's fixed
  // partition keeps it under the library-wide thread-count-free contract.
  return parallel_reduce(
      x.size(), 0.0f,
      [&x](std::size_t lo, std::size_t hi, float& m) {
        for (std::size_t i = lo; i < hi; ++i) m = std::max(m, std::fabs(x[i]));
      },
      [](float& m, float p) { m = std::max(m, p); });
}

double nonzero_fraction(std::span<const float> x) {
  if (x.empty()) return 0.0;
  // An integer count is exact under any partition, and the compiler
  // vectorises the compare-and-add where a per-element double sum cannot.
  const std::size_t nz = parallel_reduce(
      x.size(), std::size_t{0},
      [&x](std::size_t lo, std::size_t hi, std::size_t& acc) {
        for (std::size_t i = lo; i < hi; ++i) acc += x[i] != 0.0f;
      },
      [](std::size_t& total, std::size_t p) { total += p; });
  return static_cast<double>(nz) / static_cast<double>(x.size());
}

void im2col(const float* img, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* cols, std::size_t pad_w, std::size_t ld) {
  if (pad_w == kSamePad) pad_w = pad;
  const std::size_t out_h = conv_out_dim(height, kh, stride, pad);
  const std::size_t out_w = conv_out_dim(width, kw, stride, pad_w);
  const std::size_t col_stride = ld != 0 ? ld : out_h * out_w;
  if (kh == 1 && kw == 1 && stride == 1 && pad == 0 && pad_w == 0) {
    // 1x1 unpadded stride-1: each channel plane is one row of the matrix.
    for (std::size_t c = 0; c < channels; ++c)
      std::memcpy(cols + c * col_stride, img + c * height * width,
                  height * width * sizeof(float));
    return;
  }
  // Row r of the column matrix corresponds to (c, ki, kj).
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ki = 0; ki < kh; ++ki) {
      for (std::size_t kj = 0; kj < kw; ++kj) {
        float* dst = cols + ((c * kh + ki) * kw + kj) * col_stride;
        // Stride-1 rows are a contiguous window of the source row: the valid
        // ox span [lo, hi) maps to src[ox + kj - pad_w], so the inner loop
        // collapses to zero-fill edges plus one memcpy.
        const std::ptrdiff_t shift =
            static_cast<std::ptrdiff_t>(kj) - static_cast<std::ptrdiff_t>(pad_w);
        // Both span ends clamp to [0, out_w]: a kernel tap can sit entirely
        // in the padding (kernel wider than width + pad), leaving no valid
        // span at all.
        const std::size_t lo = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
            -shift, 0, static_cast<std::ptrdiff_t>(out_w)));
        const std::size_t hi = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
            static_cast<std::ptrdiff_t>(width) - shift,
            static_cast<std::ptrdiff_t>(lo), static_cast<std::ptrdiff_t>(out_w)));
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ki) - static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(height)) {
            std::memset(dst + oy * out_w, 0, out_w * sizeof(float));
            continue;
          }
          const float* src = img + (c * height + static_cast<std::size_t>(iy)) * width;
          float* drow = dst + oy * out_w;
          if (stride == 1) {
            if (lo > 0) std::memset(drow, 0, lo * sizeof(float));
            if (hi > lo)
              std::memcpy(drow + lo, src + static_cast<std::ptrdiff_t>(lo) + shift,
                          (hi - lo) * sizeof(float));
            if (hi < out_w) std::memset(drow + hi, 0, (out_w - hi) * sizeof(float));
            continue;
          }
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kj) -
                static_cast<std::ptrdiff_t>(pad_w);
            drow[ox] = (ix >= 0 && ix < static_cast<std::ptrdiff_t>(width))
                           ? src[static_cast<std::size_t>(ix)]
                           : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* cols, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* img, std::size_t pad_w, std::size_t ld) {
  if (pad_w == kSamePad) pad_w = pad;
  const std::size_t out_h = conv_out_dim(height, kh, stride, pad);
  const std::size_t out_w = conv_out_dim(width, kw, stride, pad_w);
  const std::size_t col_stride = ld != 0 ? ld : out_h * out_w;
  if (kh == 1 && kw == 1 && stride == 1 && pad == 0 && pad_w == 0) {
    // Mirror of the im2col 1x1 path. `0.0f +` keeps the bytes of the
    // general path's zero-fill-then-add (it turns -0 into +0).
    const std::size_t hw = height * width;
    for (std::size_t c = 0; c < channels; ++c) {
      const float* src = cols + c * col_stride;
      float* dst = img + c * hw;
      for (std::size_t i = 0; i < hw; ++i) dst[i] = 0.0f + src[i];
    }
    return;
  }
  std::memset(img, 0, channels * height * width * sizeof(float));
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ki = 0; ki < kh; ++ki) {
      for (std::size_t kj = 0; kj < kw; ++kj) {
        const float* src = cols + ((c * kh + ki) * kw + kj) * col_stride;
        // Mirror of the im2col fast path: at stride 1 the valid ox span is
        // contiguous, so the scatter-add becomes one branch-free vector add.
        const std::ptrdiff_t shift =
            static_cast<std::ptrdiff_t>(kj) - static_cast<std::ptrdiff_t>(pad_w);
        const std::size_t lo = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
            -shift, 0, static_cast<std::ptrdiff_t>(out_w)));
        const std::size_t hi = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
            static_cast<std::ptrdiff_t>(width) - shift,
            static_cast<std::ptrdiff_t>(lo), static_cast<std::ptrdiff_t>(out_w)));
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride + ki) - static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(height)) continue;
          float* dstrow = img + (c * height + static_cast<std::size_t>(iy)) * width;
          if (stride == 1) {
            const std::size_t len = hi - lo;
            if (len == 0) continue;
            float* d = dstrow + static_cast<std::ptrdiff_t>(lo) + shift;
            const float* s = src + oy * out_w + lo;
#ifdef _OPENMP
#pragma omp simd
#endif
            for (std::size_t ox = 0; ox < len; ++ox) d[ox] += s[ox];
            continue;
          }
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride + kj) -
                static_cast<std::ptrdiff_t>(pad_w);
            if (ix >= 0 && ix < static_cast<std::ptrdiff_t>(width)) {
              dstrow[static_cast<std::size_t>(ix)] += src[oy * out_w + ox];
            }
          }
        }
      }
    }
  }
}

}  // namespace ebct::tensor
