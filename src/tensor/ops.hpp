#pragma once

/// \file ops.hpp
/// Dense linear-algebra and elementwise kernels used by the nn layers.
/// All kernels are OpenMP-parallel over the largest independent dimension.

#include <cstddef>
#include <span>

namespace ebct::tensor {

/// C[m,n] = A[m,k] * B[k,n] (+ C if accumulate). Row-major. Implemented by
/// the cache-blocked, packed-panel engine in gemm.cpp: 2D-parallel over
/// Mc x Nc tiles of C with a register-blocked micro-kernel, bitwise
/// deterministic at every thread count (see gemm.hpp for the geometry).
void gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
          std::size_t n, bool accumulate = false);

/// C[m,n] = A^T[k,m] * B[k,n] (+ C if accumulate). A is stored [k,m].
void gemm_at(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
             std::size_t n, bool accumulate = false);

/// C[m,n] = A[m,k] * B^T[n,k] (+ C if accumulate). B is stored [n,k].
void gemm_bt(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
             std::size_t n, bool accumulate = false);

/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha
void scale(float alpha, std::span<float> x);

/// Sum of all elements.
double sum(std::span<const float> x);

/// Mean of absolute values (used for momentum / gradient magnitude stats).
double mean_abs(std::span<const float> x);

/// Maximum of absolute values.
float max_abs(std::span<const float> x);

/// Fraction of non-zero elements (the paper's R, activation density).
double nonzero_fraction(std::span<const float> x);

/// Sentinel for "horizontal padding equals vertical padding".
inline constexpr std::size_t kSamePad = static_cast<std::size_t>(-1);

/// im2col: expand input [C,H,W] into columns [C*kh*kw, out_h*out_w] for
/// convolution-as-GEMM. One image at a time (the batch loop lives above).
/// `pad` pads vertically; `pad_w` horizontally (kSamePad = use `pad`).
/// `ld` is the row stride of `cols` (0 = out_h*out_w, a dense matrix); a
/// wider stride lets several images fill adjacent column blocks of one
/// [C*kh*kw, G*out_h*out_w] matrix, image g starting at cols + g*out_h*out_w.
void im2col(const float* img, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* cols, std::size_t pad_w = kSamePad,
            std::size_t ld = 0);

/// col2im: scatter-add the column matrix back into the image gradient
/// (which it overwrites). `ld` as for im2col.
void col2im(const float* cols, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kh, std::size_t kw, std::size_t stride,
            std::size_t pad, float* img, std::size_t pad_w = kSamePad,
            std::size_t ld = 0);

/// Output spatial size of a convolution/pool dimension.
inline std::size_t conv_out_dim(std::size_t in, std::size_t kernel, std::size_t stride,
                                std::size_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

}  // namespace ebct::tensor
