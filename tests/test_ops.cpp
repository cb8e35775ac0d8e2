// Unit tests for the linear-algebra kernels: GEMM family vs naive reference,
// im2col/col2im adjointness, reductions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include <vector>

#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace ebct::tensor {
namespace {

void naive_gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += double(a[i * k + kk]) * b[kk * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
}

struct GemmCase {
  std::size_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(11);
  std::vector<float> a(m * k), b(k * n), c(m * n), ref(m * n);
  rng.fill_uniform({a.data(), a.size()}, -1, 1);
  rng.fill_uniform({b.data(), b.size()}, -1, 1);
  gemm(a.data(), b.data(), c.data(), m, k, n);
  naive_gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3) << i;
}

TEST_P(GemmTest, TransposedAMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(12);
  std::vector<float> at(k * m), b(k * n), c(m * n), ref(m * n);
  rng.fill_uniform({at.data(), at.size()}, -1, 1);
  rng.fill_uniform({b.data(), b.size()}, -1, 1);
  // Build A from A^T then compare against naive on A.
  std::vector<float> a(m * k);
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t i = 0; i < m; ++i) a[i * k + kk] = at[kk * m + i];
  gemm_at(at.data(), b.data(), c.data(), m, k, n);
  naive_gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3) << i;
}

TEST_P(GemmTest, TransposedBMatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(13);
  std::vector<float> a(m * k), bt(n * k), c(m * n), ref(m * n);
  rng.fill_uniform({a.data(), a.size()}, -1, 1);
  rng.fill_uniform({bt.data(), bt.size()}, -1, 1);
  std::vector<float> b(k * n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t kk = 0; kk < k; ++kk) b[kk * n + j] = bt[j * k + kk];
  gemm_bt(a.data(), bt.data(), c.data(), m, k, n);
  naive_gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-3) << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmTest,
                         ::testing::Values(GemmCase{1, 1, 1}, GemmCase{3, 5, 7},
                                           GemmCase{16, 16, 16}, GemmCase{33, 65, 17},
                                           GemmCase{128, 300, 64}, GemmCase{1, 512, 1}));

TEST(Gemm, AccumulateAddsToExisting) {
  std::vector<float> a{1, 2, 3, 4}, b{1, 0, 0, 1}, c{10, 10, 10, 10};
  gemm(a.data(), b.data(), c.data(), 2, 2, 2, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(Axpy, AddsScaled) {
  std::vector<float> x{1, 2, 3}, y{10, 20, 30};
  axpy(2.0f, {x.data(), 3}, {y.data(), 3});
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[2], 36.0f);
}

TEST(Reductions, SumMeanAbsMaxAbsNonzero) {
  std::vector<float> v{-1.0f, 0.0f, 2.0f, -3.0f};
  EXPECT_DOUBLE_EQ(sum({v.data(), v.size()}), -2.0);
  EXPECT_DOUBLE_EQ(mean_abs({v.data(), v.size()}), 1.5);
  EXPECT_FLOAT_EQ(max_abs({v.data(), v.size()}), 3.0f);
  EXPECT_DOUBLE_EQ(nonzero_fraction({v.data(), v.size()}), 0.75);
}

TEST(Reductions, EmptySpansAreZero) {
  EXPECT_DOUBLE_EQ(mean_abs({}), 0.0);
  EXPECT_DOUBLE_EQ(nonzero_fraction({}), 0.0);
}

TEST(ConvOutDim, StandardCases) {
  EXPECT_EQ(conv_out_dim(224, 11, 4, 2), 55u);  // AlexNet conv1
  EXPECT_EQ(conv_out_dim(32, 3, 1, 1), 32u);    // same-padding 3x3
  EXPECT_EQ(conv_out_dim(56, 3, 2, 1), 28u);    // stride-2 downsample
  EXPECT_EQ(conv_out_dim(8, 2, 2, 0), 4u);      // 2x2 pool
}

TEST(Im2col, IdentityKernelReproducesImage) {
  // 1x1 kernel, stride 1, no pad: cols == image.
  Rng rng(14);
  std::vector<float> img(3 * 5 * 5), cols(3 * 5 * 5);
  rng.fill_uniform({img.data(), img.size()}, -1, 1);
  im2col(img.data(), 3, 5, 5, 1, 1, 1, 0, cols.data());
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_FLOAT_EQ(cols[i], img[i]);
}

TEST(Im2col, PaddingProducesZeros) {
  std::vector<float> img(1 * 2 * 2, 1.0f);
  const std::size_t oh = conv_out_dim(2, 3, 1, 1);
  std::vector<float> cols(1 * 3 * 3 * oh * oh);
  im2col(img.data(), 1, 2, 2, 3, 3, 1, 1, cols.data());
  // Top-left kernel tap at output (0,0) reads the padded corner.
  EXPECT_FLOAT_EQ(cols[0], 0.0f);
}

TEST(Im2col, WideKernelOnNarrowImageMatchesReference) {
  // Kernel wider than width + pad leaves some taps entirely in the padding
  // (regression: the stride-1 fast path must clamp its copy span to out_w
  // instead of writing past the exactly-sized column buffer).
  Rng rng(16);
  const std::size_t C = 1, H = 4, W = 2, KH = 1, KW = 7, S = 1, P = 0, PW = 3;
  const std::size_t oh = conv_out_dim(H, KH, S, P), ow = conv_out_dim(W, KW, S, PW);
  ASSERT_GT(ow, 0u);
  std::vector<float> img(C * H * W);
  rng.fill_uniform({img.data(), img.size()}, -1, 1);
  // Sentinel tail after the logical buffer: the original overflow wrote
  // zeros past the end, which value checks alone cannot see.
  const std::size_t cols_size = C * KH * KW * oh * ow;
  std::vector<float> cols(cols_size + 16, -7.0f);
  im2col(img.data(), C, H, W, KH, KW, S, P, cols.data(), PW);
  for (std::size_t i = cols_size; i < cols.size(); ++i)
    ASSERT_FLOAT_EQ(cols[i], -7.0f) << "overflow at +" << (i - cols_size);
  // Bounds-checked per-element reference.
  for (std::size_t kj = 0; kj < KW; ++kj)
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox + kj) -
                                  static_cast<std::ptrdiff_t>(PW);
        const float want = (ix >= 0 && ix < static_cast<std::ptrdiff_t>(W))
                               ? img[oy * W + static_cast<std::size_t>(ix)]
                               : 0.0f;
        EXPECT_FLOAT_EQ(cols[(kj * oh + oy) * ow + ox], want) << kj << "," << oy << "," << ox;
      }
}

TEST(Im2colCol2im, WideKernelAdjointIdentity) {
  // Same degenerate geometry through the col2im scatter fast path.
  Rng rng(17);
  const std::size_t C = 2, H = 3, W = 2, KH = 3, KW = 7, S = 1, P = 1, PW = 3;
  const std::size_t oh = conv_out_dim(H, KH, S, P), ow = conv_out_dim(W, KW, S, PW);
  const std::size_t cols_size = C * KH * KW * oh * ow;
  std::vector<float> x(C * H * W), y(cols_size), cx(cols_size), iy(C * H * W);
  rng.fill_uniform({x.data(), x.size()}, -1, 1);
  rng.fill_uniform({y.data(), y.size()}, -1, 1);
  im2col(x.data(), C, H, W, KH, KW, S, P, cx.data(), PW);
  col2im(y.data(), C, H, W, KH, KW, S, P, iy.data(), PW);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols_size; ++i) lhs += double(cx[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += double(x[i]) * iy[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2colCol2im, AdjointIdentity) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
  // property that makes conv backward correct.
  Rng rng(15);
  const std::size_t C = 2, H = 6, W = 7, K = 3, S = 2, P = 1;
  const std::size_t oh = conv_out_dim(H, K, S, P), ow = conv_out_dim(W, K, S, P);
  const std::size_t cols_size = C * K * K * oh * ow;
  std::vector<float> x(C * H * W), y(cols_size), cx(cols_size), iy(C * H * W);
  rng.fill_uniform({x.data(), x.size()}, -1, 1);
  rng.fill_uniform({y.data(), y.size()}, -1, 1);
  im2col(x.data(), C, H, W, K, K, S, P, cx.data());
  col2im(y.data(), C, H, W, K, K, S, P, iy.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols_size; ++i) lhs += double(cx[i]) * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += double(x[i]) * iy[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2colCol2im, LeadingDimensionPlacesImagesSideBySide) {
  // With ld = G*oh*ow, image g's columns are the g-th block of each row of
  // one wide matrix, byte for byte the dense per-image matrix; col2im reads
  // them back the same way. Covers a 3x3 stride-2 conv and the 1x1 plane
  // copy (whose col2im turns -0 into +0 like the zero-fill-then-add path).
  struct Geo {
    std::size_t k, s, p;
  };
  for (const Geo g : {Geo{3, 2, 1}, Geo{1, 1, 0}}) {
    Rng rng(18);
    const std::size_t C = 3, H = 5, W = 4, G = 3;
    const std::size_t oh = conv_out_dim(H, g.k, g.s, g.p), ow = conv_out_dim(W, g.k, g.s, g.p);
    const std::size_t ohow = oh * ow, rows = C * g.k * g.k, ld = G * ohow;
    std::vector<float> imgs(G * C * H * W), wide(rows * ld), dense(rows * ohow);
    rng.fill_uniform({imgs.data(), imgs.size()}, -1, 1);
    imgs[0] = -0.0f;
    for (std::size_t i = 0; i < G; ++i)
      im2col(imgs.data() + i * C * H * W, C, H, W, g.k, g.k, g.s, g.p, wide.data() + i * ohow,
             kSamePad, ld);
    for (std::size_t i = 0; i < G; ++i) {
      im2col(imgs.data() + i * C * H * W, C, H, W, g.k, g.k, g.s, g.p, dense.data());
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(0, std::memcmp(&wide[r * ld + i * ohow], &dense[r * ohow],
                                 ohow * sizeof(float)))
            << "k " << g.k << " image " << i << " row " << r;
      std::vector<float> back_wide(C * H * W), back_dense(C * H * W);
      col2im(wide.data() + i * ohow, C, H, W, g.k, g.k, g.s, g.p, back_wide.data(), kSamePad,
             ld);
      col2im(dense.data(), C, H, W, g.k, g.k, g.s, g.p, back_dense.data());
      ASSERT_EQ(0, std::memcmp(back_wide.data(), back_dense.data(),
                               back_dense.size() * sizeof(float)))
          << "k " << g.k << " image " << i;
    }
    if (g.k == 1) {  // 1x1: col2im is a copy, with -0 normalised to +0
      std::vector<float> back(C * H * W);
      col2im(wide.data(), C, H, W, 1, 1, 1, 0, back.data(), kSamePad, ld);
      EXPECT_FALSE(std::signbit(back[0]));
      for (std::size_t i = 1; i < back.size(); ++i) ASSERT_EQ(back[i], imgs[i]);
    }
  }
}

}  // namespace
}  // namespace ebct::tensor
