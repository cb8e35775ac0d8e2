// Unit tests for the tensor substrate: Shape, Tensor, Rng.

#include <gtest/gtest.h>

#include <set>

#include "tensor/rng.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace ebct::tensor {
namespace {

TEST(Shape, DefaultIsRankZeroScalar) {
  Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 1u);
}

TEST(Shape, NchwAccessors) {
  Shape s = Shape::nchw(2, 3, 4, 5);
  EXPECT_EQ(s.n(), 2u);
  EXPECT_EQ(s.c(), 3u);
  EXPECT_EQ(s.h(), 4u);
  EXPECT_EQ(s.w(), 5u);
  EXPECT_EQ(s.numel(), 120u);
}

TEST(Shape, OffsetIsRowMajor) {
  Shape s = Shape::nchw(2, 3, 4, 5);
  EXPECT_EQ(s.offset(0, 0, 0, 0), 0u);
  EXPECT_EQ(s.offset(0, 0, 0, 1), 1u);
  EXPECT_EQ(s.offset(0, 0, 1, 0), 5u);
  EXPECT_EQ(s.offset(0, 1, 0, 0), 20u);
  EXPECT_EQ(s.offset(1, 0, 0, 0), 60u);
  EXPECT_EQ(s.offset(1, 2, 3, 4), 119u);
}

TEST(Shape, EqualityComparesRankAndDims) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(Shape, DimOutOfRangeThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s.dim(2), std::out_of_range);
}

TEST(Shape, RankAboveFourThrows) {
  EXPECT_THROW(Shape({1, 2, 3, 4, 5}), std::invalid_argument);
}

TEST(Shape, ToStringFormatsDims) { EXPECT_EQ(Shape({2, 3}).to_string(), "[2, 3]"); }

TEST(Shape, ZeroDimGivesZeroNumel) { EXPECT_EQ(Shape({4, 0, 3}).numel(), 0u); }

TEST(Tensor, ConstructZeroInitialised) {
  Tensor t(Shape{4, 4});
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t(Shape{3}, 2.5f);
  EXPECT_EQ(t[0], 2.5f);
  EXPECT_EQ(t[2], 2.5f);
}

TEST(Tensor, CloneIsDeep) {
  Tensor a(Shape{2}, 1.0f);
  Tensor b = a.clone();
  b[0] = 9.0f;
  EXPECT_EQ(a[0], 1.0f);
}

TEST(Tensor, MoveTransfersOwnership) {
  Tensor a(Shape{8}, 3.0f);
  Tensor b = std::move(a);
  EXPECT_EQ(b.numel(), 8u);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b[7], 3.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape{2, 6});
  t[7] = 1.0f;
  t.reshape(Shape{3, 4});
  EXPECT_EQ(t.shape(), Shape({3, 4}));
  EXPECT_EQ(t[7], 1.0f);
}

TEST(Tensor, ReshapeNumelMismatchThrows) {
  Tensor t(Shape{2, 6});
  EXPECT_THROW(t.reshape(Shape{5}), std::invalid_argument);
}

TEST(Tensor, AtMatchesOffset) {
  Tensor t(Shape::nchw(2, 2, 2, 2));
  t.at(1, 1, 1, 1) = 5.0f;
  EXPECT_EQ(t[15], 5.0f);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearCenter) {
  Rng rng(4);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(1.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ReluLikeFillRespectsSparsity) {
  Rng rng(6);
  std::vector<float> v(50000);
  rng.fill_relu_like({v.data(), v.size()}, 0.6, 1.0f);
  std::size_t zeros = 0;
  for (float x : v) {
    EXPECT_GE(x, 0.0f);
    if (x == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / v.size(), 0.6, 0.02);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(8);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(std::span<int>(v));
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, UniformIndexBounded) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(17), 17u);
  EXPECT_EQ(rng.uniform_index(0), 0u);
}

}  // namespace
}  // namespace ebct::tensor
