// Unit tests for the statistics module: streaming moments, histograms,
// distribution-shape diagnostics, regression.

#include <gtest/gtest.h>

#include <vector>

#include "stats/distribution.hpp"
#include "stats/histogram.hpp"
#include "stats/linreg.hpp"
#include "stats/running_stats.hpp"
#include "tensor/rng.hpp"

namespace ebct::stats {
namespace {

TEST(RunningStats, MeanVarianceSimple) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, UniformSampleKurtosisNearMinus1p2) {
  tensor::Rng rng(21);
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(rng.uniform(-1.0, 1.0));
  EXPECT_NEAR(rs.excess_kurtosis(), -1.2, 0.05);
  EXPECT_NEAR(rs.skewness(), 0.0, 0.05);
  EXPECT_NEAR(rs.stddev(), 1.0 / std::sqrt(3.0), 0.01);
}

TEST(RunningStats, NormalSampleKurtosisNearZero) {
  tensor::Rng rng(22);
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(rng.normal(0.0, 2.0));
  EXPECT_NEAR(rs.excess_kurtosis(), 0.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.05);
}

TEST(RunningStats, MergeEqualsSequential) {
  tensor::Rng rng(23);
  RunningStats all, a, b;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.normal(1.0, 3.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_NEAR(a.excess_kurtosis(), all.excess_kurtosis(), 1e-6);
}

TEST(RunningStats, MergeWithEmptyIsNoop) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Histogram, BinsAndCounts) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.count(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(h.bin_count(i), 1u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.bin_width(), 1.0);
}

TEST(Histogram, OverUnderflowTracked) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(2.0);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, DensityIntegratesToOne) {
  tensor::Rng rng(24);
  Histogram h(-1.0, 1.0, 50);
  for (int i = 0; i < 10000; ++i) h.add(rng.uniform(-1.0, 1.0));
  double integral = 0.0;
  for (std::size_t i = 0; i < h.bins(); ++i) integral += h.density(i) * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, AsciiHasExpectedRows) {
  Histogram h(0.0, 1.0, 8);
  h.add(0.5);
  const std::string art = h.ascii(4);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 5);  // 4 rows + axis
}

TEST(Distribution, DiagnoseUniform) {
  tensor::Rng rng(27);
  std::vector<float> v(100000);
  rng.fill_uniform({v.data(), v.size()}, -0.01f, 0.01f);
  const auto d = diagnose({v.data(), v.size()});
  EXPECT_TRUE(looks_uniform(d, 0.01));
  EXPECT_FALSE(looks_normal(d));
}

TEST(Distribution, DiagnoseNormal) {
  tensor::Rng rng(28);
  std::vector<float> v(100000);
  rng.fill_normal({v.data(), v.size()}, 0.0f, 0.5f);
  const auto d = diagnose({v.data(), v.size()});
  EXPECT_TRUE(looks_normal(d));
  EXPECT_FALSE(looks_uniform(d, 0.5));
  EXPECT_NEAR(d.within_one_sigma, 0.682, 0.01);
}

TEST(Distribution, UniformStddevFormula) {
  EXPECT_NEAR(uniform_stddev(3.0), 3.0 / std::sqrt(3.0), 1e-12);
}

TEST(LinReg, ThroughOriginRecoversSlope) {
  std::vector<double> x, y;
  for (int i = 1; i <= 50; ++i) {
    x.push_back(i);
    y.push_back(0.32 * i);
  }
  const auto f = fit_through_origin(x, y);
  EXPECT_NEAR(f.slope, 0.32, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(LinReg, WithInterceptRecoversBoth) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + 5.0);
  }
  const auto f = fit_linear(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.intercept, 5.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(LinReg, NoisyFitStillClose) {
  tensor::Rng rng(29);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    const double xi = rng.uniform(0.0, 10.0);
    x.push_back(xi);
    y.push_back(0.32 * xi + rng.normal(0.0, 0.05));
  }
  const auto f = fit_through_origin(x, y);
  EXPECT_NEAR(f.slope, 0.32, 0.01);
  EXPECT_GT(f.r2, 0.95);
}

TEST(LinReg, DegenerateInputsSafe) {
  const auto f1 = fit_through_origin({}, {});
  EXPECT_DOUBLE_EQ(f1.slope, 0.0);
  std::vector<double> x(5, 1.0), y{1, 2, 3, 4, 5};
  const auto f2 = fit_linear(x, y);  // zero x-variance
  EXPECT_DOUBLE_EQ(f2.slope, 0.0);
}

}  // namespace
}  // namespace ebct::stats
