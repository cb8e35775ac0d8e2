// Core framework tests: the error-propagation model (Eqs. 6/7/9), gradient
// assessment (Eq. 8), error injection, the SZ codec and the adaptive scheme.

#include <gtest/gtest.h>

#include "core/adaptive.hpp"
#include "core/error_injection.hpp"
#include "core/error_model.hpp"
#include "core/gradient_assessor.hpp"
#include "core/sz_codec.hpp"
#include "memory/pager.hpp"
#include "nn/conv2d.hpp"
#include "nn/network.hpp"
#include "stats/distribution.hpp"
#include "util/test_util.hpp"

namespace ebct::core {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

LayerStatistics stats(double lbar, double density, double mbar, std::size_t n) {
  LayerStatistics s;
  s.loss_mean_abs = lbar;
  s.density = density;
  s.momentum_mean_abs = mbar;
  s.batch_size = n;
  return s;
}

TEST(ErrorModelTest, Eq6SigmaScalesLinearlyInBound) {
  ErrorModel m(0.32);
  const auto s = stats(0.1, 1.0, 0.0, 256);
  EXPECT_NEAR(m.predict_sigma(s, 2e-4) / m.predict_sigma(s, 1e-4), 2.0, 1e-12);
}

TEST(ErrorModelTest, Eq6SigmaScalesSqrtBatch) {
  ErrorModel m(0.32);
  const auto s1 = stats(0.1, 1.0, 0.0, 64);
  const auto s2 = stats(0.1, 1.0, 0.0, 256);
  EXPECT_NEAR(m.predict_sigma(s2, 1e-4) / m.predict_sigma(s1, 1e-4), 2.0, 1e-12);
}

TEST(ErrorModelTest, Eq7SqrtDensityCorrection) {
  ErrorModel m(0.32);
  const auto dense = stats(0.1, 1.0, 0.0, 256);
  const auto sparse = stats(0.1, 0.25, 0.0, 256);
  EXPECT_NEAR(m.predict_sigma(dense, 1e-4) / m.predict_sigma(sparse, 1e-4), 2.0, 1e-12);
}

TEST(ErrorModelTest, ExactValueMatchesFormula) {
  ErrorModel m(0.32);
  const auto s = stats(0.05, 0.5, 0.0, 128);
  const double expect = 0.32 * 0.05 * std::sqrt(128.0 * 0.5) * 1e-3;
  EXPECT_NEAR(m.predict_sigma(s, 1e-3), expect, 1e-15);
}

TEST(ErrorModelTest, Eq9InvertsEq6) {
  ErrorModel m(0.32);
  const auto s = stats(0.07, 0.6, 0.0, 256);
  const double eb = 3.7e-4;
  const double sigma = m.predict_sigma(s, eb);
  EXPECT_NEAR(m.solve_error_bound(s, sigma), eb, 1e-12);
}

TEST(ErrorModelTest, NoLossSignalGivesZeroBound) {
  ErrorModel m(0.32);
  EXPECT_EQ(m.solve_error_bound(stats(0.0, 1.0, 0.0, 256), 0.01), 0.0);
}

TEST(GradientAssessorTest, Eq8FractionOfMomentum) {
  GradientAssessor a(0.01);
  EXPECT_NEAR(a.target_sigma(stats(0, 1, 0.5, 0)), 0.005, 1e-15);
  GradientAssessor b(0.05);
  EXPECT_NEAR(b.target_sigma(stats(0, 1, 0.5, 0)), 0.025, 1e-15);
}

TEST(InjectUniformTest, BoundedAndZeroPreserving) {
  Rng rng(120);
  std::vector<float> v(10000);
  rng.fill_relu_like({v.data(), v.size()}, 0.5, 1.0f);
  std::vector<float> orig = v;
  Rng inj(121);
  inject_uniform({v.data(), v.size()}, 1e-2, inj, /*preserve_zeros=*/true);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (orig[i] == 0.0f)
      EXPECT_EQ(v[i], 0.0f);
    else
      EXPECT_NEAR(v[i], orig[i], 1e-2);
  }
}

TEST(InjectUniformTest, WithoutPreservationPerturbsZeros) {
  std::vector<float> v(1000, 0.0f);
  Rng inj(122);
  inject_uniform({v.data(), v.size()}, 1e-2, inj, /*preserve_zeros=*/false);
  std::size_t nonzero = 0;
  for (float x : v)
    if (x != 0.0f) ++nonzero;
  EXPECT_GT(nonzero, 900u);
}

TEST(InjectNormalTest, MatchesTargetSigma) {
  std::vector<float> v(200000, 0.0f);
  Rng inj(123);
  inject_normal({v.data(), v.size()}, 0.02, inj);
  const auto d = stats::diagnose({v.data(), v.size()});
  EXPECT_NEAR(d.stddev, 0.02, 0.001);
  EXPECT_TRUE(stats::looks_normal(d));
}

TEST(SzCodecTest, RoundtripWithinLayerBound) {
  sz::Config cfg;
  cfg.error_bound = 1e-3;
  SzActivationCodec codec(cfg);
  codec.set_layer_bound("conv1", 1e-2);
  Tensor t = testutil::relu_like_tensor(Shape::nchw(1, 4, 16, 16), 126, 0.5);
  const auto enc = codec.encode("conv1", t);
  Tensor back = codec.decode(enc);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_NEAR(back[i], t[i], 1e-2 * 1.001);
  EXPECT_NEAR(codec.last_ratios().at("conv1"),
              static_cast<double>(t.bytes()) / enc.bytes.size(), 1e-9);
}

TEST(SzCodecTest, PerLayerBoundsIndependent) {
  sz::Config cfg;
  cfg.error_bound = 1e-4;
  SzActivationCodec codec(cfg);
  codec.set_layer_bound("loose", 1e-2);
  EXPECT_DOUBLE_EQ(codec.layer_bound("loose"), 1e-2);
  EXPECT_DOUBLE_EQ(codec.layer_bound("unset"), 1e-4);  // falls back to base

  Tensor t = testutil::relu_like_tensor(Shape::nchw(1, 2, 32, 32), 127, 0.3);
  const auto loose = codec.encode("loose", t);
  const auto tight = codec.encode("unset", t);
  EXPECT_LT(loose.bytes.size(), tight.bytes.size());
}

// --- PagedStore's async-encode pipeline (double buffering on the
// --- work-stealing pool) must be observationally equivalent to the
// --- pager's synchronous encode path.

memory::PagerConfig async_pager_cfg(std::size_t window = 2) {
  memory::PagerConfig pc;
  pc.async_encode = true;
  pc.encode_window = window;
  return pc;
}

TEST(AsyncStoreTest, RoundtripMatchesSynchronousStore) {
  sz::Config cfg;
  cfg.error_bound = 1e-3;
  auto codec_sync = std::make_shared<SzActivationCodec>(cfg);
  auto codec_async = std::make_shared<SzActivationCodec>(cfg);
  memory::PagedStore sync(memory::PagerConfig{}, codec_sync);
  memory::PagedStore async(async_pager_cfg(), codec_async);

  std::vector<nn::StashHandle> hs, ha;
  for (int i = 0; i < 6; ++i) {
    Tensor t = testutil::relu_like_tensor(Shape::nchw(1, 4, 16, 16),
                                          900 + static_cast<std::uint64_t>(i), 0.5);
    const std::string layer = "conv" + std::to_string(i);
    hs.push_back(sync.stash(layer, t.clone()));
    ha.push_back(async.stash(layer, std::move(t)));
  }
  // Reverse (backward-pass) order, the demanding case for the pipeline.
  for (int i = 5; i >= 0; --i) {
    Tensor a = sync.retrieve(hs[static_cast<std::size_t>(i)]);
    Tensor b = async.retrieve(ha[static_cast<std::size_t>(i)]);
    ASSERT_EQ(a.numel(), b.numel());
    for (std::size_t k = 0; k < a.numel(); ++k) ASSERT_EQ(a[k], b[k]) << i;
  }
  EXPECT_EQ(async.held_bytes(), 0u);
}

TEST(AsyncStoreTest, StatsAggregateAfterDrain) {
  sz::Config cfg;
  cfg.error_bound = 1e-3;
  memory::PagedStore store(async_pager_cfg(), std::make_shared<SzActivationCodec>(cfg));
  const auto h1 = store.stash("a", testutil::relu_like_tensor(Shape::nchw(1, 8, 32, 32), 910, 0.5));
  const auto h2 = store.stash("a", testutil::relu_like_tensor(Shape::nchw(1, 8, 32, 32), 911, 0.5));
  store.drain();
  const auto c = store.pager().counters();
  // After drain every stash is encoded: held bytes are compressed bytes
  // only, and below the raw bytes of the two stashes.
  EXPECT_EQ(c.raw_bytes, 0u);
  EXPECT_EQ(c.compressed_bytes, store.held_bytes());
  EXPECT_GT(c.compressed_bytes, 0u);
  EXPECT_LT(c.compressed_bytes, 2u * 8 * 32 * 32 * sizeof(float));
  (void)store.retrieve(h1);
  (void)store.retrieve(h2);
  EXPECT_EQ(store.held_bytes(), 0u);
}

TEST(AsyncStoreTest, BackpressureBoundsPendingRawBytes) {
  // With encode window 1 at most one raw tensor awaits encode at a time, so
  // held_bytes never exceeds raw(2 tensors) + encoded(everything else).
  sz::Config cfg;
  cfg.error_bound = 1e-2;
  memory::PagedStore store(async_pager_cfg(1), std::make_shared<SzActivationCodec>(cfg));
  const std::size_t raw = 4 * 32 * 32 * sizeof(float);
  std::vector<nn::StashHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(store.stash(
        "l", testutil::relu_like_tensor(Shape::nchw(1, 4, 32, 32),
                                        920 + static_cast<std::uint64_t>(i), 0.5)));
    EXPECT_LE(store.held_bytes(), 2 * raw + 8 * raw / 2);  // generous compressed slack
  }
  store.drain();
  EXPECT_LT(store.held_bytes(), 8 * raw / 2);  // everything compressed now
  for (auto h : handles) (void)store.retrieve(h);
}

TEST(AsyncStoreTest, UnknownHandleThrows) {
  sz::Config cfg;
  memory::PagedStore store(async_pager_cfg(), std::make_shared<SzActivationCodec>(cfg));
  EXPECT_THROW(store.retrieve(12345), std::logic_error);
}

TEST(AdaptiveSchemeTest, ShouldUpdateEveryW) {
  sz::Config scfg_w;
  SzActivationCodec codec_w(scfg_w);
  FrameworkConfig cfg;
  cfg.active_factor_w = 100;
  AdaptiveScheme scheme(cfg, &codec_w);
  EXPECT_TRUE(scheme.should_update(0));
  EXPECT_FALSE(scheme.should_update(1));
  EXPECT_FALSE(scheme.should_update(99));
  EXPECT_TRUE(scheme.should_update(100));
  EXPECT_TRUE(scheme.should_update(500));
}

TEST(AdaptiveSchemeTest, CollectsStatsAndInstallsBounds) {
  Rng rng(128);
  nn::Network net("n");
  net.add(std::make_unique<nn::Conv2d>("conv1", nn::Conv2dSpec{1, 2, 3, 1, 1}, rng));

  // Give the conv layer a backward pass so it has L̄ / R statistics.
  Tensor x = testutil::relu_like_tensor(Shape::nchw(4, 1, 8, 8), 129, 0.5);
  Tensor y = net.forward(x, true);
  net.backward(Tensor(y.shape(), 0.01f));
  // Seed a momentum magnitude.
  auto params = net.params();
  params[0]->momentum.fill(0.1f);

  sz::Config scfg;
  SzActivationCodec codec(scfg);
  FrameworkConfig fcfg;
  AdaptiveScheme scheme(fcfg, &codec);
  scheme.update(net, 4);

  ASSERT_EQ(scheme.last_statistics().count("conv1"), 1u);
  const auto& s = scheme.last_statistics().at("conv1");
  EXPECT_NEAR(s.loss_mean_abs, 0.01, 1e-9);
  EXPECT_NEAR(s.density, 0.5, 0.15);
  EXPECT_NEAR(s.momentum_mean_abs, 0.1, 1e-6);
  EXPECT_EQ(s.batch_size, 4u);

  const double eb = scheme.last_bounds().at("conv1");
  EXPECT_GT(eb, fcfg.min_error_bound);
  EXPECT_LE(eb, fcfg.max_error_bound);
  EXPECT_DOUBLE_EQ(codec.layer_bound("conv1"), eb);

  // Consistency: the installed bound solves Eq. 9 for the collected stats.
  const double sigma_target = scheme.assessor().target_sigma(s);
  const double expect = scheme.error_model().solve_error_bound(s, sigma_target);
  EXPECT_NEAR(eb, std::clamp(expect, fcfg.min_error_bound, fcfg.max_error_bound), 1e-12);
}

TEST(AdaptiveSchemeTest, BootstrapWhenNoSignal) {
  Rng rng(130);
  nn::Network net("n");
  net.add(std::make_unique<nn::Conv2d>("conv1", nn::Conv2dSpec{1, 2, 3, 1, 1}, rng));
  sz::Config scfg;
  SzActivationCodec codec(scfg);
  FrameworkConfig fcfg;
  AdaptiveScheme scheme(fcfg, &codec);
  scheme.update(net, 4);  // no backward has run: L̄ = 0
  EXPECT_DOUBLE_EQ(scheme.last_bounds().at("conv1"), fcfg.bootstrap_error_bound);
}

TEST(AdaptiveSchemeTest, HigherMomentumLoosensBound) {
  // More momentum (larger gradients tolerated) => larger acceptable eb.
  ErrorModel m(0.32);
  GradientAssessor a(0.01);
  const auto lo = stats(0.1, 1.0, 0.01, 256);
  const auto hi = stats(0.1, 1.0, 0.10, 256);
  EXPECT_GT(m.solve_error_bound(hi, a.target_sigma(hi)),
            m.solve_error_bound(lo, a.target_sigma(lo)));
}

TEST(AdaptiveSchemeTest, LargerLossTightensBound) {
  ErrorModel m(0.32);
  GradientAssessor a(0.01);
  const auto small_loss = stats(0.01, 1.0, 0.05, 256);
  const auto large_loss = stats(1.0, 1.0, 0.05, 256);
  EXPECT_LT(m.solve_error_bound(large_loss, a.target_sigma(large_loss)),
            m.solve_error_bound(small_loss, a.target_sigma(small_loss)));
}

}  // namespace
}  // namespace ebct::core
