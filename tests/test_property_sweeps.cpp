// Property-style parameterised sweeps: broad cross-products of configuration
// space asserting the library's core invariants —
//   * the compressor's error-bound contract across zero-mode/
//     radius/block-size/data-shape combinations,
//   * conv gradient correctness across kernel/stride/pad/rect geometries,
//   * training runs for every (model x activation store) pair,
//   * lossless roundtrips across sparsity and size.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "baselines/lossless.hpp"
#include "core/session.hpp"
#include "core/sz_codec.hpp"
#include "models/model_zoo.hpp"
#include "nn/conv2d.hpp"
#include "sz/compressor.hpp"
#include "sz/metrics.hpp"
#include "util/test_util.hpp"

namespace ebct {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

// --- Compressor contract sweep ---------------------------------------------------

struct CompressorCase {
  double eb;
  sz::ZeroMode zero_mode;
  std::uint32_t radius;
  std::uint32_t block_size;
  double sparsity;
  float scale;
  std::size_t n;
  int pool = 0;  ///< pool size for the case; 0 keeps the machine's
};

class CompressorContract : public ::testing::TestWithParam<CompressorCase> {};

TEST_P(CompressorContract, BoundHoldsAndRoundtrips) {
  const auto& c = GetParam();
  Rng rng(7000 + static_cast<std::uint64_t>(c.n));
  std::vector<float> data(c.n);
  rng.fill_relu_like({data.data(), c.n}, c.sparsity, c.scale);
  sz::Config cfg;
  cfg.error_bound = c.eb;
  cfg.zero_mode = c.zero_mode;
  cfg.radius = c.radius;
  cfg.block_size = c.block_size;
  const testutil::ScopedPoolSize pool(c.pool > 0 ? c.pool : tensor::sched::num_threads());
  sz::Compressor comp(cfg);
  const auto buf = comp.compress({data.data(), c.n});
  EXPECT_EQ(buf.num_elements, c.n);
  const auto recon = comp.decompress(buf);
  ASSERT_EQ(recon.size(), c.n);
  // Every mode meets the strict bound: the re-zero filter only reaches
  // escaped values, which lie under eb.
  EXPECT_TRUE(sz::within_bound({data.data(), c.n}, {recon.data(), c.n}, c.eb, 0.0))
      << "max err " << sz::max_abs_error({data.data(), c.n}, {recon.data(), c.n});
  if (c.zero_mode != sz::ZeroMode::kNone) {
    for (std::size_t i = 0; i < c.n; ++i) {
      if (data[i] == 0.0f) {
        ASSERT_EQ(recon[i], 0.0f) << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompressorContract,
    ::testing::Values(
        CompressorCase{1e-2, sz::ZeroMode::kNone, 32768, 65536, 0.5, 1.0f, 40000},
        CompressorCase{1e-3, sz::ZeroMode::kRezero, 32768, 65536, 0.5, 1.0f, 40000},
        CompressorCase{1e-3, sz::ZeroMode::kRezero, 256, 65536, 0.5, 1.0f, 40000},
        CompressorCase{1e-5, sz::ZeroMode::kNone, 32768, 512, 0.0, 0.01f, 20000},
        CompressorCase{1e-1, sz::ZeroMode::kRezero, 32768, 65536, 0.9, 10.0f, 20000},
        CompressorCase{1e-3, sz::ZeroMode::kNone, 32768, 65536, 0.5, 1e4f, 20000},
        CompressorCase{1e-6, sz::ZeroMode::kRezero, 32768, 65536, 0.5, 1.0f, 10000},
        CompressorCase{1e-3, sz::ZeroMode::kNone, 32768, 65536, 0.5, 1.0f, 1},
        // Same contract through the block-parallel path at fixed and
        // oversubscribed pool sizes.
        CompressorCase{1e-3, sz::ZeroMode::kRezero, 32768, 4096, 0.5, 1.0f, 120000, 2},
        CompressorCase{1e-4, sz::ZeroMode::kRezero, 32768, 4096, 0.7, 1.0f, 120000, 8},
        CompressorCase{1e-3, sz::ZeroMode::kNone, 256, 1024, 0.3, 10.0f, 60000, 4}));

// Randomized shapes/bounds: the error-bound contract must hold and the bytes
// at pool sizes 2 and 8 must match the one-thread pool for every drawn config.
TEST(CompressorRandomized, ContractAndDeterminismUnderRandomConfigs) {
  Rng rng(7777);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(150000);
    const double eb = std::pow(10.0, -1.0 - 5.0 * rng.uniform());
    const double sparsity = rng.uniform();
    const float scale = static_cast<float>(std::pow(10.0, 2.0 * rng.uniform() - 1.0));
    const std::uint32_t block_size = static_cast<std::uint32_t>(64 + rng.uniform_index(32768));
    const auto zero_mode = static_cast<sz::ZeroMode>(rng.uniform_index(2));

    std::vector<float> data(n);
    rng.fill_relu_like({data.data(), n}, sparsity, scale);
    sz::Config cfg;
    cfg.error_bound = eb;
    cfg.zero_mode = zero_mode;
    cfg.block_size = block_size;
    const sz::Compressor comp(cfg);
    sz::CompressedBuffer serial_buf;
    {
      const testutil::ScopedPoolSize serial(1);
      serial_buf = comp.compress({data.data(), n});
    }
    for (const int pool_size : {2, 8}) {
      const testutil::ScopedPoolSize pool(pool_size);
      const auto buf = comp.compress({data.data(), n});
      const auto recon = comp.decompress(buf);
      ASSERT_EQ(recon.size(), n);
      ASSERT_TRUE(sz::within_bound({data.data(), n}, {recon.data(), n}, eb, 0.0))
          << "trial " << trial << " n=" << n << " eb=" << eb << " pool=" << pool_size
          << " max err " << sz::max_abs_error({data.data(), n}, {recon.data(), n});
      ASSERT_EQ(buf.bytes, serial_buf.bytes)
          << "trial " << trial << ": pool " << pool_size
          << " bytes diverge from the one-thread pool";
    }
  }
}

// --- Conv geometry gradient sweep ------------------------------------------------

struct ConvCase {
  std::size_t in_c, out_c, kh, kw, stride, pad, pad_w, hw;
};

class ConvGeometry : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometry, InputAndWeightGradientsCorrect) {
  const auto& c = GetParam();
  Rng rng(7100);
  nn::Conv2dSpec spec;
  spec.in_channels = c.in_c;
  spec.out_channels = c.out_c;
  spec.kernel = c.kh;
  spec.kernel_w = c.kw;
  spec.stride = c.stride;
  spec.pad = c.pad;
  spec.pad_w = c.pad_w;
  spec.bias = true;
  nn::Conv2d conv("c", spec, rng);
  nn::RawStore store;
  conv.set_store(&store);
  const Shape in_shape = Shape::nchw(2, c.in_c, c.hw, c.hw);
  auto make = [&] { return testutil::random_tensor(in_shape, 7101); };
  EXPECT_LT(testutil::check_input_gradient(conv, make, 1e-3, 32), 2e-2);
  conv.weight().grad.zero();
  EXPECT_LT(testutil::check_param_gradient(conv, conv.weight(), make, 1e-3, 24), 2e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometry,
    ::testing::Values(ConvCase{1, 1, 1, 0, 1, 0, nn::Conv2dSpec::kNoOverride, 5},
                      ConvCase{2, 3, 3, 0, 1, 1, nn::Conv2dSpec::kNoOverride, 6},
                      ConvCase{3, 2, 5, 0, 2, 2, nn::Conv2dSpec::kNoOverride, 9},
                      ConvCase{2, 2, 3, 0, 2, 0, nn::Conv2dSpec::kNoOverride, 7},
                      ConvCase{2, 2, 1, 7, 1, 0, 3, 8},   // 1x7 (Inception-B)
                      ConvCase{2, 2, 7, 1, 1, 3, 0, 8},   // 7x1
                      ConvCase{2, 2, 1, 3, 1, 0, 1, 6},   // 1x3 (Inception-C)
                      ConvCase{4, 4, 3, 0, 1, 1, nn::Conv2dSpec::kNoOverride, 4}));

// --- Model x store training matrix ------------------------------------------------

struct MatrixCase {
  const char* model;
  const char* codec;  ///< registry spec, or "none" for the raw baseline
};

class ModelStoreMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ModelStoreMatrix, FiveIterationsFiniteLoss) {
  const auto& c = GetParam();
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 3;
  mcfg.width_multiplier = 0.125;
  auto net = models::find_model(c.model)(mcfg);
  data::SyntheticSpec dspec;
  dspec.num_classes = 3;
  dspec.image_hw = 16;
  dspec.train_per_class = 24;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 8, true, true);
  core::SessionConfig cfg;
  cfg.framework.codec = c.codec;
  cfg.framework.active_factor_w = 3;
  cfg.base_lr = 0.01;
  core::TrainingSession session(*net, loader, cfg);
  session.run(5);
  for (const auto& rec : session.history()) {
    ASSERT_TRUE(std::isfinite(rec.loss)) << c.model;
  }
  if (std::string(c.codec) != "none") {
    EXPECT_GT(session.history().back().mean_compression_ratio, 1.0) << c.model;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ModelStoreMatrix,
    ::testing::Values(MatrixCase{"AlexNet", "none"},
                      MatrixCase{"AlexNet", "sz"},
                      MatrixCase{"VGG-16", "none"},
                      MatrixCase{"VGG-16", "sz"},
                      MatrixCase{"ResNet-18", "none"},
                      MatrixCase{"ResNet-18", "sz"},
                      MatrixCase{"ResNet-50", "none"},
                      MatrixCase{"ResNet-50", "sz"},
                      MatrixCase{"Inception-V4", "none"},
                      MatrixCase{"Inception-V4", "sz"}));

// --- Lossless roundtrip sweep -----------------------------------------------------

class LosslessSweep : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(LosslessSweep, ExactAcrossSparsityAndSize) {
  const auto [sparsity, n] = GetParam();
  baselines::LosslessCodec codec;
  Tensor t(Shape{n});
  Rng rng(7200 + n);
  rng.fill_relu_like(t.span(), sparsity, 1.0f);
  const auto enc = codec.encode("sweep", t);
  Tensor back = codec.decode(enc);
  ASSERT_EQ(back.numel(), n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(back[i], t[i]);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LosslessSweep,
                         ::testing::Combine(::testing::Values(0.0, 0.5, 0.95),
                                            ::testing::Values<std::size_t>(64, 4096,
                                                                           100000)));

}  // namespace
}  // namespace ebct
