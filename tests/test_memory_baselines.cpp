// Memory accounting and comparison-baseline tests: breakdown arithmetic,
// max-batch solver, lossless/JPEG-ACT codecs, strategy planner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "baselines/jpegact.hpp"
#include "baselines/lossless.hpp"
#include "baselines/strategies.hpp"
#include "memory/accounting.hpp"
#include "memory/report.hpp"
#include "models/model_zoo.hpp"
#include "sz/compressor.hpp"
#include "sz/metrics.hpp"
#include "util/test_util.hpp"

namespace ebct {
namespace {

using tensor::Shape;
using tensor::Tensor;

models::ModelConfig small_cfg() {
  models::ModelConfig cfg;
  cfg.input_hw = 32;
  cfg.num_classes = 10;
  cfg.width_multiplier = 0.25;
  return cfg;
}

TEST(MemoryAccounting, BreakdownComponentsPositive) {
  auto net = models::make_resnet18(small_cfg());
  const auto b = memory::analyze(*net, 32, 8);
  EXPECT_GT(b.weight_bytes, 0u);
  EXPECT_EQ(b.optimizer_state_bytes, 2 * b.weight_bytes);
  EXPECT_GT(b.stashed_activation_bytes, 0u);
  EXPECT_GT(b.workspace_bytes, 0u);
  EXPECT_FALSE(b.layers.empty());
}

TEST(MemoryAccounting, ActivationsScaleLinearlyWithBatch) {
  auto net = models::make_resnet18(small_cfg());
  const auto b1 = memory::analyze(*net, 32, 1);
  const auto b8 = memory::analyze(*net, 32, 8);
  EXPECT_EQ(b8.stashed_activation_bytes, 8 * b1.stashed_activation_bytes);
  EXPECT_EQ(b8.weight_bytes, b1.weight_bytes);  // batch-independent
}

TEST(MemoryAccounting, CompressionReducesPeak) {
  auto net = models::make_vgg16(small_cfg());
  const auto b = memory::analyze(*net, 32, 16);
  EXPECT_LT(b.peak_bytes(11.0), b.peak_bytes(1.0));
  EXPECT_GT(b.peak_bytes(11.0), b.weight_bytes);  // floors at non-stash parts
}

TEST(MemoryAccounting, MaxBatchGrowsWithCompression) {
  auto net = models::make_resnet18(small_cfg());
  const memory::DeviceModel dev{"toy", 256ull << 20};
  const std::size_t base = memory::max_batch(*net, 32, dev, 1.0);
  const std::size_t comp = memory::max_batch(*net, 32, dev, 11.0);
  EXPECT_GT(base, 0u);
  EXPECT_GT(comp, base);
}

TEST(MemoryAccounting, ExpandingRatioRaisesPeakAndShrinksBatch) {
  // A ratio below 1 is a codec that expands the stash: it must cost memory,
  // not read as the raw baseline.
  auto net = models::make_resnet18(small_cfg());
  const auto b = memory::analyze(*net, 32, 16);
  EXPECT_GT(b.peak_bytes(0.5), b.peak_bytes(1.0));
  const memory::DeviceModel dev{"toy", 256ull << 20};
  EXPECT_LT(memory::max_batch(*net, 32, dev, 0.5), memory::max_batch(*net, 32, dev, 1.0));
}

TEST(MemoryAccounting, NonPositiveOrNanRatioThrows) {
  auto net = models::make_resnet18(small_cfg());
  const auto b = memory::analyze(*net, 32, 1);
  const memory::DeviceModel dev{"toy", 256ull << 20};
  for (const double r : {0.0, -1.0, std::nan("")}) {
    EXPECT_THROW((void)b.peak_bytes(r), std::invalid_argument) << r;
    EXPECT_THROW((void)memory::max_batch(*net, 32, dev, r), std::invalid_argument) << r;
  }
  // Finite but tiny: the stash no longer fits in size_t, and no batch fits.
  EXPECT_THROW((void)b.peak_bytes(1e-300), std::overflow_error);
  EXPECT_EQ(memory::max_batch(*net, 32, dev, 1e-300), 0u);
}

TEST(MemoryAccounting, MaxBatchRespectsCapacity) {
  auto net = models::make_resnet18(small_cfg());
  const memory::DeviceModel dev{"toy", 64ull << 20};
  const std::size_t n = memory::max_batch(*net, 32, dev, 1.0);
  const auto b1 = memory::analyze(*net, 32, 1);
  const std::size_t fixed = b1.weight_bytes + b1.optimizer_state_bytes;
  const std::size_t peak_n =
      fixed + n * (b1.workspace_bytes + b1.stashed_activation_bytes);
  EXPECT_LE(peak_n, dev.capacity_bytes);
  const std::size_t peak_n1 =
      fixed + (n + 1) * (b1.workspace_bytes + b1.stashed_activation_bytes);
  EXPECT_GT(peak_n1, dev.capacity_bytes);
}

TEST(MemoryAccounting, TooSmallDeviceGivesZero) {
  auto net = models::make_resnet50(small_cfg());
  const memory::DeviceModel dev{"nano", 1ull << 10};
  EXPECT_EQ(memory::max_batch(*net, 32, dev, 1.0), 0u);
}

TEST(MemoryAccounting, HumanBytesFormats) {
  EXPECT_EQ(memory::human_bytes(512), "512.00 B");
  EXPECT_EQ(memory::human_bytes(2048), "2.00 KB");
  EXPECT_EQ(memory::human_bytes(13ull << 30), "13.00 GB");
}

TEST(ReportTable, PrintsAllRows) {
  memory::Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  // Smoke: printing to a memory stream must not crash and must include rows.
  std::string path = ::testing::TempDir() + "/table.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  t.print(f);
  std::fclose(f);
  f = std::fopen(path.c_str(), "r");
  char buf[256];
  std::string all;
  while (std::fgets(buf, sizeof(buf), f)) all += buf;
  std::fclose(f);
  EXPECT_NE(all.find("333"), std::string::npos);
  EXPECT_NE(all.find("bb"), std::string::npos);
}

TEST(LosslessCodecTest, ExactRoundtrip) {
  baselines::LosslessCodec codec;
  Tensor t = testutil::relu_like_tensor(Shape::nchw(2, 3, 16, 16), 140, 0.55);
  const auto enc = codec.encode("l", t);
  Tensor back = codec.decode(enc);
  ASSERT_EQ(back.shape(), t.shape());
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back[i], t[i]) << i;
}

TEST(LosslessCodecTest, RatioInPaperRegime) {
  // The paper cites <=2x for lossless on float activations; sparse
  // activations compress a bit better thanks to zero RLE.
  baselines::LosslessCodec codec;
  Tensor t = testutil::relu_like_tensor(Shape::nchw(4, 8, 32, 32), 141, 0.5);
  const auto enc = codec.encode("l", t);
  const double ratio = static_cast<double>(t.bytes()) / enc.bytes.size();
  EXPECT_GT(ratio, 1.2);
  EXPECT_LT(ratio, 4.0);
}

TEST(LosslessCodecTest, DenseRandomDataBarelyCompresses) {
  baselines::LosslessCodec codec;
  Tensor t = testutil::random_tensor(Shape::nchw(1, 4, 32, 32), 142);
  const auto enc = codec.encode("l", t);
  const double ratio = static_cast<double>(t.bytes()) / enc.bytes.size();
  EXPECT_LT(ratio, 1.6);  // mantissa randomness dominates
  Tensor back = codec.decode(enc);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(back[i], t[i]);
}

TEST(LosslessCodecTest, MaliciousHeaderFieldsRejectedBeforeAnyReadOrAlloc) {
  // decode_span parses untrusted bytes (reachable from EBCS containers sent
  // to the ebct_serve decode path): huge u64 header fields must be rejected
  // by comparing against the bytes actually remaining — a summed total can
  // wrap below payload_len and pass a naive truncation check, after which
  // the span arithmetic reads far out of bounds.
  baselines::LosslessCodec codec;
  Tensor t = testutil::relu_like_tensor(Shape::nchw(1, 1, 8, 8), 143, 0.5);
  const auto enc = codec.encode("l", t);
  ASSERT_GE(enc.bytes.size(), 88u);  // 11-field u64 header
  std::vector<float> out(t.numel());

  // Overwrite u64 header field `field` (0 numel, 1 packed_count, 2 rle_size,
  // 3..10 plane table/body sizes) and expect a loud reject.
  const auto with_field = [&enc](std::size_t field, std::uint64_t v) {
    std::vector<std::uint8_t> bytes = enc.bytes;
    std::memcpy(bytes.data() + 8 * field, &v, 8);
    return bytes;
  };
  const auto expect_reject = [&out, &t](const std::vector<std::uint8_t>& bytes) {
    EXPECT_THROW(
        baselines::LosslessCodec::decode_span(bytes, out),
        std::runtime_error);
  };

  // rle_size near 2^64: kHeaderBytes + rle_size wraps below payload_len.
  expect_reject(with_field(2, ~std::uint64_t{0} - 32));
  // A plane size near 2^64 wraps the sum the same way.
  expect_reject(with_field(5, ~std::uint64_t{0} - 1024));
  // Two sizes whose sum wraps while each is individually < payload_len.
  {
    std::vector<std::uint8_t> bytes = enc.bytes;
    const std::uint64_t half = std::uint64_t{1} << 63;
    std::memcpy(bytes.data() + 8 * 3, &half, 8);
    std::memcpy(bytes.data() + 8 * 4, &half, 8);
    expect_reject(bytes);
  }
  // packed_count beyond numel must be rejected before sizing any allocation
  // by it (a multi-terabyte vector from a few-KB payload otherwise).
  expect_reject(with_field(1, std::uint64_t{1} << 40));

  // Honest truncation is still caught.
  expect_reject({enc.bytes.begin(), enc.bytes.end() - 1});
  // And the untouched payload still round-trips.
  baselines::LosslessCodec::decode_span(enc.bytes, out);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(out[i], t[i]);
}

TEST(LosslessCodecTest, RunStreamOfEmptyPairsIsRejected) {
  // An exhausted or forged zero-run stream reads as (0, 0) run pairs, which
  // advance no element: decode must throw instead of looping forever.
  baselines::LosslessCodec codec;
  auto enc = codec.encode("z", Tensor(Shape::nchw(1, 1, 8, 8)));  // all zeros
  std::uint64_t rle_size = 0;
  std::memcpy(&rle_size, enc.bytes.data() + 16, 8);  // u64 header field 2
  ASSERT_GT(rle_size, 0u);
  ASSERT_GE(enc.bytes.size(), 88 + rle_size);
  std::fill(enc.bytes.begin() + 88, enc.bytes.begin() + 88 + static_cast<std::ptrdiff_t>(rle_size),
            std::uint8_t{0});
  EXPECT_THROW(codec.decode(enc), std::runtime_error);
}

TEST(JpegActCodecTest, RoundtripApproximate) {
  baselines::JpegActCodec codec(75);
  Tensor t(Shape::nchw(1, 2, 16, 16));
  // Smooth activation-like planes compress well under DCT.
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t y = 0; y < 16; ++y)
      for (std::size_t x = 0; x < 16; ++x)
        t.at(0, c, y, x) = static_cast<float>(
            std::max(0.0, std::sin(0.3 * x + c) * std::cos(0.2 * y)));
  const auto enc = codec.encode("j", t);
  Tensor back = codec.decode(enc);
  // Bounded relative distortion (NOT error-bounded — that's the point).
  const double p = sz::psnr(t.span(), back.span());
  EXPECT_GT(p, 20.0);
}

TEST(JpegActCodecTest, HigherQualityLowerRatioLowerError) {
  Tensor t(Shape::nchw(1, 4, 32, 32));
  tensor::Rng rng(143);
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(std::max(0.0, rng.normal(0.2, 0.4)));
  baselines::JpegActCodec lo(20), hi(90);
  const auto enc_lo = lo.encode("j", t);
  const auto enc_hi = hi.encode("j", t);
  EXPECT_LT(enc_lo.bytes.size(), enc_hi.bytes.size());
  const double psnr_lo = sz::psnr(t.span(), lo.decode(enc_lo).span());
  const double psnr_hi = sz::psnr(t.span(), hi.decode(enc_hi).span());
  EXPECT_GT(psnr_hi, psnr_lo);
}

TEST(JpegActCodecTest, ErrorIsNotBounded) {
  // Construct a plane with a sharp spike: DCT quantization smears it, so
  // some element's error exceeds a tight bound — the paper's §2.1 critique.
  Tensor t(Shape::nchw(1, 1, 16, 16), 0.0f);
  t.at(0, 0, 7, 7) = 1.0f;
  baselines::JpegActCodec codec(10);
  Tensor back = codec.decode(codec.encode("j", t));
  const double maxerr = sz::max_abs_error(t.span(), back.span());
  EXPECT_GT(maxerr, 1e-3);
}

TEST(JpegActCodecTest, NonNchwThrows) {
  baselines::JpegActCodec codec;
  Tensor t(Shape{64});
  EXPECT_THROW(codec.encode("j", t), std::invalid_argument);
}

TEST(Strategies, ComparisonRanksMemory) {
  auto net = models::make_resnet18(small_cfg());
  const memory::DeviceModel dev{"toy", 512ull << 20};
  const auto rows = baselines::compare_strategies(*net, 32, dev, 11.0, 0.17, 0.5);
  ASSERT_EQ(rows.size(), 6u);
  const auto& baseline = rows[0];
  const auto& lossless = rows[1];
  const auto& jpegact = rows[2];
  const auto& ebct = rows[3];
  EXPECT_GT(baseline.peak_bytes, lossless.peak_bytes);
  EXPECT_GT(lossless.peak_bytes, jpegact.peak_bytes);
  EXPECT_GT(jpegact.peak_bytes, ebct.peak_bytes);
  EXPECT_LE(baseline.max_batch, ebct.max_batch);
}

TEST(Strategies, MigrationOverheadFromBandwidth) {
  baselines::MigrationModel m{10.0e9, 0.0};
  // 1 GB stash, 10 GB/s, x2 transfers = 0.2 s.
  EXPECT_NEAR(m.transfer_seconds(1ull << 30), 2.0 * double(1ull << 30) / 10.0e9, 1e-9);
  baselines::MigrationModel half{10.0e9, 0.5};
  EXPECT_NEAR(half.transfer_seconds(1ull << 30), 1.0 * double(1ull << 30) / 10.0e9, 1e-9);
}

TEST(Strategies, RecomputeReducesStash) {
  baselines::RecomputeModel r;
  EXPECT_LT(r.remaining_stash(1000), 1000u);
}

}  // namespace
}  // namespace ebct
