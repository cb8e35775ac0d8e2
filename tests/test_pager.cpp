// Tiered activation pager tests: the put/drop handle API, budget
// enforcement with lifetime-ordered eviction to the disk tier, checksummed
// fail-loud reload of corrupt/truncated spill payloads, spill-file
// teardown, and the headline contract — training is byte-identical at any
// scheduler pool size crossed with any budget (unlimited, tight enough to
// force disk spill, and pathologically small).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "core/sz_codec.hpp"
#include "memory/pager.hpp"
#include "models/model_zoo.hpp"
#include "tensor/parallel.hpp"
#include "tensor/sched.hpp"
#include "util/test_util.hpp"

namespace ebct::memory {
namespace {

using tensor::Shape;
using tensor::Tensor;

constexpr std::size_t kPage = 64 * 1024;  ///< bytes of one 16k-float test page

Tensor page_tensor(std::uint64_t seed) {
  return testutil::random_tensor(Shape{kPage / sizeof(float)}, seed);
}

void expect_identical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << i;
}

TEST(PagerTest, ExactPutDropRoundtripsBytes) {
  ActivationPager pager({}, nullptr);
  Tensor t = page_tensor(1);
  Tensor orig = t.clone();
  const PageId h = pager.put_exact("l", std::move(t));
  EXPECT_EQ(pager.tier(h), Tier::kRaw);
  EXPECT_EQ(pager.resident_bytes(), kPage);
  Tensor back = pager.drop(h);
  expect_identical(back, orig);
  EXPECT_EQ(pager.resident_bytes(), 0u);
  EXPECT_EQ(pager.num_pages(), 0u);
}

TEST(PagerTest, LossyPageMatchesCodecRoundtripAtAnyBudget) {
  // The codec transform happens exactly once per put; disk movement is
  // byte-preserving, so a spilled-and-reloaded page decodes to the same
  // floats as a never-evicted one.
  sz::Config scfg;
  scfg.error_bound = 1e-3;
  auto make_codec = [&] { return std::make_shared<core::SzActivationCodec>(scfg); };
  Tensor act = testutil::relu_like_tensor(Shape::nchw(1, 8, 32, 32), 42, 0.5);

  auto reference_codec = make_codec();
  nn::EncodedActivation enc = reference_codec->encode("conv", act);
  enc.shape = act.shape();
  enc.layer = "conv";
  Tensor expect = reference_codec->decode(enc);

  for (const std::size_t budget : {std::size_t{0}, std::size_t{1024}}) {
    PagerConfig cfg;
    cfg.budget_bytes = budget;
    ActivationPager pager(cfg, make_codec());
    const PageId h = pager.put("conv", act.clone());
    if (budget != 0) {
      EXPECT_EQ(pager.tier(h), Tier::kSpilled);
    }
    Tensor got = pager.drop(h);
    expect_identical(got, expect);
  }
}

TEST(PagerTest, BudgetEvictsEarliestPagesFirst) {
  PagerConfig cfg;
  cfg.budget_bytes = kPage + kPage / 2;  // fits one page, not two
  cfg.prefetch_depth = 0;                // keep residency deterministic here
  ActivationPager pager(cfg, nullptr);
  std::vector<PageId> hs;
  std::vector<Tensor> orig;
  for (int i = 0; i < 4; ++i) {
    Tensor t = page_tensor(100 + static_cast<std::uint64_t>(i));
    orig.push_back(t.clone());
    hs.push_back(pager.put_exact("l" + std::to_string(i), std::move(t)));
    EXPECT_LE(pager.resident_bytes(), cfg.budget_bytes);
  }
  // Deepest-needed-last eviction: the page put earliest is consumed last by
  // the LIFO backward pass, so it went to disk first.
  EXPECT_EQ(pager.tier(hs[0]), Tier::kSpilled);
  EXPECT_EQ(pager.tier(hs[1]), Tier::kSpilled);
  EXPECT_EQ(pager.tier(hs[2]), Tier::kSpilled);
  EXPECT_EQ(pager.tier(hs[3]), Tier::kRaw);
  EXPECT_EQ(pager.spilled_bytes(), 3 * kPage);
  const auto c = pager.counters();
  EXPECT_EQ(c.evictions, 3u);
  EXPECT_EQ(c.spill_write_bytes, 3 * kPage);
  EXPECT_LE(c.peak_resident_bytes, cfg.budget_bytes);

  // LIFO consumption reloads every page bit-exactly.
  for (int i = 3; i >= 0; --i) {
    Tensor back = pager.drop(hs[static_cast<std::size_t>(i)]);
    expect_identical(back, orig[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(pager.num_pages(), 0u);
  EXPECT_EQ(pager.spilled_bytes(), 0u);
}

TEST(PagerTest, OverBudgetWithAllPagesBusyIsCountedNotFatal) {
  // A budget smaller than any blob, and one async lossy put: the new page
  // is io_busy (awaiting its encode) when the post-insert enforcement runs,
  // so no victim exists and the overshoot is counted — at any pool size.
  PagerConfig cfg;
  cfg.budget_bytes = 16;
  cfg.prefetch_depth = 0;
  cfg.async_encode = true;
  sz::Config scfg;
  scfg.error_bound = 1e-3;
  ActivationPager pager(cfg, std::make_shared<core::SzActivationCodec>(scfg));
  const PageId h = pager.put("a", page_tensor(9));
  EXPECT_EQ(pager.counters().over_budget_events, 1u);
  pager.drain();
  (void)pager.drop(h);
  EXPECT_EQ(pager.num_pages(), 0u);
}

/// A budget that holds one page of `page_bytes` but not two, so a second
/// put evicts the first to the disk tier the way a training run's pages
/// reach the spill file. No prefetch, so nothing reloads a page behind the
/// test's back.
PagerConfig one_page_budget(std::size_t page_bytes) {
  PagerConfig cfg;
  cfg.budget_bytes = page_bytes + page_bytes / 2;
  cfg.prefetch_depth = 0;
  return cfg;
}

TEST(PagerTest, CorruptSpillPayloadFailsLoudly) {
  ActivationPager pager(one_page_budget(kPage), nullptr);
  const PageId h = pager.put_exact("victim", page_tensor(11));
  const PageId next = pager.put_exact("next", page_tensor(111));
  pager.drain();
  ASSERT_EQ(pager.tier(h), Tier::kSpilled);
  const std::string path = pager.spill_path();
  ASSERT_FALSE(path.empty());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(128);
    char byte = 0;
    f.seekg(128);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(128);
    f.write(&byte, 1);
  }
  EXPECT_THROW(pager.drop(h), std::runtime_error);
  // The poisoned page is released, not leaked.
  (void)pager.drop(next);
  EXPECT_EQ(pager.num_pages(), 0u);
}

TEST(PagerTest, TruncatedSpillFileFailsLoudly) {
  ActivationPager pager(one_page_budget(kPage), nullptr);
  const PageId h = pager.put_exact("victim", page_tensor(12));
  const PageId next = pager.put_exact("next", page_tensor(112));
  pager.drain();
  ASSERT_EQ(pager.tier(h), Tier::kSpilled);
  std::filesystem::resize_file(pager.spill_path(), 64);
  EXPECT_THROW(pager.drop(h), std::runtime_error);
  (void)pager.drop(next);
  EXPECT_EQ(pager.num_pages(), 0u);
}

TEST(PagerTest, CorruptLossyBlobCaughtByChecksumBeforeDecode) {
  sz::Config scfg;
  scfg.error_bound = 1e-3;
  const Tensor act = testutil::relu_like_tensor(Shape::nchw(1, 4, 32, 32), 13, 0.5);
  // Two puts of the same tensor encode to equal-size blobs; size the budget
  // to hold one of them.
  const std::size_t blob = core::SzActivationCodec(scfg).encode("conv", act).bytes.size();
  ActivationPager pager(one_page_budget(blob), std::make_shared<core::SzActivationCodec>(scfg));
  const PageId h = pager.put("conv", act.clone());
  const PageId next = pager.put("conv2", act.clone());
  pager.drain();
  ASSERT_EQ(pager.tier(h), Tier::kSpilled);
  {
    std::fstream f(pager.spill_path(), std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x11);
    f.seekp(40);
    f.write(&byte, 1);
  }
  EXPECT_THROW(pager.drop(h), std::runtime_error);
  (void)pager.drop(next);
  EXPECT_EQ(pager.num_pages(), 0u);
}

TEST(PagerTest, SpillFileTornDownWithPager) {
  std::string path;
  {
    ActivationPager pager(one_page_budget(kPage), nullptr);
    const PageId h = pager.put_exact("a", page_tensor(14));
    (void)pager.put_exact("b", page_tensor(114));
    pager.drain();
    ASSERT_EQ(pager.tier(h), Tier::kSpilled);
    path = pager.spill_path();
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_GE(SpillFile::files_open(), 1u);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_EQ(SpillFile::files_open(), 0u);
}

TEST(PagerTest, PrefetchServesDropsAndCountsHits) {
  sz::Config scfg;
  scfg.error_bound = 1e-3;
  PagerConfig cfg;
  cfg.prefetch_depth = 2;
  ActivationPager pager(cfg, std::make_shared<core::SzActivationCodec>(scfg));
  std::vector<PageId> hs;
  for (int i = 0; i < 6; ++i) {
    hs.push_back(pager.put(
        "conv" + std::to_string(i),
        testutil::relu_like_tensor(Shape::nchw(1, 4, 16, 16),
                                   200 + static_cast<std::uint64_t>(i), 0.5)));
  }
  pager.prepare_backward();
  for (int i = 5; i >= 0; --i) {
    Tensor t = pager.drop(hs[static_cast<std::size_t>(i)]);
    EXPECT_EQ(t.numel(), 4u * 16 * 16);
  }
  const auto c = pager.counters();
  EXPECT_GT(c.prefetch_submitted, 0u);
  EXPECT_GT(c.prefetch_hits, 0u);
}

// --- Write-behind soak: the evidence behind the default-on flip. -------------

TEST(PagerTest, WriteBehindSoakRecoversFromInjectedWriteFaults) {
  // Many iterations of tight-budget churn with spill-write faults injected
  // at a rotating position. The contract under test: a failed write-behind
  // spill surfaces as an exception at the next budget enforcement (or at
  // drain()), the victim's payload stays resident, previously issued
  // handles stay valid, and the pager keeps working — every page still
  // reloads bitwise and nothing (pages, extents, files) leaks.
  PagerConfig cfg;
  cfg.budget_bytes = 2 * kPage;  // evicts on nearly every put
  cfg.prefetch_depth = 0;
  cfg.write_behind = true;

  constexpr int kIterations = 50;
  constexpr int kPages = 8;
  std::size_t faults_surfaced = 0;
  SpillFile::fail_next_writes(0);
  for (int iter = 0; iter < kIterations; ++iter) {
    ActivationPager pager(cfg, nullptr);
    std::vector<PageId> hs;
    std::vector<Tensor> orig;
    for (int i = 0; i < kPages; ++i) {
      orig.push_back(page_tensor(1000 + static_cast<std::uint64_t>(iter * kPages + i)));
      if (i == iter % kPages) {
        // 1..3 consecutive faults: exercises both the single-failure path
        // and back-to-back failures across the write window.
        SpillFile::fail_next_writes(1 + static_cast<std::uint64_t>(iter % 3));
      }
      // Appended, not `"l" + std::to_string(i)`: GCC 12 reports a false
      // -Wrestrict on that operator+ once inlined here.
      std::string layer = "l";
      layer += std::to_string(i);
      for (;;) {
        try {
          hs.push_back(pager.put_exact(layer, orig.back().clone()));
          break;
        } catch (const std::runtime_error& e) {
          // put_exact erases the not-yet-returned page on a failed enforce,
          // so the put can be retried verbatim; it succeeds once the armed
          // faults are consumed.
          ASSERT_NE(std::string(e.what()).find("injected write fault"),
                    std::string::npos)
              << "unexpected error during soak: " << e.what();
          ++faults_surfaced;
        }
      }
    }
    SpillFile::fail_next_writes(0);
    // A fault landing after the last enforcement surfaces at drain(); a
    // second drain must then be clean.
    try {
      pager.drain();
    } catch (const std::runtime_error&) {
      ++faults_surfaced;
    }
    pager.drain();
    for (int i = kPages - 1; i >= 0; --i) {
      Tensor back = pager.drop(hs[static_cast<std::size_t>(i)]);
      expect_identical(back, orig[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(pager.num_pages(), 0u) << "iter " << iter;
  }
  EXPECT_GT(faults_surfaced, 0u) << "soak never hit the injected error path";
  EXPECT_EQ(SpillFile::files_open(), 0u);
}

// --- End-to-end determinism: the acceptance criterion. -----------------------

struct RunResult {
  std::vector<double> losses;
  PagerCounters pager_counters;
};

RunResult train_once(std::size_t budget, bool async, int pool_threads,
                     std::size_t iterations = 6, bool write_behind = true) {
  tensor::sched::set_num_threads(pool_threads);
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.25;
  mcfg.seed = 7;
  auto net = models::make_resnet18(mcfg);

  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 32;
  dspec.seed = 777;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 8, true, true, 31);

  core::SessionConfig cfg;
  // codec: FrameworkConfig default ("sz") — the registry-built framework path.
  cfg.framework.active_factor_w = 4;
  cfg.framework.memory_budget_bytes = budget;
  cfg.framework.async_compression = async;
  cfg.framework.write_behind = write_behind;
  cfg.base_lr = 0.05;
  core::TrainingSession session(*net, loader, cfg);
  session.run(iterations);

  RunResult r;
  for (const auto& rec : session.history()) r.losses.push_back(rec.loss);
  r.pager_counters = session.paged_store()->pager().counters();
  return r;
}

TEST(PagerDeterminismTest, ByteIdenticalAcrossPoolsAndBudgets) {
  const int initial_pool = tensor::sched::num_threads();
  const int max_pool = std::min(4, initial_pool);
  const RunResult ref = train_once(/*budget=*/0, /*async=*/false, /*pool=*/1);
  ASSERT_FALSE(ref.losses.empty());

  // Budget at ~50% of the unbudgeted compressed peak forces real disk
  // traffic; 4 KB is pathological (smaller than any single page). The
  // matrix covers every pool size at the tight budget and every budget at
  // the full pool (running the full cross product triples a TSan CI leg
  // for no additional axis coverage).
  const std::size_t tight = ref.pager_counters.peak_resident_bytes / 2;
  ASSERT_GT(tight, 0u);
  std::vector<std::pair<std::size_t, int>> matrix = {
      {0, max_pool}, {tight, 1}, {tight, 2}, {tight, max_pool}, {4096, max_pool}};

  for (const auto& [budget, pool] : matrix) {
    const RunResult got = train_once(budget, /*async=*/false, pool);
    ASSERT_EQ(got.losses.size(), ref.losses.size());
    for (std::size_t i = 0; i < ref.losses.size(); ++i) {
      // Bitwise: the paging tier moves bytes, never values.
      ASSERT_EQ(got.losses[i], ref.losses[i])
          << "iter " << i << " budget " << budget << " pool " << pool;
    }
    if (budget != 0) {
      EXPECT_GT(got.pager_counters.spill_write_bytes, 0u)
          << "budget " << budget << " never spilled — not a real test";
    }
    if (budget == tight) {
      // A budget with room for the single-page working set is a hard
      // bound on the resident peak. (The pathological 4 KB budget is
      // below single pages by construction — it records over_budget
      // events instead.)
      EXPECT_LE(got.pager_counters.peak_resident_bytes, budget) << "pool " << pool;
    }
  }

  // Async encode moves work onto the pool without changing the bytes.
  const RunResult async_run = train_once(/*budget=*/tight, /*async=*/true, max_pool);
  for (std::size_t i = 0; i < ref.losses.size(); ++i)
    ASSERT_EQ(async_run.losses[i], ref.losses[i]) << "async iter " << i;

  // Write-behind (default-on) is a pure scheduling change: the synchronous
  // spill path produces the same losses and the same eviction/spill
  // counters at the same budget.
  const RunResult sync_run = train_once(tight, /*async=*/false, max_pool,
                                        /*iterations=*/6, /*write_behind=*/false);
  const RunResult wb_run = train_once(tight, /*async=*/false, max_pool,
                                      /*iterations=*/6, /*write_behind=*/true);
  for (std::size_t i = 0; i < ref.losses.size(); ++i) {
    ASSERT_EQ(sync_run.losses[i], ref.losses[i]) << "sync iter " << i;
    ASSERT_EQ(wb_run.losses[i], ref.losses[i]) << "write-behind iter " << i;
  }
  EXPECT_EQ(sync_run.pager_counters.evictions, wb_run.pager_counters.evictions);
  EXPECT_EQ(sync_run.pager_counters.spill_write_bytes,
            wb_run.pager_counters.spill_write_bytes);

  tensor::sched::set_num_threads(initial_pool);
  EXPECT_EQ(SpillFile::files_open(), 0u);  // every session tore its spill down
}

}  // namespace
}  // namespace ebct::memory
