// Unit tests for the shared work-stealing scheduler (tensor/sched.hpp):
// coverage of every index under steal-heavy fork/join stress, nested
// batch x tile submission (the pattern the pool exists to serve), external
// submitter threads, and the determinism contract —
// byte-identical GEMM / conv / codec outputs at pool sizes 1 / 2 / N.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nn/conv2d.hpp"
#include "sz/compressor.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"
#include "tensor/sched.hpp"

namespace ebct::tensor {
namespace {

class SchedThreads : public ::testing::Test {
 protected:
  void TearDown() override { sched::set_num_threads(hw_); }
  const int hw_ = sched::num_threads();
};

using SchedStress = SchedThreads;
using SchedDeterminism = SchedThreads;

TEST_F(SchedStress, EveryIndexRunsExactlyOnceUnderStealHeavyLoad) {
  // Grain 1 over a large range forces maximal splitting: the submitter
  // floods its deque and every other thread lives off steals. Per-index
  // counters catch lost, duplicated, and out-of-range executions alike.
  for (int threads : {1, 2, 4}) {
    sched::set_num_threads(threads);
    constexpr std::size_t kN = 20000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    sched::parallel_indices(kN, 1, [&](std::size_t i) {
      // Skewed cost: a few heavy indices make static schedules lopsided,
      // which is exactly what stealing must absorb.
      if (i % 1024 == 0) {
        volatile double sink = 0.0;
        for (int r = 0; r < 20000; ++r) sink = sink + r;
      }
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST_F(SchedStress, RepeatedForkJoinDoesNotWedge) {
  // Many small submissions back to back: exercises worker sleep/wake around
  // the signal epoch (a lost wakeup here shows up as a hang, which the test
  // harness converts into a timeout failure).
  sched::set_num_threads(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 300; ++round) {
    sched::parallel_indices(17, 1,
                            [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 300u * 17u);
}

TEST_F(SchedStress, NestedBatchTileSubmissionCoversTheGrid) {
  // The shape the scheduler was built for: an outer batch loop whose every
  // task forks an inner tile grid into the same pool. Each (b, t) cell is
  // written exactly once to a fixed location; any lost nested task or
  // cross-task interference corrupts the grid.
  for (int threads : {1, 2, 4}) {
    sched::set_num_threads(threads);
    constexpr std::size_t kBatch = 12, kTiles = 64;
    std::vector<int> grid(kBatch * kTiles, -1);
    parallel_for_tasks(kBatch, [&](std::size_t b) {
      sched::parallel_indices(kTiles, 1, [&](std::size_t t) {
        grid[b * kTiles + t] = static_cast<int>(b * kTiles + t);
      });
    });
    for (std::size_t i = 0; i < grid.size(); ++i) {
      ASSERT_EQ(grid[i], static_cast<int>(i)) << "at " << threads << " threads";
    }
  }
}

TEST_F(SchedStress, DeeplyNestedSubmissionStillCompletes) {
  // Three levels deep (network -> batch -> tiles) with the innermost doing
  // real writes. Joining threads must help rather than block at any level.
  sched::set_num_threads(4);
  constexpr std::size_t kA = 4, kB = 4, kC = 32;
  std::vector<std::atomic<int>> hits(kA * kB * kC);
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  sched::parallel_indices(kA, 1, [&](std::size_t a) {
    sched::parallel_indices(kB, 1, [&](std::size_t b) {
      sched::parallel_indices(kC, 1, [&](std::size_t c) {
        hits[(a * kB + b) * kC + c].fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST_F(SchedStress, ExternalThreadsCanSubmitConcurrently) {
  // Non-pool threads (the async codec store's worker, tests, user code)
  // claim submitter slots lazily and share the same pool. Two externals
  // submitting at once must both complete with full coverage.
  sched::set_num_threads(3);
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> hits_a(kN), hits_b(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    hits_a[i].store(0);
    hits_b[i].store(0);
  }
  auto submit = [](std::vector<std::atomic<int>>& hits) {
    sched::parallel_indices(hits.size(), 1, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
  };
  std::thread ta([&] { submit(hits_a); });
  std::thread tb([&] { submit(hits_b); });
  ta.join();
  tb.join();
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits_a[i].load(), 1);
    ASSERT_EQ(hits_b[i].load(), 1);
  }
}

TEST_F(SchedThreads, AsyncTaskRunsAndFutureJoins) {
  for (int threads : {1, 2, 4}) {
    sched::set_num_threads(threads);
    std::atomic<int> ran{0};
    sched::Future f = sched::async([&] { ran.fetch_add(1); });
    f.wait();
    EXPECT_EQ(ran.load(), 1);
    EXPECT_FALSE(f.valid());  // wait releases the state
  }
}

TEST_F(SchedThreads, AsyncExceptionRethrownFromWait) {
  sched::set_num_threads(2);
  sched::Future f = sched::async([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(f.wait(), std::runtime_error);
}

TEST_F(SchedThreads, AsyncDestructorJoinsWithoutObservation) {
  sched::set_num_threads(2);
  std::atomic<int> ran{0};
  {
    sched::Future f = sched::async([&] { ran.fetch_add(1); });
    // dropped without wait(): the destructor must join, not detach
  }
  EXPECT_EQ(ran.load(), 1);
}

TEST_F(SchedThreads, HelpWhileExecutesPendingAsyncWork) {
  // On a one-thread pool the only way an async task submitted earlier runs
  // is that the waiter helps: help_while must execute it, not spin.
  sched::set_num_threads(1);
  std::atomic<bool> done{false};
  sched::Future f = sched::async([&] { done.store(true, std::memory_order_release); });
  sched::help_while([&] { return done.load(std::memory_order_acquire); });
  EXPECT_TRUE(done.load());
  f.wait();
}

TEST_F(SchedThreads, ManyAsyncTasksAllComplete) {
  for (int threads : {1, 4}) {
    sched::set_num_threads(threads);
    std::atomic<int> ran{0};
    std::vector<sched::Future> fs;
    for (int i = 0; i < 64; ++i) fs.push_back(sched::async([&] { ran.fetch_add(1); }));
    for (auto& f : fs) f.wait();
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST_F(SchedStress, StealStatsRecordUnderContention) {
  sched::set_num_threads(4);
  (void)sched::drain_steal_stats();
  const auto empty = sched::steal_stats();
  EXPECT_EQ(empty.recorded, 0u);
  // Steal-heavy fork/join: grain 1 floods the submitter's deque, and each
  // index carries enough work that the pool workers wake and live off
  // steals before the submitter drains the range alone.
  std::atomic<std::size_t> sink{0};
  for (int round = 0; round < 20; ++round) {
    sched::parallel_indices(2000, 1, [&](std::size_t i) {
      std::size_t acc = i;
      for (int k = 0; k < 2000; ++k) acc = acc * 1664525u + 1013904223u;
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
  }
  const auto s = sched::steal_stats();
  if (sched::num_threads() > 1) {
    EXPECT_GT(s.recorded, 0u);
    std::uint64_t total = 0;
    for (const auto b : s.bucket) total += b;
    EXPECT_EQ(total, s.recorded);
    EXPECT_GT(s.percentile_ns(0.5), 0.0);
    EXPECT_LE(s.percentile_ns(0.5), s.percentile_ns(0.99));
  }
}

TEST_F(SchedThreads, SetNumThreadsClampsAndReports) {
  sched::set_num_threads(0);
  EXPECT_EQ(sched::num_threads(), 1);
  sched::set_num_threads(2);
  EXPECT_EQ(sched::num_threads(), 2);
  sched::set_num_threads(1 << 20);  // clamped to the slot-table bound
  EXPECT_GE(sched::num_threads(), 2);
  EXPECT_LE(sched::num_threads(), 128);
}

TEST_F(SchedDeterminism, GemmBitwiseIdenticalAcrossPoolSizes) {
  const std::size_t m = 96, k = 384, n = 512;
  Rng rng(321);
  std::vector<float> a(m * k), b(k * n);
  rng.fill_normal({a.data(), a.size()}, 0.0f, 1.0f);
  rng.fill_normal({b.data(), b.size()}, 0.0f, 1.0f);
  std::vector<float> ref(m * n), got(m * n);
  sched::set_num_threads(1);
  gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (int t : {2, hw_ > 2 ? hw_ : 4}) {
    sched::set_num_threads(t);
    gemm(a.data(), b.data(), got.data(), m, k, n);
    ASSERT_EQ(0, std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)))
        << t << " threads";
  }
}

TEST_F(SchedDeterminism, ConvForwardBackwardBitwiseIdenticalAcrossPoolSizes) {
  auto run = [](int threads, std::vector<float>& out, std::vector<float>& wgrad) {
    sched::set_num_threads(threads);
    Rng rng(7);
    nn::Conv2d conv("c", nn::Conv2dSpec{16, 32, 3, 1, 1}, rng);
    nn::RawStore store;
    conv.set_store(&store);
    Tensor x(Shape::nchw(6, 16, 20, 20));
    rng.fill_normal(x.span(), 0.0f, 1.0f);
    Tensor y = conv.forward(x, true);
    Tensor gi = conv.backward(Tensor(y.shape(), 0.1f));
    out.assign(y.data(), y.data() + y.numel());
    out.insert(out.end(), gi.data(), gi.data() + gi.numel());
    wgrad.assign(conv.weight().grad.data(),
                 conv.weight().grad.data() + conv.weight().grad.numel());
  };
  std::vector<float> ref_out, ref_wg, out, wg;
  run(1, ref_out, ref_wg);
  for (int t : {2, hw_ > 2 ? hw_ : 4}) {
    run(t, out, wg);
    ASSERT_EQ(ref_out.size(), out.size());
    ASSERT_EQ(0, std::memcmp(ref_out.data(), out.data(), out.size() * sizeof(float)))
        << t << " threads";
    ASSERT_EQ(0, std::memcmp(ref_wg.data(), wg.data(), wg.size() * sizeof(float)))
        << t << " threads";
  }
}

TEST_F(SchedDeterminism, CompressedBytesIdenticalAcrossPoolSizes) {
  // The SZ pipeline rides the same pool; its bytes must not care about the
  // pool size (per-block results land in fixed slots, histograms merge in
  // chunk order).
  Rng rng(99);
  std::vector<float> data(200000);
  rng.fill_normal({data.data(), data.size()}, 0.0f, 1.0f);
  for (std::size_t i = 0; i < data.size(); i += 7) data[i] = 0.0f;  // RLE fodder
  sz::Config cfg;
  cfg.error_bound = 1e-3;
  cfg.block_size = 4096;
  sched::set_num_threads(1);
  const auto serial = sz::Compressor(cfg).compress({data.data(), data.size()});
  for (int t : {2, hw_ > 2 ? hw_ : 4}) {
    sched::set_num_threads(t);
    const auto par = sz::Compressor(cfg).compress({data.data(), data.size()});
    ASSERT_EQ(par.bytes, serial.bytes) << t << " threads";
    std::vector<float> round(data.size());
    sz::Compressor(cfg).decompress(par, {round.data(), round.size()});
    std::vector<float> round_serial(data.size());
    sched::set_num_threads(1);
    sz::Compressor(cfg).decompress(serial, {round_serial.data(), round_serial.size()});
    ASSERT_EQ(0, std::memcmp(round.data(), round_serial.data(),
                             round.size() * sizeof(float)))
        << t << " threads";
  }
}

TEST_F(SchedDeterminism, ParallelSumFixedPartitionIsPoolSizeInvariant) {
  Rng rng(5);
  std::vector<float> x(100000);
  rng.fill_normal({x.data(), x.size()}, 0.0f, 1.0f);
  sched::set_num_threads(1);
  const double ref = parallel_sum(x.size(), [&](std::size_t i) { return double(x[i]); });
  for (int t : {2, 4}) {
    sched::set_num_threads(t);
    const double got = parallel_sum(x.size(), [&](std::size_t i) { return double(x[i]); });
    ASSERT_EQ(ref, got) << t << " threads";  // bitwise, not approximate
  }
}

}  // namespace
}  // namespace ebct::tensor
