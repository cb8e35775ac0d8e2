// Property sweep for the blocked GEMM engine: random (m, k, n) shapes across
// all three transposition variants, accumulate on/off, at every SIMD level
// the host runs, checked against a double-precision naive reference AND for
// bitwise-identical output across thread counts (the engine's determinism
// contract: within one level, tile decomposition and accumulation order are
// pure functions of the shape).

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/alloc.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"
#include "tensor/sched.hpp"

namespace ebct::tensor {
namespace {

void set_threads(int t) { sched::set_num_threads(t); }

int default_threads() { return sched::num_threads(); }

enum class Variant { kPlain, kAt, kBt };

/// Run the variant under test. A and B are always the logical [m,k] / [k,n]
/// operands; the transposed storage is derived here.
void run_variant(Variant v, const std::vector<float>& a, const std::vector<float>& b,
                 float* c, std::size_t m, std::size_t k, std::size_t n,
                 bool accumulate) {
  switch (v) {
    case Variant::kPlain:
      gemm(a.data(), b.data(), c, m, k, n, accumulate);
      return;
    case Variant::kAt: {
      std::vector<float> at(k * m);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t kk = 0; kk < k; ++kk) at[kk * m + i] = a[i * k + kk];
      gemm_at(at.data(), b.data(), c, m, k, n, accumulate);
      return;
    }
    case Variant::kBt: {
      std::vector<float> bt(n * k);
      for (std::size_t kk = 0; kk < k; ++kk)
        for (std::size_t j = 0; j < n; ++j) bt[j * k + kk] = b[kk * n + j];
      gemm_bt(a.data(), bt.data(), c, m, k, n, accumulate);
      return;
    }
  }
}

void naive_ref(const std::vector<float>& a, const std::vector<float>& b, float* c,
               std::size_t m, std::size_t k, std::size_t n, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double acc = accumulate ? c[i * n + j] : 0.0;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc += double(a[i * k + kk]) * b[kk * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
}

/// Every level this host supports, portable first.
std::vector<GemmIsa> supported_levels() {
  std::vector<GemmIsa> levels;
  for (int l = 0; l < kNumGemmIsas; ++l)
    if (gemm_isa_supported(static_cast<GemmIsa>(l))) levels.push_back(static_cast<GemmIsa>(l));
  return levels;
}

TEST(GemmEngine, PropertySweepAllVariantsThreadCountsAccumulate) {
  const int nthreads = default_threads();
  for (GemmIsa isa : supported_levels()) {
    ScopedGemmIsa pin(isa);
    Rng shape_rng(2024);
    // 24 random shapes spanning below/above the blocking constants (every
    // level's Mr and Nr, Mc=96, Nc=160, Kc=256) so every edge-padding path
    // is hit.
    for (int trial = 0; trial < 24; ++trial) {
      const std::size_t m = 1 + shape_rng.uniform_index(200);
      const std::size_t k = 1 + shape_rng.uniform_index(300);
      const std::size_t n = 1 + shape_rng.uniform_index(350);
      Rng rng(100 + static_cast<std::uint64_t>(trial));
      std::vector<float> a(m * k), b(k * n);
      rng.fill_uniform({a.data(), a.size()}, -1, 1);
      rng.fill_uniform({b.data(), b.size()}, -1, 1);
      std::vector<float> init(m * n);
      rng.fill_uniform({init.data(), init.size()}, -1, 1);

      for (Variant v : {Variant::kPlain, Variant::kAt, Variant::kBt}) {
        for (bool accumulate : {false, true}) {
          // Reference in double precision.
          std::vector<float> ref = init;
          naive_ref(a, b, ref.data(), m, k, n, accumulate);

          std::vector<float> base = init;
          set_threads(1);
          run_variant(v, a, b, base.data(), m, k, n, accumulate);
          const float tol = 1e-4f * static_cast<float>(k);
          for (std::size_t i = 0; i < base.size(); ++i)
            ASSERT_NEAR(base[i], ref[i], tol)
                << gemm_isa_name(isa) << " variant " << int(v) << " acc " << accumulate
                << " shape " << m << "x" << k << "x" << n << " at " << i;

          for (int t : {2, nthreads > 2 ? nthreads : 4}) {
            std::vector<float> got = init;
            set_threads(t);
            run_variant(v, a, b, got.data(), m, k, n, accumulate);
            ASSERT_EQ(0, std::memcmp(base.data(), got.data(), base.size() * sizeof(float)))
                << "bitwise mismatch: " << gemm_isa_name(isa) << " variant " << int(v)
                << " acc " << accumulate << " threads " << t << " shape " << m << "x" << k
                << "x" << n;
          }
        }
      }
    }
  }
  set_threads(nthreads);
}

TEST(GemmEngine, DispatchesBestSupportedLevel) {
  const std::vector<GemmIsa> levels = supported_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), GemmIsa::kPortable);
  EXPECT_EQ(gemm_isa(), levels.back());
  for (GemmIsa isa : levels) {
    const GemmKernelShape shape = gemm_kernel_shape(isa);
    EXPECT_EQ(GemmBlocking::kMc % shape.mr, 0u) << gemm_isa_name(isa);
    EXPECT_EQ(GemmBlocking::kNc % shape.nr, 0u) << gemm_isa_name(isa);
    {
      ScopedGemmIsa pin(isa);
      EXPECT_EQ(gemm_isa(), isa);
    }
    EXPECT_EQ(gemm_isa(), levels.back());  // restored on scope exit
  }
  EXPECT_THROW(ScopedGemmIsa(static_cast<GemmIsa>(kNumGemmIsas)), std::invalid_argument);
}

TEST(GemmEngine, ResultDoesNotDependOnProblemWidth) {
  // A C element's value is a function of its A row, B column and k alone:
  // widening the problem with more columns (the batched conv's G samples
  // side by side) must not change the bytes of the columns already there.
  for (GemmIsa isa : supported_levels()) {
    ScopedGemmIsa pin(isa);
    const std::size_t m = 37, k = 300, n1 = 45, n2 = 3 * 45 + 7;
    Rng rng(55);
    std::vector<float> a(m * k), b(k * n2);
    rng.fill_uniform({a.data(), a.size()}, -1, 1);
    rng.fill_uniform({b.data(), b.size()}, -1, 1);
    std::vector<float> narrow_b(k * n1);
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t j = 0; j < n1; ++j) narrow_b[kk * n1 + j] = b[kk * n2 + 50 + j];
    std::vector<float> wide(m * n2), narrow(m * n1);
    gemm(a.data(), b.data(), wide.data(), m, k, n2);
    gemm(a.data(), narrow_b.data(), narrow.data(), m, k, n1);
    for (std::size_t i = 0; i < m; ++i)
      ASSERT_EQ(0, std::memcmp(&wide[i * n2 + 50], &narrow[i * n1], n1 * sizeof(float)))
          << gemm_isa_name(isa) << " row " << i;
  }
}

TEST(GemmEngine, ZeroDimensionedProblems) {
  // k = 0 must zero C (or leave it when accumulating); m = 0 / n = 0 are
  // no-ops. Guards the driver's early-outs.
  std::vector<float> c{1.0f, 2.0f, 3.0f, 4.0f};
  gemm(nullptr, nullptr, c.data(), 2, 0, 2, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  gemm(nullptr, nullptr, c.data(), 2, 0, 2, /*accumulate=*/false);
  EXPECT_FLOAT_EQ(c[0], 0.0f);
  EXPECT_FLOAT_EQ(c[3], 0.0f);
  gemm(nullptr, nullptr, nullptr, 0, 4, 0, false);  // must not touch memory
}

TEST(GemmEngine, PlanParallelisesConvShapes) {
  // The Inception-zoo conv GEMMs (m = 64..192 out channels) were exactly the
  // shapes the old row-count grain starved; the 2D tile plan must fan out.
  for (std::size_t m : {64u, 96u, 192u}) {
    const GemmStats plan = gemm_plan(m, 576, 3136);
    EXPECT_GT(plan.tiles, 1u) << m;
    EXPECT_TRUE(plan.parallel) << m;
  }
  EXPECT_FALSE(gemm_plan(8, 8, 8).parallel);
  EXPECT_EQ(gemm_plan(0, 5, 5).tiles, 0u);
}

TEST(ParallelGrain, ConsidersTotalWorkNotJustTripCount) {
  // Few-but-heavy iterations must clear the grain; many-but-trivial must
  // not be blocked; tiny loops stay serial.
  EXPECT_TRUE(parallel_worthwhile(2, kParallelWorkGrain));
  EXPECT_TRUE(parallel_worthwhile(kParallelWorkGrain, 1));
  EXPECT_FALSE(parallel_worthwhile(8, 8));
  EXPECT_FALSE(parallel_worthwhile(1, ~std::size_t{0}));  // one task: nothing to fork
}

TEST(ScratchArena, ReusesBlocksAcrossAcquires) {
  ScratchArena& arena = ScratchArena::local();
  const float* p1;
  {
    ScratchBuffer buf(1000);
    p1 = buf.data();
    buf.data()[0] = 1.0f;
    buf.data()[999] = 2.0f;
  }
  const std::size_t cap_after_first = arena.capacity_bytes();
  {
    // Same-size re-acquire must hit the free list, not allocate.
    ScratchBuffer buf(900);
    EXPECT_EQ(buf.data(), p1);
  }
  EXPECT_EQ(arena.capacity_bytes(), cap_after_first);
  {
    // Nested borrows coexist (conv cols + GEMM packing panels).
    ScratchBuffer outer(500);
    ScratchBuffer inner(500);
    EXPECT_NE(outer.data(), inner.data());
    outer.data()[499] = 1.0f;
    inner.data()[499] = 2.0f;
    EXPECT_FLOAT_EQ(outer.data()[499], 1.0f);
  }
}

}  // namespace
}  // namespace ebct::tensor
