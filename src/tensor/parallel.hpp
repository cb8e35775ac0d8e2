#pragma once

/// \file parallel.hpp
/// Thin shims over the shared work-stealing scheduler (sched.hpp) so the
/// rest of the library keeps its loop-shaped API. Historically these
/// wrapped raw OpenMP pragmas, which made batch-level vs GEMM-level
/// parallelism first-fork-wins (OpenMP nesting off: whichever parallel_for
/// forked first got every core and inner loops ran serial). All levels now
/// submit into one task pool and interleave; the grain policies below are
/// unchanged, they just pick task sizes instead of gating a pragma.
///
/// Determinism: chunk partitions and reduction trees are pure functions of
/// the iteration count — never of the thread count — so every wrapper here
/// yields byte-identical results at any pool size (parallel_sum is *more*
/// deterministic than the old OpenMP reduction, which partitioned by thread
/// count).

#include <cstddef>
#include <vector>

#include "tensor/sched.hpp"

namespace ebct::tensor {

/// Minimum iteration count below which parallel_for runs serially.
inline constexpr std::size_t kParallelGrain = 4096;

/// Minimum *total work* (in rough element-op units) below which a loop is
/// not worth forking for. Gating on trip count alone starved loops with few
/// but heavy iterations: a conv-layer GEMM with m = 64 output channels never
/// crossed the 4096-row grain even though each row cost ~million flops.
inline constexpr std::size_t kParallelWorkGrain = 64 * 1024;

/// True when a loop of `n` iterations, each costing roughly `work_per_iter`
/// element-ops, justifies a fork/join. This is the grain policy shared by
/// parallel_for and the GEMM tile scheduler (exposed so callers like the
/// perf-smoke harness can assert a shape *would* parallelise).
inline bool parallel_worthwhile(std::size_t n, std::size_t work_per_iter) {
  if (n < 2) return false;
  if (work_per_iter == 0) work_per_iter = 1;
  if (n >= kParallelWorkGrain) return true;  // avoid overflow in the product
  return n * work_per_iter >= kParallelWorkGrain;
}

/// Run `fn(i)` for i in [0, n), forking when the total work — trip count x
/// `work_per_iter` element-ops — crosses kParallelWorkGrain. Tasks are
/// sized so each carries about one work-grain of element-ops (heavy
/// iterations, like GEMM C-tiles, become one task each and steal freely
/// across batch-level siblings). `fn` must be safe to call concurrently for
/// distinct indices.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t work_per_iter, Fn&& fn) {
  if (!parallel_worthwhile(n, work_per_iter)) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (work_per_iter == 0) work_per_iter = 1;
  const std::size_t grain = kParallelWorkGrain / work_per_iter;
  sched::parallel_indices(n, grain, fn);
}

/// Run `fn(i)` for i in [0, n) assuming unit-cost iterations (elementwise
/// kernels). Kept as the common entry point; heavy-bodied loops should pass
/// their per-iteration cost to the overload above.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  // Preserve the historical trip-count grain for unit-cost loops: 4096
  // elementwise iterations is where fork/join starts paying off.
  if (n < kParallelGrain) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  sched::parallel_indices(n, kParallelGrain, fn);
}

/// Run `fn(i)` for i in [0, n) with NO grain threshold — for coarse tasks
/// (per-block codec work, per-sample conv batches) where every iteration is
/// already substantial and the caller wants parallelism even at small trip
/// counts. Every index is its own stealable task, which is what absorbs
/// skewed iteration costs (outlier-heavy codec blocks encode slower); a
/// one-thread pool runs the same loop inline. The iteration order a thread
/// observes is unspecified, so `fn` must write only to per-index state.
template <typename Fn>
void parallel_for_tasks(std::size_t n, Fn&& fn) {
  sched::parallel_indices(n, 1, fn);
}

/// Fixed-partition reduction over [0, n): the range is cut into
/// kParallelGrain-sized chunks (a pure function of n alone), `chunk(lo, hi,
/// acc)` reduces each one serially into its own accumulator, and the
/// partials merge in index order via `merge(total, partial)` — so the
/// result is identical at every pool size, and below the grain the
/// reduction degenerates to the exact serial loop. This is the one place
/// the chunking scaffolding lives; parallel_sum and tensor::max_abs are
/// thin instantiations.
template <typename T, typename ChunkFn, typename MergeFn>
T parallel_reduce(std::size_t n, T identity, ChunkFn&& chunk, MergeFn&& merge) {
  if (n < kParallelGrain) {
    T acc = identity;
    chunk(std::size_t{0}, n, acc);
    return acc;
  }
  const std::size_t nchunks = (n + kParallelGrain - 1) / kParallelGrain;
  std::vector<T> partial(nchunks, identity);
  sched::parallel_ranges(nchunks, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const std::size_t lo = c * kParallelGrain;
      chunk(lo, lo + kParallelGrain < n ? lo + kParallelGrain : n, partial[c]);
    }
  });
  T total = identity;
  for (const T& p : partial) merge(total, p);
  return total;
}

/// Sum-reduce `fn(i)` over [0, n) in parallel. Fixed partition + in-order
/// merge: identical at every thread count (unlike an OpenMP reduction
/// clause, whose partitioning tracked the team size).
template <typename Fn>
double parallel_sum(std::size_t n, Fn&& fn) {
  return parallel_reduce(
      n, 0.0,
      [&fn](std::size_t lo, std::size_t hi, double& acc) {
        for (std::size_t i = lo; i < hi; ++i) acc += fn(i);
      },
      [](double& total, double p) { total += p; });
}

}  // namespace ebct::tensor
