#pragma once

/// \file sched.hpp
/// Shared work-stealing task scheduler: one process-wide pool of worker
/// threads with per-thread Chase–Lev-style deques. Every parallel construct
/// in the library (batch loops in the nn layers, the GEMM engine's 2D
/// C-tile grid, the SZ per-block codec pipeline) submits range tasks into
/// the same pool, so batch-level and tile-level work interleave instead of
/// the first fork winning the thread pool and the inner level running
/// serial.
///
/// Scheduling model
///  - A `parallel` call splits [0, n) into range tasks no smaller than
///    `grain` indices. The submitting thread pushes tasks onto its own
///    deque (help-first: the upper half of a range is published *before*
///    the lower half is executed, so idle workers can steal it), then joins
///    by draining its deque and stealing from peers until every index has
///    run. Joining threads never block: nested submissions — a conv batch
///    task forking its sample's GEMM tile grid — are executed cooperatively
///    on whichever thread gets there first.
///  - Determinism contract: the scheduler fixes *what* runs (a partition of
///    [0, n) that is a pure function of n and grain — never of the thread
///    count) but not *where or when*. Callers that write results
///    only to per-index locations, or reduce through fixed partitions merged
///    in index order, produce byte-identical output at every thread count.
///    Every hot path in this library follows that discipline.
///
/// Concurrency is `num_threads()`: the calling thread plus the pool
/// workers. It defaults to the hardware thread count, can be pinned with
/// the EBCT_SCHED_THREADS environment variable (read once, at first use),
/// and can be reconfigured at runtime with set_num_threads() while no
/// parallel work is in flight. There is no per-call cap: a serial run is
/// a one-thread pool (EBCT_SCHED_THREADS=1 or set_num_threads(1)), which
/// executes the same bodies inline.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>

namespace ebct::tensor::sched {

/// Total concurrency: pool workers + the calling thread. Always >= 1.
int num_threads();

/// Resize the pool to `n` total threads (clamped to [1, 112], the slot
/// table's worker bound). Blocks until the old workers have drained and
/// exited. Must only be called while no parallel region is executing;
/// intended for tests, benchmarks and process-level configuration.
void set_num_threads(int n);

namespace detail {
struct AsyncState;  // defined in sched.cpp; carries one fire-and-forget task
}  // namespace detail

/// Handle to a single task submitted with async(). Join semantics mirror
/// std::thread: a valid Future must be waited before destruction (the
/// destructor waits, swallowing any task exception; call wait() yourself to
/// observe it). wait() does not block idle — like the scheduler's join loop
/// it helps execute queued tasks (its own deque first, then steals), so
/// waiting inside a parallel region cannot deadlock the pool.
class Future {
 public:
  Future() = default;
  Future(Future&& o) noexcept : state_(std::move(o.state_)) {}
  Future& operator=(Future&& o) noexcept;
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;
  ~Future();

  bool valid() const { return state_ != nullptr; }
  /// True when the task has finished (valid futures only).
  bool ready() const;
  /// Block (helping the pool) until the task finishes; rethrows the task's
  /// exception if it threw, then releases the state (valid() becomes false).
  void wait();

 private:
  friend Future async(std::function<void()> fn);
  explicit Future(std::shared_ptr<detail::AsyncState> s) : state_(std::move(s)) {}
  std::shared_ptr<detail::AsyncState> state_;
};

/// Submit `fn` as one task on the shared pool and return its Future. The
/// task may run on any worker (or inline, when the pool has one thread or
/// the submitter's deque is full) and must not assume a particular thread.
/// Exceptions thrown by `fn` are captured and rethrown from wait().
/// Do not call while holding a lock the task body also takes: on a
/// single-thread pool the body runs inline, inside this call.
[[nodiscard]] Future async(std::function<void()> fn);

/// Execute queued pool tasks (own deque first, then steals) until `done()`
/// returns true, yielding when no task is available. This is how code
/// blocked on an async side effect (an encode landing, a prefetch
/// installing) waits without idling a core or deadlocking a one-thread
/// pool. `done` is re-evaluated between task executions and must be safe
/// to call repeatedly from this thread; it alone must detect completion
/// (typically via an atomic published by the task).
void help_while(const std::function<bool()>& done);

/// Steal-latency histogram: how long threads that went looking for work
/// scanned before a successful steal. Latency is measured from the first
/// failed pop/steal attempt of an idle episode to the steal that ended it;
/// a steal that lands on the first attempt counts as latency 0 (bucket 0),
/// and time spent sleeping (empty pool) is excluded — the numbers reflect
/// wake-to-work responsiveness under load, not idleness. Bucket i counts
/// steals with latency in [2^i, 2^(i+1)) ns.
struct StealStats {
  static constexpr std::size_t kBuckets = 26;
  std::uint64_t recorded = 0;                      ///< episodes ending in a steal
  std::array<std::uint64_t, kBuckets> bucket{};    ///< log2-ns latency histogram

  /// Upper bound (ns) of the bucket where the cumulative count first
  /// reaches fraction `p` of `recorded`; 0 when nothing was recorded.
  double percentile_ns(double p) const {
    if (recorded == 0) return 0.0;
    const double target = p * static_cast<double>(recorded);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      cum += static_cast<double>(bucket[i]);
      if (cum >= target) return static_cast<double>(std::uint64_t{1} << (i + 1));
    }
    return static_cast<double>(std::uint64_t{1} << kBuckets);
  }
};

/// Non-destructive snapshot of the process-wide steal histogram (all
/// threads). `recorded` is derived from the buckets, so the snapshot is
/// internally consistent even while steals are being recorded concurrently.
StealStats steal_stats();

/// Atomically drain the histogram: returns everything recorded since the
/// previous drain and zeroes the counters in the same per-bucket exchange,
/// so two consumers (or two bench runs in one long-lived process) can never
/// double-count or lose an episode between a snapshot and a reset. Benches
/// bracket their timed section with a discarded drain before and a
/// reported drain after.
StealStats drain_steal_stats();

namespace detail {
/// Type-erased core. Executes body(ctx, begin, end) over disjoint
/// subranges that exactly cover [0, n), blocking until all have run.
/// grain is the minimum indices per task (0 behaves as 1); ranges above it
/// are split so thieves can share the work.
void run_range(std::size_t n, std::size_t grain,
               void (*body)(void*, std::size_t, std::size_t), void* ctx);
}  // namespace detail

/// Run fn(begin, end) over disjoint chunks covering [0, n). See
/// detail::run_range for grain semantics. `fn` must tolerate concurrent
/// invocation on distinct ranges and write only range-owned state.
template <typename Fn>
void parallel_ranges(std::size_t n, std::size_t grain, Fn&& fn) {
  using Body = std::remove_reference_t<Fn>;
  Body& body = fn;
  detail::run_range(
      n, grain,
      [](void* ctx, std::size_t b, std::size_t e) { (*static_cast<Body*>(ctx))(b, e); },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

/// Run fn(i) for every i in [0, n); chunking is an internal detail.
template <typename Fn>
void parallel_indices(std::size_t n, std::size_t grain, Fn&& fn) {
  parallel_ranges(n, grain, [&fn](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) fn(i);
  });
}

}  // namespace ebct::tensor::sched
