#pragma once
// Consolidated runtime metrics: one process-wide registry of per-phase
// timing accumulators, plus the glue that assembles the pre-existing
// counter islands (PagerCounters, sched::steal_stats, executor dispatch
// stats) into a single named snapshot — exposed as
// `TrainingSession::metrics()` and emitted by the benches into their
// BENCH_*.json rows (schema in docs/BENCH_SCHEMA.md).
//
// The hot-path cost of a phase sample is two relaxed fetch_adds; phase
// accumulation is always on (it reads the clock around the pager's codec
// and spill operations). `drain()` supports
// per-iteration sampling: perf_smoke uses it to measure per-phase variance
// across iterations. Like every obs:: facility, metrics are
// observation-only — they never feed back into scheduling or eviction, so
// the bitwise-determinism contract is untouched.

#include <array>
#include <atomic>
#include <cstdint>

namespace obs {

// Phases of one training iteration that are worth attributing wall-clock
// to. kForward/kBackward bracket the session's passes; the rest accumulate
// from the pager/codec sites (concurrent with compute when async paths or
// the graph executor overlap them — sums can legitimately exceed step time).
enum class Phase : int {
  kForward = 0,   // session forward pass (executor or sequential)
  kBackward,      // session prepare_backward + backward pass
  kEncode,        // codec encode (sync put + async encode tasks)
  kDecode,        // codec decode (fetch, prefetch)
  kSpillWrite,    // spill-file write (sync and write-behind)
  kSpillRead,     // spill-file read
  kSpillWait,     // blocked waiting on spill/encode I/O (budget enforce, drain)
  kNumPhases,
};

constexpr int kNumPhases = static_cast<int>(Phase::kNumPhases);

const char* phase_name(Phase p);  // "forward", "backward", ...

struct PhaseSample {
  std::uint64_t ns = 0;     // accumulated wall-clock
  std::uint64_t count = 0;  // number of samples
};

using PhaseSnapshot = std::array<PhaseSample, kNumPhases>;

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  // Hot path: record one completed phase interval.
  void add(Phase p, std::uint64_t ns) {
    const int i = static_cast<int>(p);
    ns_[i].fetch_add(ns, std::memory_order_relaxed);
    count_[i].fetch_add(1, std::memory_order_relaxed);
  }

  // Non-destructive read of every phase accumulator.
  PhaseSnapshot snapshot() const;

  // Atomically read-and-zero every accumulator (per-bucket exchange, same
  // convention as sched::drain_steal_stats) — per-iteration sampling.
  PhaseSnapshot drain();

  void reset();

 private:
  MetricsRegistry() = default;
  std::atomic<std::uint64_t> ns_[kNumPhases] = {};
  std::atomic<std::uint64_t> count_[kNumPhases] = {};
};

// ---------------------------------------------------------------------------
// Serving metrics — the `serve_*` section of the consolidated snapshot.
//
// One process-wide instance fed by the ebct_serve request loop (and the
// in-process Server the tests/bench spin up). Same discipline as the phase
// registry: relaxed atomics on the hot path, a log2-ns latency histogram
// (the sched::StealStats pattern, widened to cover multi-second requests),
// and snapshot()/drain() for consumers. Gauges (active sessions) use
// add/sub pairs. Everything here is observation-only.
// ---------------------------------------------------------------------------

struct ServeSnapshot {
  static constexpr std::size_t kLatBuckets = 34;  // up to ~17 s in log2 ns
  std::uint64_t requests = 0;        // completed requests (encode + decode)
  std::uint64_t rejects = 0;         // 429 budget rejects
  std::uint64_t errors = 0;          // 4xx/5xx other than budget rejects
  std::uint64_t bytes_in = 0;        // payload bytes received
  std::uint64_t bytes_out = 0;       // payload bytes sent
  std::uint64_t active_sessions = 0; // gauge at snapshot time
  std::uint64_t peak_sessions = 0;
  std::uint64_t latency_buckets[kLatBuckets] = {};

  // Upper bound (ns) of the bucket where the cumulative request count first
  // reaches fraction p; 0 when no requests completed.
  double latency_percentile_ns(double p) const;
};

class ServeMetrics {
 public:
  static ServeMetrics& instance();

  void on_session_open() {
    const std::uint64_t now = active_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t prev = peak_.load(std::memory_order_relaxed);
    while (now > prev && !peak_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }
  void on_session_close() { active_.fetch_sub(1, std::memory_order_relaxed); }
  void on_bytes_in(std::uint64_t n) { bytes_in_.fetch_add(n, std::memory_order_relaxed); }
  void on_bytes_out(std::uint64_t n) { bytes_out_.fetch_add(n, std::memory_order_relaxed); }
  void on_reject() { rejects_.fetch_add(1, std::memory_order_relaxed); }
  void on_error() { errors_.fetch_add(1, std::memory_order_relaxed); }
  void on_request_done(std::uint64_t latency_ns);

  ServeSnapshot snapshot() const;
  void reset();  // test helper; callers quiesce the server first

 private:
  ServeMetrics() = default;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejects_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> lat_[ServeSnapshot::kLatBuckets] = {};
};

// RAII phase timer: adds [construction, destruction) to the registry.
// Unconditional (metrics are always on) — the cost is one steady_clock
// read at each end plus two relaxed adds.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase p);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase p_;
  std::uint64_t t0_;
};

}  // namespace obs
