#pragma once
// Process-wide, near-zero-overhead tracing: per-thread fixed-capacity event
// rings with lock-free emit, flushed on demand to Chrome trace-event JSON
// (loadable in chrome://tracing or https://ui.perfetto.dev).
//
// Design contract (see docs/OBSERVABILITY.md for the full write-up):
//
//  - The hot path is ONE relaxed atomic load when tracing is disabled
//    (`enabled()`); a Span then costs nothing else — no clock read, no TLS
//    access, no allocation. The disabled-mode overhead is gated < 2% by
//    bench/sec54_overhead.cpp.
//  - When enabled, each emitting thread owns a fixed-capacity ring of event
//    slots, allocated once on that thread's first emit and registered with a
//    process-wide registry (under a cold mutex). Emit itself is lock-free:
//    single-producer relaxed stores into the next slot, then a release store
//    of the ring's event count.
//  - Rings never block: when a ring wraps, the oldest events are overwritten
//    and counted as dropped (drops = total emitted − ring capacity, clamped
//    at 0). Size rings with EBCT_TRACE_RING_EVENTS (default 65536 events,
//    ~2.5 MB/thread) if a trace shows a nonzero drop count.
//  - flush() may run concurrently with emitters (every slot field is an
//    atomic, so there is no data race); events overwritten *during* the copy
//    are detected by re-reading the count and discarded rather than emitted
//    torn. Flushing mid-run is therefore safe but may drop in-flight events;
//    the canonical flush point is process exit (EBCT_TRACE installs an
//    atexit handler) or an explicit flush() after workers quiesce.
//  - Span names and categories must be string literals (or otherwise outlive
//    the process): rings store the pointers, not copies.
//
// Tracing is observation-only: it never changes scheduling, eviction, or any
// other decision, so training is bitwise identical with tracing on or off
// (asserted by tests/test_obs.cpp).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace obs {
namespace trace {

// Event category — becomes the "cat" field in the Chrome trace, so a
// Perfetto query can slice by subsystem.
enum class Cat : std::uint8_t {
  kSched = 0,   // scheduler: task bodies, steals
  kExec = 1,    // graph executor: node tasks, joins, driver commit/staging
  kPager = 2,   // pager tier transitions: spill I/O, prefetch, waits
  kCodec = 3,   // codec encode/decode (sync and async paths)
  kSession = 4, // training loop phases: forward/backward brackets
  kServe = 5,   // serving: per-request spans, window encode/decode tasks
};
const char* cat_name(Cat cat);

namespace detail {

extern std::atomic<bool> g_enabled;

struct Ring;

// The calling thread's ring, allocating + registering it on first use.
// Only called from emit paths, i.e. only when tracing is enabled.
Ring* ring();

// Single-producer append of a completed span [t0_ns, t1_ns).
void emit(Ring* r, const char* name, Cat cat, std::uint64_t t0_ns,
          std::uint64_t t1_ns);

// Monotonic nanoseconds since process start (steady_clock).
std::uint64_t now_ns();

}  // namespace detail

// The one hot-path check. Relaxed: emitters may observe an enable/disable
// transition late, which only affects which events land in the ring.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// Programmatic control (EBCT_TRACE enables automatically at startup).
// ring_events sizes rings created *after* the call; 0 keeps the current
// (env or default) capacity. Existing rings are not resized.
void enable(std::size_t ring_events = 0);
void disable();

// Serialize every registered ring to Chrome trace-event JSON at `path`.
// Returns the number of events written; throws std::runtime_error when the
// file cannot be written. Safe to call while emitters run (see header
// comment); call after quiescing for a complete picture.
std::size_t flush(const std::string& path);

// Total events emitted / dropped-on-wrap across all rings since the last
// reset(). dropped() counts events no longer recoverable from any ring.
std::uint64_t emitted();
std::uint64_t dropped();

// Test helper: zero every ring and counter. Callers must ensure no thread
// is emitting concurrently (disable() first and quiesce the pool).
void reset();

// One-shot emission of an externally-timed span (for sites that already
// bracket with their own clock reads, e.g. the scheduler's steal timer).
// Times are detail::now_ns() values. No-op when disabled.
inline void emit_span(const char* name, Cat cat, std::uint64_t t0_ns,
                      std::uint64_t t1_ns) {
  if (enabled()) detail::emit(detail::ring(), name, cat, t0_ns, t1_ns);
}

// RAII span: records [construction, destruction) under `name` when tracing
// is enabled at construction time. `name` must be a string literal.
class Span {
 public:
  Span(const char* name, Cat cat) {
    if (enabled()) {
      name_ = name;
      cat_ = cat;
      t0_ = detail::now_ns();
    }
  }
  ~Span() {
    if (name_) detail::emit(detail::ring(), name_, cat_, t0_, detail::now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr = tracing was off at construction
  Cat cat_ = Cat::kSched;
  std::uint64_t t0_ = 0;
};

}  // namespace trace
}  // namespace obs
