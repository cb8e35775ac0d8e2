#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/env.hpp"

namespace obs {
namespace trace {

const char* cat_name(Cat cat) {
  switch (cat) {
    case Cat::kSched:   return "sched";
    case Cat::kExec:    return "exec";
    case Cat::kPager:   return "pager";
    case Cat::kCodec:   return "codec";
    case Cat::kSession: return "session";
    case Cat::kServe:   return "serve";
  }
  return "?";
}

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

// Ring capacity for rings created from now on. Power of two (emit indexes
// with a mask); default 65536 events ≈ 2.5 MB per emitting thread.
constexpr std::size_t kDefaultRingEvents = 1u << 16;
constexpr std::size_t kMinRingEvents = 256;
constexpr std::size_t kMaxRingEvents = 1u << 24;
std::atomic<std::size_t> g_ring_cap{kDefaultRingEvents};

std::size_t round_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Ring capacity for a requested event count: the power of two at or above
// it, within [kMinRingEvents, kMaxRingEvents]. Clamped before rounding, so
// a huge request cannot overflow the doubling loop.
std::size_t ring_cap_for(std::size_t n) {
  return std::max(kMinRingEvents, round_pow2(std::min(n, kMaxRingEvents)));
}

// Steady-clock origin captured at static init (single-threaded), so every
// emitted timestamp is a small "ns since process start" value.
const std::chrono::steady_clock::time_point g_origin =
    std::chrono::steady_clock::now();

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_origin)
          .count());
}

// One event slot. Every field is an atomic so a concurrent flush() is reads
// of atomics, never a data race; relaxed stores compile to plain moves on
// x86/ARM, so the emit path stays a handful of instructions.
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> t0{0};
  std::atomic<std::uint64_t> t1{0};
  std::atomic<std::uint8_t> cat{0};
};

struct Ring {
  explicit Ring(std::size_t capacity, std::size_t tid_)
      : slots(new Slot[capacity]), cap(capacity), mask(capacity - 1),
        tid(tid_) {}
  std::unique_ptr<Slot[]> slots;
  const std::size_t cap;
  const std::size_t mask;
  const std::size_t tid;  // stable per-ring id, becomes the trace "tid"
  // Total events ever emitted into this ring. Slot writes happen-before the
  // release store; flush pairs with an acquire load.
  std::atomic<std::uint64_t> count{0};
};

namespace {

struct Registry {
  std::mutex mu;
  std::vector<Ring*> rings;  // owned; never freed (process lifetime)
};

// Leaked deliberately: the atexit flush handler and late-exiting threads
// must be able to reach the rings regardless of static-destruction order.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

thread_local Ring* t_ring = nullptr;

}  // namespace

Ring* ring() {
  Ring* r = t_ring;
  if (r) return r;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  r = new Ring(g_ring_cap.load(std::memory_order_relaxed), reg.rings.size());
  reg.rings.push_back(r);
  t_ring = r;
  return r;
}

void emit(Ring* r, const char* name, Cat cat, std::uint64_t t0_ns,
          std::uint64_t t1_ns) {
  const std::uint64_t c = r->count.load(std::memory_order_relaxed);
  Slot& s = r->slots[c & r->mask];
  s.name.store(name, std::memory_order_relaxed);
  s.t0.store(t0_ns, std::memory_order_relaxed);
  s.t1.store(t1_ns, std::memory_order_relaxed);
  s.cat.store(static_cast<std::uint8_t>(cat), std::memory_order_relaxed);
  r->count.store(c + 1, std::memory_order_release);
}

}  // namespace detail

void enable(std::size_t ring_events) {
  if (ring_events > 0) {
    detail::g_ring_cap.store(detail::ring_cap_for(ring_events), std::memory_order_seq_cst);
  }
  detail::g_enabled.store(true, std::memory_order_seq_cst);
}

void disable() {
  detail::g_enabled.store(false, std::memory_order_seq_cst);
}

std::uint64_t emitted() {
  detail::Registry& reg = detail::registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::uint64_t total = 0;
  for (detail::Ring* r : reg.rings)
    total += r->count.load(std::memory_order_acquire);
  return total;
}

std::uint64_t dropped() {
  detail::Registry& reg = detail::registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  std::uint64_t total = 0;
  for (detail::Ring* r : reg.rings) {
    const std::uint64_t c = r->count.load(std::memory_order_acquire);
    if (c > r->cap) total += c - r->cap;
  }
  return total;
}

void reset() {
  detail::Registry& reg = detail::registry();
  std::lock_guard<std::mutex> lk(reg.mu);
  for (detail::Ring* r : reg.rings)
    r->count.store(0, std::memory_order_seq_cst);
}

namespace {

struct CopiedEvent {
  const char* name;
  std::uint64_t t0;
  std::uint64_t t1;
  std::uint8_t cat;
  std::size_t tid;
};

}  // namespace

std::size_t flush(const std::string& path) {
  // Snapshot every ring first (cheap atomic copies), then do file I/O.
  std::vector<CopiedEvent> events;
  std::uint64_t total_emitted = 0;
  std::uint64_t total_dropped = 0;
  std::size_t num_rings = 0;
  {
    detail::Registry& reg = detail::registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    num_rings = reg.rings.size();
    for (detail::Ring* r : reg.rings) {
      const std::uint64_t c = r->count.load(std::memory_order_acquire);
      const std::uint64_t start = c > r->cap ? c - r->cap : 0;
      const std::size_t first = events.size();
      for (std::uint64_t i = start; i < c; ++i) {
        const detail::Slot& s = r->slots[i & r->mask];
        events.push_back(CopiedEvent{
            s.name.load(std::memory_order_relaxed),
            s.t0.load(std::memory_order_relaxed),
            s.t1.load(std::memory_order_relaxed),
            s.cat.load(std::memory_order_relaxed), r->tid});
      }
      // Re-read the count: any event whose slot an emitter may have
      // overwritten during the copy is discarded rather than emitted torn.
      // (An emitter writes slot fields before publishing count c2, so
      // events with index <= c2 - cap are suspect; +1 covers the one write
      // that may be in flight but unpublished.)
      const std::uint64_t c2 = r->count.load(std::memory_order_acquire);
      const std::uint64_t safe_start =
          (c2 + 1 > r->cap) ? c2 + 1 - r->cap : 0;
      if (safe_start > start) {
        const std::uint64_t discard = safe_start - start;
        const std::size_t kept_end = events.size();
        const std::uint64_t copied = c - start;
        if (discard >= copied) {
          events.resize(first);
        } else {
          events.erase(events.begin() + static_cast<std::ptrdiff_t>(first),
                       events.begin() +
                           static_cast<std::ptrdiff_t>(first + discard));
        }
        (void)kept_end;
      }
      total_emitted += c;
      if (c > r->cap) total_dropped += c - r->cap;
    }
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("obs::trace::flush: cannot open " + path);

  // Chrome trace-event JSON (JSON Object Format). Span names and categories
  // are compile-time literals without quotes/backslashes, so they are
  // written verbatim. ts/dur are microseconds (double, ns resolution).
  out << "{\"displayTimeUnit\":\"ns\",\n\"otherData\":{\"emitted\":"
      << total_emitted << ",\"dropped\":" << total_dropped << "},\n"
      << "\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"ebct\"}}";
  for (std::size_t t = 0; t < num_rings; ++t) {
    out << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << t
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"ebct-thread-" << t
        << "\"}}";
  }
  char buf[256];
  for (const CopiedEvent& e : events) {
    const double ts_us = static_cast<double>(e.t0) / 1000.0;
    const double dur_us =
        static_cast<double>(e.t1 >= e.t0 ? e.t1 - e.t0 : 0) / 1000.0;
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"%s\"}",
                  e.tid, ts_us, dur_us, e.name ? e.name : "?",
                  cat_name(static_cast<Cat>(e.cat)));
    out << buf;
  }
  out << "\n]}\n";
  out.flush();
  if (!out) throw std::runtime_error("obs::trace::flush: write failed: " + path);
  return events.size();
}

namespace {

// EBCT_TRACE / EBCT_TRACE_RING_EVENTS are read here, at static init, so
// that tracing covers the whole process (including pre-main pool spin-up)
// without any call-site wiring. A malformed ring size fails closed like
// every other EBCT_* variable; there is no caller to throw to before main,
// so the message is printed and the process exits with status 2.
std::string* g_env_path = nullptr;

void flush_env_path() {
  if (!g_env_path || g_env_path->empty()) return;
  try {
    flush(*g_env_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[obs] EBCT_TRACE flush failed: %s\n", e.what());
  }
}

struct EnvInit {
  EnvInit() {
    try {
      const std::size_t n =
          ebct::core::env_count("EBCT_TRACE_RING_EVENTS", detail::kDefaultRingEvents);
      detail::g_ring_cap.store(detail::ring_cap_for(n), std::memory_order_seq_cst);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "[obs] %s\n", e.what());
      std::exit(2);
    }
    if (const char* path = std::getenv("EBCT_TRACE")) {
      if (*path) {
        g_env_path = new std::string(path);  // leaked: outlives atexit
        detail::g_enabled.store(true, std::memory_order_seq_cst);
        std::atexit(&flush_env_path);
      }
    }
  }
};
EnvInit g_env_init;

}  // namespace

}  // namespace trace
}  // namespace obs
