#include "tensor/sched.hpp"

#include "core/env.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ebct::tensor::sched {

// ---------------------------------------------------------------------------
// Task representation. A TaskSet is the join object of one parallel call; it
// lives on the submitting thread's stack for the duration of the call (or
// inside a heap AsyncState for async() submissions). `remaining` counts
// indices (not tasks): it reaches zero exactly when every i in [0, n) has
// been executed, which is the join condition. Workers touch the set strictly
// before their final fetch_sub, so once the submitter observes zero the set
// can safely go out of scope. Namespace-scope (not anonymous) only so the
// header-declared detail::AsyncState can hold one.
// ---------------------------------------------------------------------------

struct TaskSet {
  void (*body)(void*, std::size_t, std::size_t);
  void* ctx;
  std::atomic<std::size_t> remaining;
  std::size_t grain;
  bool splittable;  ///< false for an async() single-task set
};

namespace {

struct Task {
  TaskSet* set;
  std::size_t begin;
  std::size_t end;
};

// ---------------------------------------------------------------------------
// Chase–Lev work-stealing deque (Chase & Lev, SPAA'05). Single owner
// pushes/pops at the bottom (LIFO, keeps the cache-hot half of a split
// local); any thread steals from the top (FIFO, hands thieves the largest
// unsplit range).
//
// Deviations from the textbook version, all deliberate:
//  - The buffer is fixed-size ("fixed-size task graph"): push reports
//    failure when full and the caller runs the range inline instead of
//    growing the array. Capacity 256 is far beyond the log2(n/grain) split
//    depth any real submission produces, so in practice push never fails;
//    the bound just makes memory use static and the code resize-free.
//  - Each cell's fields are individual relaxed atomics rather than one
//    plain struct. A thief reads the cell *before* its CAS on `top`
//    confirms ownership, so under wrap-around it can observe a cell the
//    owner is concurrently rewriting. The CAS fails in exactly that case
//    and the torn value is discarded — but the read itself must still be
//    data-race-free for TSan and the C++ memory model, hence atomics.
//  - top/bottom use seq_cst *operations*, not the fence-based formulation
//    of Lê et al. (PPoPP'13). Two reasons: the store-load orderings the
//    protocol needs (pop's bottom decrement vs top read, steal's top read
//    vs bottom read) fall out of the seq_cst total order without separate
//    reasoning, and — decisive here — the publication edge for the task
//    *payload* (cells plus the submitter-stack TaskSet behind the pointer)
//    must be carried by bottom's store-release pairing with the thief's
//    load-acquire, because thread fences are not modelled by TSan and a
//    sanitizer-hostile scheduler cannot be raced-gated in CI. The extra
//    fence per deque op is noise against task bodies that are µs-scale by
//    grain-policy construction.
// ---------------------------------------------------------------------------

struct Cell {
  std::atomic<TaskSet*> set{nullptr};
  std::atomic<std::size_t> begin{0};
  std::atomic<std::size_t> end{0};
};

constexpr std::size_t kDequeCap = 256;  // power of two
constexpr std::size_t kDequeMask = kDequeCap - 1;

struct alignas(64) Slot {
  std::atomic<std::int64_t> top{0};
  std::atomic<std::int64_t> bottom{0};
  std::atomic<bool> claimed{false};
  Cell cells[kDequeCap];
};

/// Owner-only push. False when full (caller runs the task inline). The
/// seq_cst bottom store is the publication point: everything sequenced
/// before it — the cell fields AND the submitter-stack TaskSet the cell
/// points at — becomes visible to a thief whose bottom load reads it.
bool deque_push(Slot& s, const Task& t) {
  const std::int64_t b = s.bottom.load(std::memory_order_relaxed);
  const std::int64_t top = s.top.load(std::memory_order_seq_cst);
  if (b - top >= static_cast<std::int64_t>(kDequeCap)) return false;
  Cell& c = s.cells[static_cast<std::size_t>(b) & kDequeMask];
  c.set.store(t.set, std::memory_order_relaxed);
  c.begin.store(t.begin, std::memory_order_relaxed);
  c.end.store(t.end, std::memory_order_relaxed);
  s.bottom.store(b + 1, std::memory_order_seq_cst);
  return true;
}

/// Owner-only pop from the bottom. The seq_cst order between the bottom
/// decrement and the top read is what stops owner and thief both taking a
/// sole remaining task.
bool deque_pop(Slot& s, Task& out) {
  const std::int64_t b = s.bottom.load(std::memory_order_relaxed) - 1;
  s.bottom.store(b, std::memory_order_seq_cst);
  std::int64_t t = s.top.load(std::memory_order_seq_cst);
  bool got = false;
  if (t <= b) {
    const Cell& c = s.cells[static_cast<std::size_t>(b) & kDequeMask];
    out.set = c.set.load(std::memory_order_relaxed);
    out.begin = c.begin.load(std::memory_order_relaxed);
    out.end = c.end.load(std::memory_order_relaxed);
    got = true;
    if (t == b) {
      // Last element: race the thieves for it.
      if (!s.top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                         std::memory_order_seq_cst)) {
        got = false;
      }
      s.bottom.store(b + 1, std::memory_order_seq_cst);
    }
  } else {
    s.bottom.store(b + 1, std::memory_order_seq_cst);
  }
  return got;
}

/// Thief-side steal from the top; any thread but the owner. The cell (and
/// the TaskSet it points at) may only be *used* after the CAS confirms this
/// thief owns entry t; a failed CAS discards the possibly-stale fields.
bool deque_steal(Slot& s, Task& out) {
  std::int64_t t = s.top.load(std::memory_order_seq_cst);
  const std::int64_t b = s.bottom.load(std::memory_order_seq_cst);
  if (t >= b) return false;
  const Cell& c = s.cells[static_cast<std::size_t>(t) & kDequeMask];
  Task task;
  task.set = c.set.load(std::memory_order_relaxed);
  task.begin = c.begin.load(std::memory_order_relaxed);
  task.end = c.end.load(std::memory_order_relaxed);
  if (!s.top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                     std::memory_order_seq_cst)) {
    return false;
  }
  out = task;
  return true;
}

// ---------------------------------------------------------------------------
// Slot registry. Slots are plain static storage (trivially destructible
// atomics) so a thread releasing its slot during thread exit never races
// static destruction of the scheduler itself. Pool workers and external
// submitters (main thread, the async codec store's thread, test threads)
// all claim from the same array; thieves scan all of it.
// ---------------------------------------------------------------------------

// Sized for manycore servers: 128 slots ≈ 0.8 MB of static task storage and
// a 2-load-per-slot steal scan, both cheap. Workers are capped below the
// slot count so external submitter threads (main, async codec stores,
// tests) can always claim one; a thread that finds no free slot just runs
// serially.
constexpr int kMaxSlots = 128;
constexpr int kMaxThreads = kMaxSlots - 16;

Slot g_slots[kMaxSlots];

Slot* claim_slot() {
  for (auto& s : g_slots) {
    bool expected = false;
    if (s.claimed.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
      return &s;
    }
  }
  return nullptr;
}

/// Thread-local lease: claimed on a thread's first submission (or at worker
/// startup) and released at thread exit. For the main thread, thread_local
/// destruction is sequenced before static destruction, so the release in
/// the destructor never touches freed scheduler state (and g_slots itself
/// is immortal).
struct SlotLease {
  Slot* slot = nullptr;
  bool tried = false;
  ~SlotLease() {
    if (slot != nullptr) slot->claimed.store(false, std::memory_order_release);
  }
};

thread_local SlotLease t_lease;

Slot* this_thread_slot() {
  if (!t_lease.tried) {
    t_lease.tried = true;
    t_lease.slot = claim_slot();
  }
  return t_lease.slot;
}

// ---------------------------------------------------------------------------
// Wake machinery + steal-latency histogram. File-scope (not Scheduler
// members) because the task-execution protocol is shared by three call
// sites — the workers, run()'s join loop and Future::wait()'s help loop —
// and the last runs on arbitrary external threads.
// ---------------------------------------------------------------------------

std::atomic<std::uint64_t> g_signal{0};
std::atomic<int> g_sleepers{0};
std::mutex g_wake_mu;
std::condition_variable g_wake_cv;

/// Wake sleeping workers. The signal bump is unconditional and ordered
/// before the sleeper check (see worker_main for the pairing argument).
void notify_workers() {
  g_signal.fetch_add(1, std::memory_order_seq_cst);
  if (g_sleepers.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lk(g_wake_mu);
    g_wake_cv.notify_all();
  }
}

// The histogram is the single source of truth: `recorded` totals are
// derived from the buckets at read time (every episode lands in exactly one
// bucket), so snapshot and drain stay internally consistent without a
// separate counter that could skew against the buckets mid-update.
std::atomic<std::uint64_t> g_steal_hist[StealStats::kBuckets];

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void record_steal_latency(std::uint64_t ns) {
  std::size_t idx = 0;
  while (ns > 1 && idx + 1 < StealStats::kBuckets) {
    ns >>= 1;
    ++idx;
  }
  g_steal_hist[idx].fetch_add(1, std::memory_order_relaxed);
}

/// Tracks one thread's idle episode: armed at the first failed acquisition
/// attempt, recorded into the histogram when a steal ends it. Clock reads
/// happen only on those two transitions, never per successful pop, so the
/// hot path is untouched.
struct IdleEpisode {
  std::uint64_t since = 0;
  void miss() {
    if (since == 0) since = now_ns();
  }
  void found_local() { since = 0; }
  void found_steal() {
    // First-attempt steals never armed the clock: count them as latency 0
    // (bucket 0) so the histogram's total matches the steal count without
    // a clock read on the hot path.
    if (since != 0) {
      const std::uint64_t waited = now_ns() - since;
      record_steal_latency(waited);
      if (obs::trace::enabled()) {
        // Translate the already-measured wait onto the trace clock with a
        // single extra read: [t1 - waited, t1) on the trace's origin.
        const std::uint64_t t1 = obs::trace::detail::now_ns();
        obs::trace::emit_span("sched.steal_wait", obs::trace::Cat::kSched,
                              t1 >= waited ? t1 - waited : 0, t1);
      }
    } else {
      record_steal_latency(0);
    }
    since = 0;
  }
};

bool try_steal(Slot* self, Task& out) {
  // Rotating start index decorrelates victims across thieves.
  thread_local unsigned rot =
      static_cast<unsigned>(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  rot = rot * 1664525u + 1013904223u;
  const unsigned start = rot % kMaxSlots;
  for (unsigned i = 0; i < kMaxSlots; ++i) {
    Slot* victim = &g_slots[(start + i) % kMaxSlots];
    if (victim == self) continue;
    if (deque_steal(*victim, out)) return true;
  }
  return false;
}

/// Execute a range task, splitting off the upper half for thieves while
/// the range still exceeds the set's grain (help-first: publish before
/// compute). The final fetch_sub is the worker's last touch of the set.
/// noexcept on purpose: a body that throws mid-set would unwind the
/// submitter's stack-resident TaskSet under running workers; terminating
/// instead matches the OpenMP-parallel-region semantics this scheduler
/// replaced (the serial path in run() still propagates normally; async()
/// bodies catch into their AsyncState before reaching here).
void execute(const Task& t, Slot* slot) noexcept {
  TaskSet* s = t.set;
  std::size_t b = t.begin;
  std::size_t e = t.end;
  if (s->splittable && slot != nullptr) {
    while (e - b > s->grain) {
      const std::size_t mid = b + (e - b) / 2;
      if (!deque_push(*slot, {s, mid, e})) break;
      notify_workers();
      e = mid;
    }
  }
  {
    obs::trace::Span span("sched.task", obs::trace::Cat::kSched);
    s->body(s->ctx, b, e);
  }
  s->remaining.fetch_sub(e - b, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Scheduler: worker lifecycle + the submit/join protocol.
// ---------------------------------------------------------------------------

class Scheduler {
 public:
  static Scheduler& instance() {
    static Scheduler s;
    return s;
  }

  int threads() const { return threads_.load(std::memory_order_relaxed); }

  void set_threads(int n) {
    if (n < 1) n = 1;
    if (n > kMaxThreads) n = kMaxThreads;
    std::lock_guard<std::mutex> config_lock(config_mu_);
    if (n == threads_.load(std::memory_order_relaxed)) return;
    stop_workers();
    start_workers(n);
  }

  void run(std::size_t n, std::size_t grain,
           void (*body)(void*, std::size_t, std::size_t), void* ctx) {
    if (n == 0) return;
    if (grain == 0) grain = 1;
    // A range that fits in one grain never forks.
    Slot* slot = nullptr;
    if (n > grain && threads() > 1) slot = this_thread_slot();
    if (slot == nullptr) {
      // Serial: one thread configured, one grain of work, or no free
      // submitter slot (extreme external-thread pressure).
      body(ctx, 0, n);
      return;
    }

    // Once a set is published, every body invocation must be no-throw (see
    // execute()): an unwind past the stack-resident set while workers hold
    // its address would be use-after-scope.
    TaskSet set{body, ctx, {n}, grain, /*splittable=*/true};
    if (deque_push(*slot, {&set, 0, n})) {
      // Publish the whole range; the join loop below pops it straight back
      // and execute() fans it out (help-first), racing the woken workers.
      notify_workers();
    } else {
      body(ctx, 0, n);
      return;
    }

    // Join: drain our own deque, then steal. Stolen tasks may belong to
    // *other* sets (an outer batch loop, a sibling submission) — executing
    // them here is what lets nested levels share one pool without anyone
    // blocking. A joining thread never sleeps.
    Task t;
    IdleEpisode idle;
    while (set.remaining.load(std::memory_order_acquire) != 0) {
      if (deque_pop(*slot, t)) {
        idle.found_local();
        execute(t, slot);
      } else if (try_steal(slot, t)) {
        idle.found_steal();
        execute(t, slot);
      } else {
        idle.miss();
        std::this_thread::yield();
      }
    }
  }

 private:
  Scheduler() {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t n = core::env_count("EBCT_SCHED_THREADS", hw);
    start_workers(static_cast<int>(std::min<std::size_t>(n, kMaxThreads)));
  }

  ~Scheduler() { stop_workers(); }

  void start_workers(int total) {
    stop_.store(false, std::memory_order_relaxed);
    threads_.store(total, std::memory_order_relaxed);
    workers_.reserve(static_cast<std::size_t>(total - 1));
    for (int i = 1; i < total; ++i) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  void stop_workers() {
    stop_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(g_wake_mu);
      g_signal.fetch_add(1, std::memory_order_release);
      g_wake_cv.notify_all();
    }
    for (auto& w : workers_) w.join();
    workers_.clear();
    threads_.store(1, std::memory_order_relaxed);
  }

  void worker_main() {
    Slot* slot = this_thread_slot();
    IdleEpisode idle;
    while (!stop_.load(std::memory_order_acquire)) {
      // `seen` is recorded before the scan: a task pushed after this load
      // bumps the signal past `seen` and the sleep predicate fails, so the
      // push is never missed. A task pushed before it is visible to the
      // scan (the signal bump's release pairs with this acquire).
      const std::uint64_t seen = g_signal.load(std::memory_order_acquire);
      bool found = false;
      Task t;
      for (int spin = 0; spin < 64; ++spin) {
        if (slot != nullptr && deque_pop(*slot, t)) {
          idle.found_local();
          execute(t, slot);
          found = true;
          break;
        }
        if (try_steal(slot, t)) {
          idle.found_steal();
          execute(t, slot);
          found = true;
          break;
        }
        idle.miss();
        std::this_thread::yield();
      }
      if (found) continue;
      // Sleeping is idleness, not scan latency: drop the episode so the
      // histogram reflects responsiveness under load only.
      idle.found_local();
      g_sleepers.fetch_add(1, std::memory_order_seq_cst);
      {
        std::unique_lock<std::mutex> lk(g_wake_mu);
        g_wake_cv.wait(lk, [&] {
          return stop_.load(std::memory_order_relaxed) ||
                 g_signal.load(std::memory_order_relaxed) != seen;
        });
      }
      g_sleepers.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  std::vector<std::thread> workers_;
  std::atomic<int> threads_{1};
  std::atomic<bool> stop_{false};
  std::mutex config_mu_;
};

}  // namespace

int num_threads() { return Scheduler::instance().threads(); }

void set_num_threads(int n) { Scheduler::instance().set_threads(n); }

// ---------------------------------------------------------------------------
// async(): one fire-and-forget task on the pool, joined through a Future.
// The state is heap-shared because the executing worker's last touch of the
// TaskSet (the remaining fetch_sub in execute()) happens *after* the body
// returns — the submitter must keep the set alive until it observes zero.
// ---------------------------------------------------------------------------

namespace detail {
struct AsyncState {
  std::function<void()> fn;
  std::exception_ptr error;  ///< written before remaining's release decrement
  TaskSet set;
};
}  // namespace detail

namespace {
void run_async_body(void* ctx, std::size_t, std::size_t) {
  auto* st = static_cast<detail::AsyncState*>(ctx);
  try {
    st->fn();
  } catch (...) {
    st->error = std::current_exception();
  }
}
}  // namespace

Future async(std::function<void()> fn) {
  auto st = std::make_shared<detail::AsyncState>();
  st->fn = std::move(fn);
  st->set.body = run_async_body;
  st->set.ctx = st.get();
  st->set.remaining.store(1, std::memory_order_relaxed);
  st->set.grain = 1;
  st->set.splittable = false;
  Slot* slot = Scheduler::instance().threads() > 1 ? this_thread_slot() : nullptr;
  if (slot != nullptr && deque_push(*slot, {&st->set, 0, 1})) {
    notify_workers();
  } else {
    // Single-threaded pool, no free slot, or a full deque: run inline. The
    // Future is already constructed-compatible — just mark it done.
    run_async_body(st.get(), 0, 1);
    st->set.remaining.store(0, std::memory_order_release);
  }
  return Future(std::move(st));
}

Future& Future::operator=(Future&& o) noexcept {
  if (this != &o) {
    if (state_ != nullptr) {
      try {
        wait();
      } catch (...) {
        // Overwritten before observation: the exception has no consumer.
      }
    }
    state_ = std::move(o.state_);
  }
  return *this;
}

Future::~Future() {
  if (state_ != nullptr) {
    try {
      wait();
    } catch (...) {
      // Destructor join, like std::jthread: the exception has no consumer.
    }
  }
}

bool Future::ready() const {
  return state_ != nullptr &&
         state_->set.remaining.load(std::memory_order_acquire) == 0;
}

void Future::wait() {
  if (state_ == nullptr) return;
  detail::AsyncState* st = state_.get();
  Slot* slot = this_thread_slot();  // may be null under extreme slot pressure
  Task t;
  IdleEpisode idle;
  while (st->set.remaining.load(std::memory_order_acquire) != 0) {
    if (slot != nullptr && deque_pop(*slot, t)) {
      idle.found_local();
      execute(t, slot);
    } else if (try_steal(slot, t)) {
      idle.found_steal();
      execute(t, slot);
    } else {
      idle.miss();
      std::this_thread::yield();
    }
  }
  std::shared_ptr<detail::AsyncState> done = std::move(state_);
  if (done->error) std::rethrow_exception(done->error);
}

void help_while(const std::function<bool()>& done) {
  Slot* slot = this_thread_slot();
  Task t;
  IdleEpisode idle;
  while (!done()) {
    if (slot != nullptr && deque_pop(*slot, t)) {
      idle.found_local();
      execute(t, slot);
    } else if (try_steal(slot, t)) {
      idle.found_steal();
      execute(t, slot);
    } else {
      idle.miss();
      std::this_thread::yield();
    }
  }
}

StealStats steal_stats() {
  StealStats s;
  for (std::size_t i = 0; i < StealStats::kBuckets; ++i) {
    s.bucket[i] = g_steal_hist[i].load(std::memory_order_relaxed);
    s.recorded += s.bucket[i];
  }
  return s;
}

StealStats drain_steal_stats() {
  // Per-bucket exchange(0): each episode is observed by exactly one drain.
  // Concurrent recorders may land in a bucket this loop already passed and
  // be picked up by the *next* drain — never lost, never double-counted.
  StealStats s;
  for (std::size_t i = 0; i < StealStats::kBuckets; ++i) {
    s.bucket[i] = g_steal_hist[i].exchange(0, std::memory_order_relaxed);
    s.recorded += s.bucket[i];
  }
  return s;
}

namespace detail {
void run_range(std::size_t n, std::size_t grain,
               void (*body)(void*, std::size_t, std::size_t), void* ctx) {
  Scheduler::instance().run(n, grain, body, ctx);
}
}  // namespace detail

}  // namespace ebct::tensor::sched
