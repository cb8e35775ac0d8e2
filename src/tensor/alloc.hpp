#pragma once

/// \file alloc.hpp
/// Global allocation tracker for tensor buffers plus a thread-local scratch
/// arena for transient workspace (im2col columns, GEMM packing panels).
/// Every Tensor reports its byte footprint to the tracker, giving the memory
/// module exact live/peak statistics without intercepting malloc; scratch
/// buffers are deliberately *not* tracked there so workspace reuse does not
/// distort the paper's activation-memory figures. Tracker is thread-safe via
/// atomics; the arena is thread-local and needs no locking.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ebct::tensor {

/// Process-wide counters of tensor memory. Peak tracking uses a CAS loop so
/// concurrent allocations never under-report the high-water mark.
class AllocTracker {
 public:
  static AllocTracker& instance() {
    static AllocTracker t;
    return t;
  }

  void on_alloc(std::size_t bytes) {
    const std::size_t now = live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    total_allocated_.fetch_add(bytes, std::memory_order_relaxed);
    alloc_count_.fetch_add(1, std::memory_order_relaxed);
    std::size_t prev = peak_.load(std::memory_order_relaxed);
    while (now > prev && !peak_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }

  void on_free(std::size_t bytes) { live_.fetch_sub(bytes, std::memory_order_relaxed); }

  std::size_t live_bytes() const { return live_.load(std::memory_order_relaxed); }
  std::size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  std::size_t total_allocated_bytes() const {
    return total_allocated_.load(std::memory_order_relaxed);
  }
  std::size_t alloc_count() const { return alloc_count_.load(std::memory_order_relaxed); }

  /// Reset the peak to the current live size (start of a measured region).
  void reset_peak() { peak_.store(live_.load(std::memory_order_relaxed), std::memory_order_relaxed); }

 private:
  AllocTracker() = default;
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::size_t> total_allocated_{0};
  std::atomic<std::size_t> alloc_count_{0};
};

/// RAII scope that measures the peak tensor memory between construction and
/// `peak_delta()` queries. Only valid when scopes are not interleaved across
/// threads (benchmark usage).
class PeakScope {
 public:
  PeakScope() : base_(AllocTracker::instance().live_bytes()) {
    AllocTracker::instance().reset_peak();
  }
  /// Peak bytes above the live baseline when this scope began.
  std::size_t peak_delta() const {
    const std::size_t p = AllocTracker::instance().peak_bytes();
    return p > base_ ? p - base_ : 0;
  }

 private:
  std::size_t base_;
};

/// Thread-local pool of reusable float workspace blocks. Hot paths that need
/// a transient buffer per sample (im2col columns, packed GEMM panels) borrow
/// one via ScratchBuffer instead of constructing a fresh std::vector: after
/// the first iteration every acquire is a free-list hit, so steady-state
/// training does zero workspace mallocs. Blocks are handed back uncleared —
/// callers must fully write what they read. Nesting is safe (a conv column
/// buffer can be live while the GEMM inside borrows packing panels); blocks
/// are keyed in-use/free, not stack-ordered.
class ScratchArena {
 public:
  static ScratchArena& local() {
    thread_local ScratchArena arena;
    return arena;
  }

  /// Total bytes this thread's arena has ever allocated (diagnostics).
  std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  ScratchArena() = default;
  struct Block {
    std::unique_ptr<float[]> mem;
    std::size_t cap = 0;
    bool in_use = false;
  };

  /// Smallest free block that fits, else a new geometrically-sized block.
  std::size_t acquire(std::size_t count) {
    std::size_t best = blocks_.size();
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      const Block& b = blocks_[i];
      if (b.in_use || b.cap < count) continue;
      if (best == blocks_.size() || b.cap < blocks_[best].cap) best = i;
    }
    if (best == blocks_.size()) {
      std::size_t cap = 1024;
      while (cap < count) cap *= 2;
      blocks_.push_back({std::make_unique<float[]>(cap), cap, false});
      capacity_bytes_ += cap * sizeof(float);
    }
    blocks_[best].in_use = true;
    return best;
  }

  void release(std::size_t index) { blocks_[index].in_use = false; }

  std::vector<Block> blocks_;
  std::size_t capacity_bytes_ = 0;

  friend class ScratchBuffer;
};

/// RAII borrow of an arena block. Must be released on the thread that
/// acquired it (automatic when used as a local inside a parallel task).
/// When the buffer is shared with parallel tasks (fixed-partition grad
/// reductions), resolve data() on the owning thread *before* submitting:
/// data() walks the arena's bookkeeping, which the owner mutates whenever
/// it acquires nested scratch while helping execute tasks. The block
/// memory itself is stable, so the resolved pointer stays valid.
class ScratchBuffer {
 public:
  explicit ScratchBuffer(std::size_t count)
      : arena_(&ScratchArena::local()), index_(arena_->acquire(count)), count_(count) {}
  ~ScratchBuffer() { arena_->release(index_); }

  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  float* data() { return arena_->blocks_[index_].mem.get(); }
  const float* data() const { return arena_->blocks_[index_].mem.get(); }
  std::size_t size() const { return count_; }

 private:
  ScratchArena* arena_;
  std::size_t index_;
  std::size_t count_;
};

}  // namespace ebct::tensor
