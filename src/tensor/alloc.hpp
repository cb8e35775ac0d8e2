#pragma once

/// \file alloc.hpp
/// Thread-local scratch arena for transient workspace (im2col columns, GEMM
/// packing panels); being per-thread, it needs no locking.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ebct::tensor {

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
