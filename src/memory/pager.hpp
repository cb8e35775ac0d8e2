#pragma once

/// \file pager.hpp
/// Tiered activation paging: the subsystem that turns the paper's measured
/// memory reduction into an *enforced* byte budget. Every saved-for-backward
/// payload in the process lives behind an ActivationPager handle in one of
/// three tiers:
///
///   tier 0 (raw)        : the tensor bytes, in RAM — exact pages,
///                         prefetched decode caches, and not-yet-encoded
///                         async puts;
///   tier 1 (compressed) : the SZ/lossless codec blob, in RAM;
///   tier 2 (spilled)    : the payload bytes in a SpillFile on disk,
///                         guarded by a checksum so corruption fails loudly.
///
/// A configurable budget caps tiers 0+1 (RAM residency). When a put, drop or
/// prefetch would exceed it the pager evicts by lifetime: every page carries
/// an order key (liveness rank, put sequence) approximating when the
/// backward pass will consume it, and the page needed *furthest* in the
/// future is evicted first. Without a graph attached the rank is always 0
/// and the key degenerates to the classic put-order heuristic (put order ==
/// forward layer order, consumed LIFO). With set_liveness() — ranks derived
/// from the graph IR's edges (graph/liveness.hpp) — the key is the *exact*
/// backward step that retrieves the page, which diverges from put order
/// wherever containers replay children out of stash order (a
/// ResidualBlock's shortcut). Eviction prefers freeing duplicate raw caches
/// (no I/O), then spills blobs (or exact raw bytes) to disk in that order.
///
/// Liveness also carries shared-producer groups: layers that lossily stash
/// the *same produced tensor* (Inception branch heads each cloning the
/// block input). When the codec certifies its encoding is identical across
/// two such layers (ActivationCodec::encoding_layer_invariant), later puts
/// of a group alias the first page instead of encoding a duplicate blob —
/// one physical payload, per-member handles — shrinking the resident
/// footprint without changing any reconstructed byte.
///
/// Determinism contract: the lossy codec transform is applied exactly once
/// per put — at encode — regardless of budget, pool size or prefetch
/// timing; every later movement (RAM <-> disk) is byte-preserving, and
/// exact pages never touch the codec. Training trajectories are therefore
/// byte-identical at any budget and any scheduler pool size; the budget
/// only moves bytes between RAM, disk and time.
///
/// Backward-pass prefetch: drop(h) (and prepare_backward()) submits
/// decompression / disk-read tasks for the next `prefetch_depth` pages in
/// reverse-sequence order onto the shared work-stealing pool
/// (tensor::sched::async), so layer k's activation is being fetched while
/// layer k+1's gradient computes. Prefetch respects budget headroom and is
/// purely a cache: skipping it never changes results.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/liveness.hpp"
#include "memory/accounting.hpp"
#include "memory/spill_file.hpp"
#include "nn/activation_store.hpp"
#include "tensor/sched.hpp"
#include "tensor/tensor.hpp"

namespace ebct::memory {

struct PagerConfig {
  /// RAM budget over tiers 0+1. 0 = unlimited (pages never spill). The
  /// budget is a hard target: the pager only rides above it while every
  /// RAM page is mid-I/O (counted in over_budget_events) and, in
  /// async-encode mode, by the bounded window of raw tensors awaiting
  /// encode.
  std::size_t budget_bytes = 0;

  /// Directory for the spill file; empty = the system temp directory. The
  /// file is created lazily on first spill and unlinked on destruction.
  std::string spill_dir;

  /// Pages materialized ahead of the backward-pass consumption order.
  std::size_t prefetch_depth = 2;

  /// Encode on the shared pool instead of put()'s thread (the retired
  /// AsyncCodecStore's double-buffered pipeline, minus its thread).
  bool async_encode = false;

  /// Max raw tensors awaiting async encode before put() applies
  /// backpressure (2 = classic double buffering).
  std::size_t encode_window = 2;

  /// Issue eviction spill writes as pool tasks instead of synchronously
  /// under the evicting call (write-behind). The budget still counts
  /// not-yet-written blobs: victims are picked against the settled
  /// projection (resident minus bytes already queued to disk) — the exact
  /// victim sequence the synchronous path picks, so eviction/spill counters
  /// are identical either way — but enforcement only returns once the
  /// *actual* resident bytes fit the target, so the RAM peak never exceeds
  /// the budget. The win is up to four concurrent writes (kWriteWindow in
  /// pager.cpp) plus the evicting thread helping the pool run compute
  /// while it waits.
  /// Default-on (soaked in tests/test_pager.cpp, including injected write
  /// failures); FrameworkConfig / EBCT_WRITE_BEHIND=0 is the opt-out.
  bool write_behind = true;
};

/// Per-pager counters: the one ledger of this pager's bytes and events.
struct PagerCounters {
  std::size_t resident_bytes = 0;       ///< tiers 0+1 now
  std::size_t peak_resident_bytes = 0;  ///< high-water of the above
  std::size_t raw_bytes = 0;            ///< tier 0 now
  std::size_t compressed_bytes = 0;     ///< tier 1 now
  std::size_t spilled_bytes = 0;        ///< tier 2 now
  std::size_t evictions = 0;
  std::size_t spill_write_bytes = 0;
  std::size_t spill_read_bytes = 0;
  std::size_t prefetch_submitted = 0;
  std::size_t prefetch_hits = 0;
  std::size_t over_budget_events = 0;
  std::size_t dedup_pages = 0;        ///< puts served by aliasing a group page
  std::size_t dedup_saved_bytes = 0;  ///< blob bytes those aliases did not add
};

using PageId = std::uint64_t;

class ActivationPager {
 public:
  ActivationPager(PagerConfig cfg, std::shared_ptr<nn::ActivationCodec> codec);
  ~ActivationPager();

  ActivationPager(const ActivationPager&) = delete;
  ActivationPager& operator=(const ActivationPager&) = delete;

  /// Store through the lossy codec (requires one). The codec transform is
  /// applied exactly once, here (or on the pool in async mode) — budget and
  /// tier movement never re-encode.
  PageId put(const std::string& layer, tensor::Tensor&& t);

  /// Store byte-exact (never routed through the codec; spills raw bytes).
  /// Safe for bitcast payloads such as argmax indices.
  PageId put_exact(const std::string& layer, tensor::Tensor&& t);

  /// Destructive take: return the reconstructed tensor and release every
  /// resource of the page (RAM, disk extent). Triggers prefetch of the next
  /// pages in reverse-sequence (backward) order. Throws std::logic_error on
  /// unknown handles; rethrows codec/spill failures.
  tensor::Tensor drop(PageId id);

  /// Hint that drops will now replay in consumption order: prefetch the
  /// first-consumed `prefetch_depth` pages (the backward pass's first
  /// needs — the last puts when no liveness is attached).
  void prepare_backward();

  /// Attach exact liveness derived from the graph IR. Future puts are
  /// keyed by (backward rank, sequence) instead of put order, and
  /// shared-producer groups become eligible for payload aliasing. Call
  /// before training; pages already stored keep their put-order keys.
  void set_liveness(graph::Liveness lv);
  bool has_liveness() const;

  /// Block until every in-flight encode/prefetch task has completed,
  /// helping the pool while waiting.
  void drain();

  Tier tier(PageId id) const;
  std::size_t num_pages() const;
  std::size_t resident_bytes() const;
  std::size_t spilled_bytes() const;
  PagerCounters counters() const;
  const PagerConfig& config() const { return cfg_; }
  /// Path of the spill file; empty until the first spill (tests corrupt it).
  std::string spill_path() const;

 private:
  /// Eviction/prefetch key: consumption order is ascending rank then
  /// *descending* sequence (LIFO among equally-ranked pages), so ascending
  /// OrderKey == the order the backward pass will drop pages. With no
  /// liveness every rank is 0 and the key reduces to reverse put order —
  /// bit-identical to the pre-liveness pager.
  struct OrderKey {
    std::uint64_t rank = 0;
    PageId seq = 0;
    bool operator<(const OrderKey& o) const {
      if (rank != o.rank) return rank < o.rank;
      return seq > o.seq;
    }
  };

  struct Page {
    std::string layer;
    PageId seq = 0;             ///< put order == forward layer order
    bool exact = false;         ///< bypasses the lossy codec everywhere
    tensor::Shape shape;

    tensor::Tensor raw;             ///< tier-0 payload / decode cache
    nn::EncodedActivation enc;      ///< tier-1 payload (lossy pages)
    bool encoded = false;           ///< enc holds valid bytes
    SpillExtent extent;             ///< tier-2 location
    std::uint64_t checksum = 0;     ///< FNV-1a of the spilled payload
    bool spilled = false;
    bool prefetched = false;        ///< raw was installed ahead of need

    /// A pool task (encode, fetch or spill write) or a materializing drop
    /// owns the payload right now: eviction skips the page, drop waits
    /// (sched::help_while on this flag). The task's last touch of the page
    /// is the release store clearing it, so once a waiter observes false
    /// the page may be freed; the task's Future lives in the pager-level
    /// task list, not here.
    std::atomic<bool> io_busy{false};
    std::exception_ptr error;       ///< deferred async failure, thrown at use

    /// Current position in order_ — the earliest consumption among members.
    OrderKey key;
    /// Every live handle sharing this page's payload (the page's own id
    /// included), each with its own consumption key. Size 1 except for
    /// shared-producer groups.
    std::map<PageId, OrderKey> members;
  };

  /// Alias handle -> owning page id (identity for non-aliases).
  PageId resolve_locked(PageId id) const;
  Page* find_locked(PageId id) const;
  /// Backward rank for `layer` under the attached liveness; layers absent
  /// from the rank map (auxiliary stashes such as LRN's ".scale") inherit
  /// the rank of the most recent ranked put, which preserves within-layer
  /// LIFO. Always 0 without liveness. Updates last_rank_; mu_ held.
  std::uint64_t rank_for_locked(const std::string& layer);
  /// Recompute the page's order_ position as the min member key; mu_ held.
  void reposition_locked(Page* p);
  /// Record the page as its share group's live primary (no-op when the
  /// layer is in no group); mu_ held.
  void register_group_locked(const std::string& layer, PageId id);
  /// Release every resource of the page and erase it (order_ included);
  /// mu_ held. Does not touch alias_of_ entries of other members.
  void erase_page_locked(PageId id);
  /// Wait (helping the pool) until the page's in-flight task finishes.
  /// Expects `lock` held; returns with it re-held.
  void wait_io(Page* p, std::unique_lock<std::mutex>& lock);
  /// Push the page's RAM payload (blob or exact raw) to the disk tier.
  /// Expects `lock` held and the page idle; releases it around
  /// the checksum+write. False when nothing was spillable.
  bool spill_payload(Page* p, std::unique_lock<std::mutex>& lock);
  /// Write-behind variant: queue the checksum+write as a pool task and
  /// return immediately. The payload stays in RAM accounting (and in
  /// pending_spill_bytes_) until the write lands; the page is io_busy for
  /// the duration. Expects `lock` held; releases it around task submission.
  void spill_payload_async(Page* p, std::unique_lock<std::mutex>& lock);
  /// Reconstruct the page's tensor from its current payload (disk read +
  /// checksum verify + decode, or decode from the resident blob). Called
  /// WITHOUT mu_ held; the caller must own the page via io_busy.
  tensor::Tensor load_payload(Page* p);
  /// Ensure page->raw is materialized (decode / disk read outside the
  /// lock). Expects `lock` held; returns with it re-held.
  void materialize(Page* p, std::unique_lock<std::mutex>& lock);
  /// Evict until tiers 0+1 fit in `target_bytes` (no-op when unbudgeted).
  /// Callers about to add B bytes pass budget-B so the *peak* — not just
  /// the settled value — respects the budget. Expects `lock` held; may
  /// release it around disk writes; returns with it re-held.
  void enforce_to(std::size_t target_bytes, std::unique_lock<std::mutex>& lock);
  /// Headroom helper: budget minus `incoming`, clamped at zero.
  std::size_t target_for(std::size_t incoming) const {
    return incoming >= cfg_.budget_bytes ? 0 : cfg_.budget_bytes - incoming;
  }
  /// Prefetch the next pages in consumption order: strictly after `after`,
  /// or from the first-consumed page when null (prepare_backward).
  void prefetch_ahead(const OrderKey* after, std::unique_lock<std::mutex>& lock);
  void submit_fetch(Page* p);
  SpillFile& spill_file_locked();

  // Tier bookkeeping helpers (mu_ held).
  void account_add(Tier t, std::size_t bytes);
  void account_sub(Tier t, std::size_t bytes);

  PagerConfig cfg_;
  std::shared_ptr<nn::ActivationCodec> codec_;

  mutable std::mutex mu_;
  std::map<PageId, std::unique_ptr<Page>> pages_;  ///< ordered by seq
  /// Pages by consumption order (one entry per page, keyed by the min
  /// member key): ascending = drop order, descending = eviction order.
  std::map<OrderKey, PageId> order_;
  /// Alias handle -> owning page (shared-producer group members).
  std::map<PageId, PageId> alias_of_;
  /// Share group id -> the group's live primary page this forward pass;
  /// cleared on every drop (content changes between passes).
  std::map<std::uint32_t, PageId> group_live_;
  graph::Liveness liveness_;
  bool has_liveness_ = false;
  std::uint64_t last_rank_ = 0;
  PageId next_ = 1;
  std::unique_ptr<SpillFile> spill_;  ///< created on first spill

  std::size_t raw_bytes_ = 0;
  std::size_t compressed_bytes_ = 0;
  std::size_t spilled_bytes_ = 0;
  std::size_t pending_fetch_bytes_ = 0;  ///< raw bytes of in-flight prefetches
  /// Payload bytes queued to disk by write-behind but not yet written; still
  /// part of raw_/compressed_ (the budget counts not-yet-written blobs).
  std::size_t pending_spill_bytes_ = 0;
  std::size_t pending_spill_count_ = 0;  ///< in-flight write-behind tasks
  /// Bumped once per write-behind completion (success or failure), under
  /// mu_; waiters poll it lock-free to learn "something landed, re-check".
  std::atomic<std::uint64_t> spill_gen_{0};
  /// First write-behind failure, rethrown from the next enforcement; the
  /// victim's payload stayed resident, so no bytes were lost.
  std::exception_ptr spill_error_;
  std::size_t peak_resident_ = 0;
  PagerCounters totals_;  ///< cumulative fields only (evictions, I/O, ...)
  std::atomic<std::size_t> encode_inflight_{0};

  /// Futures of submitted tasks, joined opportunistically (ready ones are
  /// pruned on put/drop) and fully in drain()/the destructor. Guarded by
  /// its own mutex so submission never nests inside mu_ (a one-thread pool
  /// runs async bodies inline, and those bodies take mu_).
  std::mutex tasks_mu_;
  std::vector<tensor::sched::Future> tasks_;
  void prune_tasks();
};

/// Virtual-handle marker: bit 63 of a StashHandle says the handle is owned
/// by the store's StashInterceptor (the graph executor), not the pager.
/// PageIds are sequential from 1, so a real handle can never carry it.
inline constexpr nn::StashHandle kInterceptHandleBit = nn::StashHandle{1} << 63;

/// Hook the graph executor installs on a PagedStore so that layer stashes
/// issued from concurrently running node tasks can be *deposited* without
/// touching the pager, then committed by the executor in deterministic
/// graph order — keeping pager sequence numbers (and therefore eviction
/// keys, dedup grouping and every counter) bitwise identical to the
/// sequential path at any pool size.
class StashInterceptor {
 public:
  virtual ~StashInterceptor() = default;

  /// Claim the stash: move from `act`, set `out` to a virtual handle (with
  /// kInterceptHandleBit set) and return true. Return false (leaving `act`
  /// untouched) to pass the stash through to the pager — the interceptor
  /// declines when the calling thread is not running one of its node tasks
  /// (e.g. a sequential evaluate() forward).
  virtual bool try_stash(const std::string& layer, tensor::Tensor& act,
                         bool exact, nn::StashHandle& out) = 0;

  /// Resolve a virtual handle back to its tensor (the executor replays the
  /// committed pager drops in consumption order ahead of the consumer).
  virtual tensor::Tensor retrieve(nn::StashHandle handle, bool exact) = 0;
};

/// ActivationStore adapter: the training-loop face of the pager and the one
/// codec-backed store — stash() puts through the codec, retrieve() drops
/// (with prefetch), and when a budget is active the store also claims the
/// layers' byte-exact saved state (pages_layer_state) so every
/// saved-for-backward byte is governed by one budget.
class PagedStore : public nn::ActivationStore {
 public:
  PagedStore(PagerConfig cfg, std::shared_ptr<nn::ActivationCodec> codec)
      : pager_(cfg, std::move(codec)) {}

  nn::StashHandle stash(const std::string& layer, tensor::Tensor&& act) override {
    if (auto* ic = interceptor_.load(std::memory_order_acquire)) {
      nn::StashHandle h = 0;
      if (ic->try_stash(layer, act, /*exact=*/false, h)) return h;
    }
    return pager_.put(layer, std::move(act));
  }
  tensor::Tensor retrieve(nn::StashHandle handle) override {
    if (handle & kInterceptHandleBit)
      return interceptor_.load(std::memory_order_acquire)->retrieve(handle, false);
    return pager_.drop(handle);
  }
  std::size_t held_bytes() const override { return pager_.resident_bytes(); }

  bool pages_layer_state() const override { return pager_.config().budget_bytes > 0; }
  nn::StashHandle stash_exact(const std::string& layer, tensor::Tensor&& t) override {
    if (auto* ic = interceptor_.load(std::memory_order_acquire)) {
      nn::StashHandle h = 0;
      if (ic->try_stash(layer, t, /*exact=*/true, h)) return h;
    }
    return pager_.put_exact(layer, std::move(t));
  }
  tensor::Tensor retrieve_exact(nn::StashHandle handle) override {
    if (handle & kInterceptHandleBit)
      return interceptor_.load(std::memory_order_acquire)->retrieve(handle, true);
    return pager_.drop(handle);
  }
  void prepare_backward() override { pager_.prepare_backward(); }

  /// Install (or clear, with nullptr) the executor's stash hook. Swap only
  /// between iterations — never while a forward/backward is in flight.
  void set_interceptor(StashInterceptor* ic) {
    interceptor_.store(ic, std::memory_order_release);
  }
  StashInterceptor* interceptor() const {
    return interceptor_.load(std::memory_order_acquire);
  }

  /// Executor-side pager access: commit a deposited stash in graph order
  /// (assigns the next pager sequence number) ...
  nn::StashHandle commit_stash(const std::string& layer, tensor::Tensor&& t, bool exact) {
    return exact ? pager_.put_exact(layer, std::move(t)) : pager_.put(layer, std::move(t));
  }
  /// ... and replay the committed drop for a real (pager) handle.
  tensor::Tensor direct_retrieve(nn::StashHandle handle) { return pager_.drop(handle); }

  /// Forward exact graph-derived liveness to the pager.
  void set_liveness(graph::Liveness lv) { pager_.set_liveness(std::move(lv)); }

  /// Block until pending async encodes/prefetches land (tests, shutdown).
  void drain() { pager_.drain(); }

  ActivationPager& pager() { return pager_; }
  const ActivationPager& pager() const { return pager_; }

 private:
  ActivationPager pager_;
  std::atomic<StashInterceptor*> interceptor_{nullptr};
};

}  // namespace ebct::memory
