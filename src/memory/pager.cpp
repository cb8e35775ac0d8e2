#include "memory/pager.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace ebct::memory {

using tensor::Tensor;

namespace {

/// Max in-flight write-behind spills before eviction waits for one.
constexpr std::size_t kWriteWindow = 4;

/// FNV-1a 64 over a byte span: the spill-payload integrity check. Disk
/// corruption of a lossy blob would often be caught by the SZ header
/// guards, but a flipped bit deep in the Huffman payload — or anywhere in
/// an exact page's raw bytes — reconstructs silently wrong values; the
/// checksum turns every such case into a loud failure at fetch time.
std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

ActivationPager::ActivationPager(PagerConfig cfg, std::shared_ptr<nn::ActivationCodec> codec)
    : cfg_(std::move(cfg)), codec_(std::move(codec)) {
  if (cfg_.encode_window == 0) cfg_.encode_window = 1;
}

ActivationPager::~ActivationPager() {
  try {
    drain();
  } catch (const std::exception& e) {
    // Destructor drain: can't throw. A late write-behind spill failure
    // (or a fetch error parked in a page slot) dies with the pager, so at
    // least leave a trace instead of swallowing it silently.
    std::fprintf(stderr, "ebct: pager teardown swallowed spill error: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "ebct: pager teardown swallowed spill error\n");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, p] : pages_) {
    if (p->spilled && spill_) spill_->free_extent(p->extent);
    if (p->raw.numel() > 0) account_sub(Tier::kRaw, p->raw.bytes());
    if (p->encoded) account_sub(Tier::kCompressed, p->enc.bytes.size());
    if (p->spilled) account_sub(Tier::kSpilled, p->extent.size);
  }
  pages_.clear();
}

// ---------------------------------------------------------------------------
// Bookkeeping helpers (mu_ held).
// ---------------------------------------------------------------------------

void ActivationPager::account_add(Tier t, std::size_t bytes) {
  switch (t) {
    case Tier::kRaw:
      raw_bytes_ += bytes;
      break;
    case Tier::kCompressed:
      compressed_bytes_ += bytes;
      break;
    case Tier::kSpilled:
      spilled_bytes_ += bytes;
      break;
  }
  peak_resident_ = std::max(peak_resident_, raw_bytes_ + compressed_bytes_);
}

void ActivationPager::account_sub(Tier t, std::size_t bytes) {
  switch (t) {
    case Tier::kRaw:
      raw_bytes_ -= bytes;
      break;
    case Tier::kCompressed:
      compressed_bytes_ -= bytes;
      break;
    case Tier::kSpilled:
      spilled_bytes_ -= bytes;
      break;
  }
}

ActivationPager::Page* ActivationPager::find_locked(PageId id) const {
  auto it = pages_.find(id);
  return it == pages_.end() ? nullptr : it->second.get();
}

PageId ActivationPager::resolve_locked(PageId id) const {
  auto it = alias_of_.find(id);
  return it == alias_of_.end() ? id : it->second;
}

std::uint64_t ActivationPager::rank_for_locked(const std::string& layer) {
  if (!has_liveness_) return 0;
  auto it = liveness_.rank.find(layer);
  if (it != liveness_.rank.end()) {
    last_rank_ = it->second;
    return it->second;
  }
  return last_rank_;
}

void ActivationPager::reposition_locked(Page* p) {
  order_.erase(p->key);
  OrderKey min = p->members.begin()->second;
  for (const auto& [id, k] : p->members)
    if (k < min) min = k;
  p->key = min;
  order_[p->key] = p->seq;
}

void ActivationPager::register_group_locked(const std::string& layer, PageId id) {
  if (!has_liveness_) return;
  auto it = liveness_.share_group.find(layer);
  if (it != liveness_.share_group.end()) group_live_[it->second] = id;
}

void ActivationPager::erase_page_locked(PageId id) {
  Page* p = find_locked(id);
  if (p == nullptr) return;
  if (p->spilled && spill_) {
    spill_->free_extent(p->extent);
    account_sub(Tier::kSpilled, p->extent.size);
  }
  if (p->raw.numel() > 0) account_sub(Tier::kRaw, p->raw.bytes());
  if (p->encoded) account_sub(Tier::kCompressed, p->enc.bytes.size());
  order_.erase(p->key);
  pages_.erase(id);
}

void ActivationPager::set_liveness(graph::Liveness lv) {
  std::lock_guard<std::mutex> lock(mu_);
  liveness_ = std::move(lv);
  has_liveness_ = true;
  last_rank_ = 0;
  group_live_.clear();
}

bool ActivationPager::has_liveness() const {
  std::lock_guard<std::mutex> lock(mu_);
  return has_liveness_;
}

SpillFile& ActivationPager::spill_file_locked() {
  if (!spill_) spill_ = std::make_unique<SpillFile>(cfg_.spill_dir);
  return *spill_;
}

void ActivationPager::prune_tasks() {
  std::lock_guard<std::mutex> g(tasks_mu_);
  std::vector<tensor::sched::Future> keep;
  keep.reserve(tasks_.size());
  for (auto& f : tasks_) {
    if (f.ready()) {
      f.wait();  // instant; pager bodies never leak exceptions to the Future
    } else {
      keep.push_back(std::move(f));
    }
  }
  tasks_ = std::move(keep);
}

// ---------------------------------------------------------------------------
// put: the only place the lossy transform happens.
// ---------------------------------------------------------------------------

PageId ActivationPager::put(const std::string& layer, Tensor&& t) {
  if (!codec_) throw std::logic_error("ActivationPager::put: no codec attached");
  prune_tasks();

  // Shared-producer dedup: when the graph's edges say this layer stashes
  // the same produced tensor as a live page of this forward pass (the
  // stashed clones are byte-equal), and the codec certifies its encoding
  // does not depend on which of the two layer names it runs under, alias
  // the existing page instead of encoding a duplicate blob. The alias
  // reconstructs from the same bytes the skipped encode would have
  // produced, so training output is unchanged; only the resident footprint
  // shrinks. Groups never survive a drop (group_live_ is cleared there),
  // so aliasing can only pair puts from one uninterrupted forward pass.
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (has_liveness_) {
      auto git = liveness_.share_group.find(layer);
      if (git != liveness_.share_group.end()) {
        auto live = group_live_.find(git->second);
        Page* prim = live == group_live_.end() ? nullptr : find_locked(live->second);
        if (prim != nullptr && !prim->exact && prim->shape == t.shape() &&
            codec_->encoding_layer_invariant(prim->layer, layer)) {
          const PageId id = next_++;
          const OrderKey key{rank_for_locked(layer), id};
          alias_of_[id] = prim->seq;
          prim->members.emplace(id, key);
          reposition_locked(prim);
          totals_.dedup_pages += 1;
          if (prim->encoded) totals_.dedup_saved_bytes += prim->enc.bytes.size();
          return id;
        }
      }
    }
  }

  if (!cfg_.async_encode) {
    // Encode on the caller (outside mu_: the codec forks pool tasks, and
    // helping-join loops must never run under the pager lock).
    nn::EncodedActivation enc;
    {
      obs::trace::Span span("codec.encode", obs::trace::Cat::kCodec);
      obs::ScopedPhase ph(obs::Phase::kEncode);
      enc = codec_->encode(layer, t);
    }
    enc.shape = t.shape();
    enc.layer = layer;
    std::unique_lock<std::mutex> lock(mu_);
    // Make room *before* the blob lands so the resident peak, not just the
    // settled value, respects the budget.
    enforce_to(target_for(enc.bytes.size()), lock);
    const PageId id = next_++;
    auto page = std::make_unique<Page>();
    page->layer = layer;
    page->seq = id;
    page->shape = t.shape();
    page->enc = std::move(enc);
    page->encoded = true;
    page->key = OrderKey{rank_for_locked(layer), id};
    page->members.emplace(id, page->key);
    account_add(Tier::kCompressed, page->enc.bytes.size());
    order_[page->key] = id;
    pages_.emplace(id, std::move(page));
    register_group_locked(layer, id);
    // See put_exact: a failed victim spill must not strand a page whose
    // handle the caller never receives.
    try {
      enforce_to(cfg_.budget_bytes, lock);
    } catch (...) {
      erase_page_locked(id);
      throw;
    }
    return id;
  }

  // Async: bounded backpressure first, so raw tensors awaiting encode never
  // accumulate past the window (that would defeat the budget).
  if (encode_inflight_.load(std::memory_order_acquire) >= cfg_.encode_window) {
    obs::trace::Span span("pager.encode_wait", obs::trace::Cat::kPager);
    obs::ScopedPhase ph(obs::Phase::kSpillWait);
    tensor::sched::help_while([this] {
      return encode_inflight_.load(std::memory_order_acquire) < cfg_.encode_window;
    });
  }

  Page* p = nullptr;
  PageId id = 0;
  {
    const std::size_t original = t.bytes();
    std::unique_lock<std::mutex> lock(mu_);
    enforce_to(target_for(original), lock);
    id = next_++;
    auto page = std::make_unique<Page>();
    p = page.get();
    p->layer = layer;
    p->seq = id;
    p->shape = t.shape();
    p->raw = std::move(t);
    p->io_busy.store(true, std::memory_order_relaxed);
    p->key = OrderKey{rank_for_locked(layer), id};
    p->members.emplace(id, p->key);
    account_add(Tier::kRaw, original);
    order_[p->key] = id;
    pages_.emplace(id, std::move(page));
    register_group_locked(layer, id);
    // Settle again: when older pages were mid-I/O the pre-insert pass could
    // not make room. The new page is io_busy until its encode lands, so it
    // is never a victim here; with nothing else evictable the overshoot is
    // counted in over_budget_events. If a victim's spill write fails,
    // unwind the just-inserted page: its stuck busy flag (the encode task
    // is not submitted yet) would hang every later waiter.
    try {
      enforce_to(cfg_.budget_bytes, lock);
    } catch (...) {
      erase_page_locked(id);
      throw;
    }
  }
  encode_inflight_.fetch_add(1, std::memory_order_relaxed);
  // Submit outside mu_: on a one-thread pool the body runs inline here.
  auto fut = tensor::sched::async([this, p] {
    try {
      nn::EncodedActivation enc;
      {
        obs::trace::Span span("codec.encode", obs::trace::Cat::kCodec);
        obs::ScopedPhase ph(obs::Phase::kEncode);
        enc = codec_->encode(p->layer, p->raw);
      }
      enc.shape = p->shape;
      enc.layer = p->layer;
      std::lock_guard<std::mutex> lock(mu_);
      account_sub(Tier::kRaw, p->raw.bytes());
      p->raw = Tensor();
      p->enc = std::move(enc);
      p->encoded = true;
      account_add(Tier::kCompressed, p->enc.bytes.size());
      encode_inflight_.fetch_sub(1, std::memory_order_release);
      p->io_busy.store(false, std::memory_order_release);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      p->error = std::current_exception();
      encode_inflight_.fetch_sub(1, std::memory_order_release);
      p->io_busy.store(false, std::memory_order_release);
    }
  });
  {
    std::lock_guard<std::mutex> g(tasks_mu_);
    tasks_.push_back(std::move(fut));
  }
  return id;
}

PageId ActivationPager::put_exact(const std::string& layer, Tensor&& t) {
  const std::size_t bytes = t.bytes();
  std::unique_lock<std::mutex> lock(mu_);
  enforce_to(target_for(bytes), lock);
  const PageId id = next_++;
  auto page = std::make_unique<Page>();
  page->layer = layer;
  page->seq = id;
  page->exact = true;
  page->shape = t.shape();
  page->raw = std::move(t);
  page->key = OrderKey{rank_for_locked(layer), id};
  page->members.emplace(id, page->key);
  account_add(Tier::kRaw, bytes);
  order_[page->key] = id;
  pages_.emplace(id, std::move(page));
  // Exact pages are deliberately never registered as dedup candidates: an
  // alias reconstructs through the shared payload, and the exact contract
  // promises this page's very own bytes back.
  // Hard budget: if busy pages blocked the pre-insert pass, the newest
  // page is the last-resort victim. On a failed spill write the caller
  // gets the exception, not a handle — so the page must not stay behind.
  try {
    enforce_to(cfg_.budget_bytes, lock);
  } catch (...) {
    erase_page_locked(id);
    throw;
  }
  return id;
}

// ---------------------------------------------------------------------------
// Materialization (tiers 2/1 -> 0) and the in-flight wait protocol.
// ---------------------------------------------------------------------------

void ActivationPager::wait_io(Page* p, std::unique_lock<std::mutex>& lock) {
  if (!p->io_busy.load(std::memory_order_acquire)) return;
  lock.unlock();
  {
    obs::trace::Span span("pager.io_wait", obs::trace::Cat::kPager);
    obs::ScopedPhase ph(obs::Phase::kSpillWait);
    tensor::sched::help_while([p] { return !p->io_busy.load(std::memory_order_acquire); });
  }
  lock.lock();
}

Tensor ActivationPager::load_payload(Page* p) {
  if (p->spilled && !p->encoded) {
    std::vector<std::uint8_t> buf(p->extent.size);
    {
      obs::trace::Span span("pager.spill_read", obs::trace::Cat::kPager);
      obs::ScopedPhase ph(obs::Phase::kSpillRead);
      spill_->read(p->extent, buf.data());
    }
    if (fnv1a(buf.data(), buf.size()) != p->checksum)
      throw std::runtime_error(
          "ActivationPager: spill payload corrupt (checksum mismatch) for page of layer '" +
          p->layer + "'");
    if (p->exact) {
      Tensor out(p->shape);
      std::memcpy(out.data(), buf.data(), buf.size());
      return out;
    }
    nn::EncodedActivation enc;
    enc.bytes = std::move(buf);
    enc.shape = p->shape;
    enc.layer = p->layer;
    obs::trace::Span span("codec.decode", obs::trace::Cat::kCodec);
    obs::ScopedPhase ph(obs::Phase::kDecode);
    return codec_->decode(enc);
  }
  if (p->encoded) {
    obs::trace::Span span("codec.decode", obs::trace::Cat::kCodec);
    obs::ScopedPhase ph(obs::Phase::kDecode);
    return codec_->decode(p->enc);
  }
  throw std::logic_error("ActivationPager: page has no payload");
}

void ActivationPager::materialize(Page* p, std::unique_lock<std::mutex>& lock) {
  wait_io(p, lock);
  if (p->raw.numel() > 0) return;

  // Take I/O ownership so eviction keeps its hands off while we are
  // decoding outside the lock, then make headroom for the incoming raw
  // bytes so the peak respects the budget (the page's own blob is busy and
  // stays put; others spill). A victim's spill-write failure must not
  // leave our own busy flag stuck — waiters would hang forever.
  p->io_busy.store(true, std::memory_order_relaxed);
  try {
    enforce_to(target_for(p->shape.numel() * sizeof(float)), lock);
  } catch (...) {
    p->io_busy.store(false, std::memory_order_release);
    throw;
  }
  const bool from_disk = p->spilled && !p->encoded;
  lock.unlock();

  Tensor out;
  std::exception_ptr err;
  try {
    out = load_payload(p);
  } catch (...) {
    err = std::current_exception();
  }

  lock.lock();
  if (from_disk) totals_.spill_read_bytes += p->extent.size;
  p->io_busy.store(false, std::memory_order_release);
  if (err) std::rethrow_exception(err);
  account_add(Tier::kRaw, out.bytes());
  p->raw = std::move(out);
}

// ---------------------------------------------------------------------------
// drop.
// ---------------------------------------------------------------------------

Tensor ActivationPager::drop(PageId id) {
  prune_tasks();
  std::unique_lock<std::mutex> lock(mu_);
  // Any drop means some stash has started to be consumed, so the current
  // forward pass is over: tensors put after this point belong to a new
  // pass and can never be byte-equal to a page of the old one.
  group_live_.clear();
  const PageId prim_id = resolve_locked(id);
  Page* p = find_locked(prim_id);
  if (p == nullptr) throw std::logic_error("ActivationPager::drop: unknown handle");
  wait_io(p, lock);

  auto member = p->members.find(id);
  if (member == p->members.end())
    throw std::logic_error("ActivationPager::drop: unknown handle");
  const OrderKey dropped_key = member->second;
  const bool last = p->members.size() <= 1;

  // Detach this member; when it is not the last, the page survives so the
  // remaining handles stay valid, and its eviction key advances to the
  // nearest use among the survivors.
  auto detach_member = [&] {
    alias_of_.erase(id);
    if (last) {
      erase_page_locked(prim_id);
    } else {
      p->members.erase(member);
      reposition_locked(p);
    }
  };

  if (p->error) {
    std::exception_ptr err = p->error;
    detach_member();
    std::rethrow_exception(err);
  }

  const bool hit = p->prefetched && p->raw.numel() > 0;
  try {
    materialize(p, lock);
  } catch (...) {
    detach_member();
    throw;
  }

  Tensor out;
  if (last) {
    out = std::move(p->raw);
    account_sub(Tier::kRaw, out.bytes());
    if (p->encoded) account_sub(Tier::kCompressed, p->enc.bytes.size());
    if (p->spilled && spill_) {
      spill_->free_extent(p->extent);
      account_sub(Tier::kSpilled, p->extent.size);
    }
    order_.erase(p->key);
    pages_.erase(prim_id);
    alias_of_.erase(id);
  } else {
    // Sibling handles still need these bytes: hand out a copy and keep the
    // raw as an evictable (pass-1) cache for their drops.
    out = p->raw.clone();
    p->members.erase(member);
    alias_of_.erase(id);
    reposition_locked(p);
  }
  if (hit) totals_.prefetch_hits += 1;
  prefetch_ahead(&dropped_key, lock);
  return out;
}

void ActivationPager::prepare_backward() {
  std::unique_lock<std::mutex> lock(mu_);
  prefetch_ahead(nullptr, lock);
}

// ---------------------------------------------------------------------------
// Budget enforcement: free duplicate raw caches first (no I/O), then spill
// furthest-next-use first. order_ ascends toward the next consumption, so
// both passes walk it in reverse. Without liveness every rank is 0 and the
// reverse walk is exactly ascending put sequence — the seed policy.
// ---------------------------------------------------------------------------

void ActivationPager::enforce_to(std::size_t target_bytes,
                                 std::unique_lock<std::mutex>& lock) {
  if (cfg_.budget_bytes == 0) return;

  // In-flight prefetches have reserved their raw bytes but not landed yet;
  // counting them here keeps the resident *peak* under budget when they
  // do (they cannot be cancelled, so eviction makes room for them now).
  const auto resident = [this] {
    return raw_bytes_ + compressed_bytes_ + pending_fetch_bytes_;
  };

  // Pass 1: drop tier-0 caches whose bytes also exist as a blob or extent.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    if (resident() <= target_bytes) return;
    Page* p = find_locked(it->second);
    if (p == nullptr) continue;
    if (p->io_busy.load(std::memory_order_relaxed)) continue;
    if (p->raw.numel() > 0 && (p->encoded || p->spilled)) {
      account_sub(Tier::kRaw, p->raw.bytes());
      p->raw = Tensor();
      p->prefetched = false;
      totals_.evictions += 1;
    }
  }

  // Pass 2: spill to disk. The maps can change while the lock is dropped
  // around a write or task submission, so rescan from the far end each
  // round. Pages mid-write (io_busy) are skipped, which is what keeps the
  // write-behind victim sequence identical to the synchronous one: a queued
  // victim cannot be re-picked, and the settled projection below advances
  // exactly as the synchronous post-write accounting would.
  const auto pick_victim = [&]() -> Page* {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      Page* p = find_locked(it->second);
      if (p == nullptr) continue;
      if (p->io_busy.load(std::memory_order_relaxed)) continue;
      if (p->spilled) continue;  // RAM copy (if any) was freed in pass 1
      if (p->encoded || (p->exact && p->raw.numel() > 0)) return p;
    }
    return nullptr;
  };

  if (!cfg_.write_behind) {
    while (resident() > target_bytes) {
      Page* victim = pick_victim();
      if (victim == nullptr) {
        totals_.over_budget_events += 1;
        return;
      }
      spill_payload(victim, lock);
      totals_.evictions += 1;
    }
    return;
  }

  // Write-behind: queue victims (up to kWriteWindow in flight) and only
  // return once the *actual* resident bytes fit — the budget is a hard cap
  // and not-yet-written blobs still occupy RAM. Victim *selection* runs
  // against the settled projection (resident minus bytes already queued) so
  // no extra pages are evicted just because writes have not landed yet.
  // Every queued victim must land before the return, as on the synchronous
  // path: writes land out of order, and when a later, larger victim alone
  // brings the bytes under target, returning early would leave the earlier
  // one resident and the next put would record a higher peak.
  for (;;) {
    if (spill_error_) {
      std::exception_ptr err = spill_error_;
      spill_error_ = nullptr;
      std::rethrow_exception(err);  // the failed victim's payload stayed put
    }
    if (resident() <= target_bytes && pending_spill_count_ == 0) return;
    if (resident() > target_bytes + pending_spill_bytes_ &&
        pending_spill_count_ < kWriteWindow) {
      if (Page* victim = pick_victim()) {
        // The eviction/write counters are charged inside spill_payload_async
        // (and rolled back there if the write fails): the charge must land
        // before the task body, which can run inline during submission.
        spill_payload_async(victim, lock);
        continue;
      }
      if (pending_spill_count_ == 0) {
        totals_.over_budget_events += 1;
        return;
      }
      // Everything eligible is already mid-write: fall through and wait.
    }
    // Over target or victims in flight (or at the window): wait for one to
    // land, then re-evaluate. spill_gen_ is bumped under mu_, which we hold
    // here, so a completion can never slip between this read and the wait.
    const std::uint64_t gen = spill_gen_.load(std::memory_order_acquire);
    lock.unlock();
    {
      obs::trace::Span span("pager.writeback_wait", obs::trace::Cat::kPager);
      obs::ScopedPhase ph(obs::Phase::kSpillWait);
      tensor::sched::help_while([this, gen] {
        return spill_gen_.load(std::memory_order_acquire) != gen;
      });
    }
    lock.lock();
  }
}

bool ActivationPager::spill_payload(Page* p, std::unique_lock<std::mutex>& lock) {
  if (p->spilled || (!p->encoded && p->raw.numel() == 0)) return false;

  p->io_busy.store(true, std::memory_order_relaxed);
  const bool from_enc = p->encoded;
  const void* data = from_enc ? static_cast<const void*>(p->enc.bytes.data())
                              : static_cast<const void*>(p->raw.data());
  const std::size_t size = from_enc ? p->enc.bytes.size() : p->raw.bytes();
  SpillFile& file = spill_file_locked();
  lock.unlock();

  SpillExtent ext;
  std::exception_ptr err;
  std::uint64_t sum = 0;
  try {
    sum = fnv1a(data, size);
    obs::trace::Span span("pager.spill_write", obs::trace::Cat::kPager);
    obs::ScopedPhase ph(obs::Phase::kSpillWrite);
    ext = file.write(data, size);
  } catch (...) {
    err = std::current_exception();
  }

  lock.lock();
  p->io_busy.store(false, std::memory_order_release);
  if (err) std::rethrow_exception(err);  // payload still resident: no loss
  p->extent = ext;
  p->checksum = sum;
  p->spilled = true;
  account_add(Tier::kSpilled, size);
  if (from_enc) {
    account_sub(Tier::kCompressed, p->enc.bytes.size());
    p->enc = nn::EncodedActivation{};
    p->encoded = false;
  } else {
    account_sub(Tier::kRaw, p->raw.bytes());
    p->raw = Tensor();
  }
  totals_.spill_write_bytes += size;
  return true;
}

void ActivationPager::spill_payload_async(Page* p, std::unique_lock<std::mutex>& lock) {
  // Counters are charged at issue time so the on/off write-behind counter
  // streams match, and rolled back if the write fails — the synchronous
  // path only counts a spill once the write has landed, so parity holds on
  // the error path too. The per-tier byte counts only move when the
  // write lands (until then the payload genuinely occupies RAM).
  p->io_busy.store(true, std::memory_order_relaxed);
  const bool from_enc = p->encoded;
  const void* data = from_enc ? static_cast<const void*>(p->enc.bytes.data())
                              : static_cast<const void*>(p->raw.data());
  const std::size_t size = from_enc ? p->enc.bytes.size() : p->raw.bytes();
  SpillFile& file = spill_file_locked();
  pending_spill_bytes_ += size;
  pending_spill_count_ += 1;
  totals_.evictions += 1;
  totals_.spill_write_bytes += size;

  // Submit outside mu_: on a one-thread pool the body runs inline here. The
  // payload pointer stays valid because io_busy keeps every other path
  // (eviction, drop, materialize) off the page until the task clears it.
  lock.unlock();
  auto fut = tensor::sched::async([this, p, &file, data, size, from_enc] {
    SpillExtent ext;
    std::uint64_t sum = 0;
    std::exception_ptr err;
    try {
      sum = fnv1a(data, size);
      obs::trace::Span span("pager.spill_write_wb", obs::trace::Cat::kPager);
      obs::ScopedPhase ph(obs::Phase::kSpillWrite);
      ext = file.write(data, size);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> g(mu_);
    pending_spill_bytes_ -= size;
    pending_spill_count_ -= 1;
    if (err) {
      if (!spill_error_) spill_error_ = err;  // payload still resident: no loss
      // The eviction never happened: undo the issue-time charges so the
      // counter totals match the synchronous path, which counts nothing
      // when the write throws.
      totals_.evictions -= 1;
      totals_.spill_write_bytes -= size;
    } else {
      p->extent = ext;
      p->checksum = sum;
      p->spilled = true;
      account_add(Tier::kSpilled, size);
      if (from_enc) {
        account_sub(Tier::kCompressed, p->enc.bytes.size());
        p->enc = nn::EncodedActivation{};
        p->encoded = false;
      } else {
        account_sub(Tier::kRaw, p->raw.bytes());
        p->raw = Tensor();
      }
    }
    p->io_busy.store(false, std::memory_order_release);
    spill_gen_.fetch_add(1, std::memory_order_release);
  });
  {
    std::lock_guard<std::mutex> g(tasks_mu_);
    tasks_.push_back(std::move(fut));
  }
  lock.lock();
}

// ---------------------------------------------------------------------------
// Backward-pass prefetch.
// ---------------------------------------------------------------------------

void ActivationPager::prefetch_ahead(const OrderKey* after,
                                     std::unique_lock<std::mutex>& lock) {
  if (cfg_.prefetch_depth == 0 || pages_.empty()) return;
  // Admission reserve: the consumer is about to materialize a page of its
  // own (typically the largest outstanding one), and in-flight fetches
  // cannot be cancelled once admitted — so a prefetch only launches when
  // budget still holds it *plus* one largest-page materialization. Without
  // this, a fetch admitted while resident was low lands mid-materialize
  // and pushes the peak over budget.
  std::size_t reserve = 0;
  if (cfg_.budget_bytes != 0) {
    for (const auto& [id, page] : pages_)
      reserve = std::max(reserve, page->shape.numel() * sizeof(float));
  }
  std::vector<Page*> submit;
  std::size_t window = 0;
  // order_ ascends toward the next consumption, so the pages needed soonest
  // after the just-dropped key sit right past its upper bound. nullptr means
  // the backward pass has not consumed anything yet: start from the front.
  for (auto it = after ? order_.upper_bound(*after) : order_.begin();
       it != order_.end() && window < cfg_.prefetch_depth; ++it) {
    Page* p = find_locked(it->second);
    if (p == nullptr) continue;
    if (p->raw.numel() > 0 || p->io_busy.load(std::memory_order_relaxed)) {
      ++window;  // already materialized or being fetched: occupies the window
      continue;
    }
    if (!p->encoded && !p->spilled) continue;  // nothing to fetch from
    const std::size_t need = p->shape.numel() * sizeof(float);
    if (cfg_.budget_bytes != 0 &&
        raw_bytes_ + compressed_bytes_ + pending_fetch_bytes_ + need + reserve >
            cfg_.budget_bytes) {
      break;  // no headroom; later pages are needed even later
    }
    p->io_busy.store(true, std::memory_order_relaxed);
    pending_fetch_bytes_ += need;
    submit.push_back(p);
    ++window;
    totals_.prefetch_submitted += 1;
  }
  if (submit.empty()) return;

  lock.unlock();
  for (Page* p : submit) submit_fetch(p);
  lock.lock();
}

void ActivationPager::submit_fetch(Page* p) {
  auto fut = tensor::sched::async([this, p] {
    obs::trace::Span span("pager.prefetch", obs::trace::Cat::kPager);
    const std::size_t need = p->shape.numel() * sizeof(float);
    const bool from_disk = p->spilled && !p->encoded;
    try {
      Tensor out = load_payload(p);
      std::lock_guard<std::mutex> lock(mu_);
      if (from_disk) totals_.spill_read_bytes += p->extent.size;
      pending_fetch_bytes_ -= need;
      account_add(Tier::kRaw, out.bytes());
      p->raw = std::move(out);
      p->prefetched = true;
      p->io_busy.store(false, std::memory_order_release);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      pending_fetch_bytes_ -= need;
      p->error = std::current_exception();
      p->io_busy.store(false, std::memory_order_release);
    }
  });
  std::lock_guard<std::mutex> g(tasks_mu_);
  tasks_.push_back(std::move(fut));
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

void ActivationPager::drain() {
  for (;;) {
    Page* busy = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, p] : pages_) {
        if (p->io_busy.load(std::memory_order_acquire)) {
          busy = p.get();
          break;
        }
      }
    }
    if (busy == nullptr) break;
    obs::trace::Span span("pager.drain_wait", obs::trace::Cat::kPager);
    obs::ScopedPhase ph(obs::Phase::kSpillWait);
    tensor::sched::help_while([busy] { return !busy->io_busy.load(std::memory_order_acquire); });
  }
  // Wait outside tasks_mu_: wait() help-executes queued tasks, and an
  // inlined task landing back in the pager would re-take the mutex on this
  // thread. Loop in case a helped task submitted more I/O.
  for (;;) {
    std::vector<tensor::sched::Future> pending;
    {
      std::lock_guard<std::mutex> g(tasks_mu_);
      if (tasks_.empty()) break;
      pending.swap(tasks_);
    }
    for (auto& f : pending) f.wait();
  }
  // A write-behind failure that lands after the last enforce_to() would
  // otherwise surface only on the next budget enforcement — or never, when
  // this drain is the session's final settle. Rethrow it here, once all
  // I/O has quiesced (the failed page's payload is still resident).
  std::unique_lock<std::mutex> lock(mu_);
  if (spill_error_) {
    std::exception_ptr err = spill_error_;
    spill_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

Tier ActivationPager::tier(PageId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Page* p = find_locked(resolve_locked(id));
  if (p == nullptr) throw std::logic_error("ActivationPager::tier: unknown handle");
  if (p->raw.numel() > 0) return Tier::kRaw;
  if (p->encoded) return Tier::kCompressed;
  return Tier::kSpilled;
}

std::size_t ActivationPager::num_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_.size();
}

std::size_t ActivationPager::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return raw_bytes_ + compressed_bytes_;
}

std::size_t ActivationPager::spilled_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spilled_bytes_;
}

PagerCounters ActivationPager::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  PagerCounters c = totals_;
  c.resident_bytes = raw_bytes_ + compressed_bytes_;
  c.peak_resident_bytes = peak_resident_;
  c.raw_bytes = raw_bytes_;
  c.compressed_bytes = compressed_bytes_;
  c.spilled_bytes = spilled_bytes_;
  return c;
}

std::string ActivationPager::spill_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spill_ ? spill_->path() : std::string();
}

}  // namespace ebct::memory
