#pragma once

/// \file accounting.hpp
/// Analytic memory accounting for one training iteration. Reproduces the
/// peak-memory arithmetic behind the paper's Fig. 2 and Fig. 11: weights
/// (value + gradient + momentum), live activations at the forward/backward
/// turnaround, and the device capacity that caps the batch size.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hpp"
#include "tensor/shape.hpp"

namespace ebct::memory {

/// Storage tier of a paged activation (see pager.hpp).
enum class Tier : int { kRaw = 0, kCompressed = 1, kSpilled = 2 };
constexpr int kNumTiers = 3;

/// Snapshot of the process-wide per-tier byte counters.
struct TierUsage {
  std::size_t live[kNumTiers] = {0, 0, 0};
  std::size_t peak[kNumTiers] = {0, 0, 0};
  std::size_t spill_write_bytes = 0;   ///< cumulative bytes written to disk
  std::size_t spill_read_bytes = 0;    ///< cumulative bytes read back
  std::size_t evictions = 0;           ///< pages pushed down a tier by budget
  std::size_t prefetch_submitted = 0;  ///< backward-pass fetches issued ahead
  std::size_t prefetch_hits = 0;       ///< drops served from a prefetched page
  std::size_t over_budget_events = 0;  ///< budget unmeetable (all pages pinned)

  std::size_t resident() const { return live[0] + live[1]; }
};

/// Process-wide per-tier accounting, fed by every ActivationPager. This is
/// the measured counterpart of the analytic MemoryBreakdown below: where
/// analyze() predicts a model's footprint, TierAccounting reports what the
/// paging subsystem actually holds in RAM (raw + compressed) and on disk,
/// and is the RSS-proxy the budget-sweep bench checks against the budget.
/// Lock-free (relaxed atomics + CAS peaks, same discipline as AllocTracker).
class TierAccounting {
 public:
  static TierAccounting& instance() {
    static TierAccounting t;
    return t;
  }

  /// Instantiable for per-scope ledgers: the serving subsystem keeps one
  /// TierAccounting per tenant so each tenant's resident bytes are charged
  /// (and budget-checked) independently of the process-wide instance().
  TierAccounting() = default;

  void add(Tier tier, std::size_t bytes) {
    const int i = static_cast<int>(tier);
    const std::size_t now = live_[i].fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::size_t prev = peak_[i].load(std::memory_order_relaxed);
    while (now > prev &&
           !peak_[i].compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
  }
  void sub(Tier tier, std::size_t bytes) {
    live_[static_cast<int>(tier)].fetch_sub(bytes, std::memory_order_relaxed);
  }
  void on_spill_write(std::size_t bytes) {
    spill_write_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void on_spill_read(std::size_t bytes) {
    spill_read_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void on_eviction() { evictions_.fetch_add(1, std::memory_order_relaxed); }
  /// Write-behind spill failure: undo an issue-time on_eviction() /
  /// on_spill_write() charge (the victim's payload stayed resident), so
  /// counter totals match the synchronous spill path on error too.
  void rollback_eviction() { evictions_.fetch_sub(1, std::memory_order_relaxed); }
  void rollback_spill_write(std::size_t bytes) {
    spill_write_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  void on_prefetch_submitted() { prefetch_sub_.fetch_add(1, std::memory_order_relaxed); }
  void on_prefetch_hit() { prefetch_hit_.fetch_add(1, std::memory_order_relaxed); }
  void on_over_budget() { over_budget_.fetch_add(1, std::memory_order_relaxed); }

  TierUsage usage() const {
    TierUsage u;
    for (int i = 0; i < kNumTiers; ++i) {
      u.live[i] = live_[i].load(std::memory_order_relaxed);
      u.peak[i] = peak_[i].load(std::memory_order_relaxed);
    }
    u.spill_write_bytes = spill_write_.load(std::memory_order_relaxed);
    u.spill_read_bytes = spill_read_.load(std::memory_order_relaxed);
    u.evictions = evictions_.load(std::memory_order_relaxed);
    u.prefetch_submitted = prefetch_sub_.load(std::memory_order_relaxed);
    u.prefetch_hits = prefetch_hit_.load(std::memory_order_relaxed);
    u.over_budget_events = over_budget_.load(std::memory_order_relaxed);
    return u;
  }

  /// Start of a measured region: peaks drop to the current live values.
  void reset_peaks() {
    for (int i = 0; i < kNumTiers; ++i)
      peak_[i].store(live_[i].load(std::memory_order_relaxed), std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> live_[kNumTiers] = {};
  std::atomic<std::size_t> peak_[kNumTiers] = {};
  std::atomic<std::size_t> spill_write_{0};
  std::atomic<std::size_t> spill_read_{0};
  std::atomic<std::size_t> evictions_{0};
  std::atomic<std::size_t> prefetch_sub_{0};
  std::atomic<std::size_t> prefetch_hit_{0};
  std::atomic<std::size_t> over_budget_{0};
};

/// Training accelerator capacity model.
struct DeviceModel {
  std::string name;
  std::size_t capacity_bytes = 0;

  static DeviceModel v100_16gb() { return {"V100-16GB", 16ull << 30}; }
  static DeviceModel v100_32gb() { return {"V100-32GB", 32ull << 30}; }
};

/// Per-layer entry of the activation footprint at a given input shape.
struct LayerFootprint {
  std::string layer;
  std::size_t output_bytes = 0;      ///< feature-map bytes at this layer
  std::size_t stashed_bytes = 0;     ///< raw bytes held until backward
};

/// Static memory breakdown of a model at one input shape.
struct MemoryBreakdown {
  std::size_t weight_bytes = 0;          ///< parameter values
  std::size_t optimizer_state_bytes = 0; ///< grads + momentum
  std::size_t stashed_activation_bytes = 0;  ///< sum of stashes (raw)
  std::size_t workspace_bytes = 0;       ///< 2x the largest feature map
  std::vector<LayerFootprint> layers;

  /// Peak bytes with the stash reduced by `activation_ratio` (1.0 = raw
  /// baseline, 11.0 = the paper's compressed framework, etc.).
  std::size_t peak_bytes(double activation_ratio = 1.0) const;
};

/// Walk the network's shape trace and collect the breakdown for batch `n`.
MemoryBreakdown analyze(nn::Network& net, std::size_t input_hw, std::size_t batch,
                        std::size_t channels = 3);

/// Largest batch size whose peak fits the device under the given activation
/// compression ratio. Linear in activations, so solved by bisection.
std::size_t max_batch(nn::Network& net, std::size_t input_hw, const DeviceModel& device,
                      double activation_ratio, std::size_t limit = 8192);

/// Human-readable byte count ("12.4 GB").
std::string human_bytes(std::size_t bytes);

}  // namespace ebct::memory
