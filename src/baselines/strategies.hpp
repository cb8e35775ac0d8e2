#pragma once

/// \file strategies.hpp
/// Analytic models of the non-compression memory-saving strategies the paper
/// compares against (§2.1): activation migration (vDNN/GeePS/Layrub-style
/// host offload over PCIe/NVLink) and cheap-layer recomputation (Chen et
/// al.). Both are driven by the same MemoryBreakdown as the compression
/// strategies, so the planner can rank all of them on equal footing.

#include <cstddef>
#include <string>
#include <vector>

#include "memory/accounting.hpp"

namespace ebct::baselines {

/// Host-offload model: every stashed activation crosses the interconnect
/// twice (out during forward, back during backward).
struct MigrationModel {
  double bandwidth_bytes_per_s = 16.0e9;  ///< PCIe 3.0 x16 effective
  double overlap_fraction = 0.5;          ///< fraction hidden behind compute

  /// Added seconds per iteration for `stashed_bytes` of activations.
  double transfer_seconds(std::size_t stashed_bytes) const {
    const double raw = 2.0 * static_cast<double>(stashed_bytes) / bandwidth_bytes_per_s;
    return raw * (1.0 - overlap_fraction);
  }

  static MigrationModel pcie3() { return {16.0e9, 0.5}; }
};

/// Recomputation model: layers whose stash can be cheaply regenerated
/// (activation functions, pooling) drop their stash and pay a fraction of
/// the forward pass again. Convolutions are excluded — the paper's point is
/// that conv recomputation is too expensive, which is why compression
/// targets exactly those layers.
struct RecomputeModel {
  double cheap_layer_fraction = 0.30;   ///< share of stash from cheap layers
  double forward_overhead_fraction = 0.10;  ///< extra compute per iteration

  std::size_t remaining_stash(std::size_t stashed_bytes) const {
    return static_cast<std::size_t>(static_cast<double>(stashed_bytes) *
                                    (1.0 - cheap_layer_fraction));
  }
};

/// One row of the strategy comparison (Fig. 11 / §5.4 style output).
struct StrategyOutcome {
  std::string name;
  std::size_t peak_bytes = 0;
  std::size_t max_batch = 0;
  double overhead_fraction = 0.0;  ///< added time / baseline step time
  double memory_reduction = 1.0;   ///< baseline activation bytes / strategy bytes
};

/// Rank all memory strategies for a model on a device. `framework_ratio` is
/// the measured SZ compression ratio; `framework_overhead` its per-step cost
/// (the paper reports ~17% at equal batch); `baseline_step_seconds` anchors
/// the relative overheads.
std::vector<StrategyOutcome> compare_strategies(nn::Network& net, std::size_t input_hw,
                                                const memory::DeviceModel& device,
                                                double framework_ratio,
                                                double framework_overhead,
                                                double baseline_step_seconds,
                                                double lossless_ratio = 1.9,
                                                double jpegact_ratio = 7.0);

}  // namespace ebct::baselines
