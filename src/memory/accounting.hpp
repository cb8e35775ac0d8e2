#pragma once

/// \file accounting.hpp
/// Analytic memory accounting for one training iteration. Reproduces the
/// peak-memory arithmetic behind the paper's Fig. 2 and Fig. 11: weights
/// (value + gradient + momentum), live activations at the forward/backward
/// turnaround, and the device capacity that caps the batch size. Measured
/// bytes have one owner each: a pager's PagerCounters, a serve tenant's
/// charged-bytes count.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hpp"
#include "tensor/shape.hpp"

namespace ebct::memory {

/// Storage tier of a paged activation (see pager.hpp).
enum class Tier : int { kRaw = 0, kCompressed = 1, kSpilled = 2 };

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

  /// Peak bytes with the stash divided by `activation_ratio` (1.0 = raw
  /// baseline, 11.0 = the paper's compressed framework; below 1 = an
  /// expanding codec). Throws std::invalid_argument unless the ratio is
  /// finite and above 0.
  std::size_t peak_bytes(double activation_ratio = 1.0) const;
};

/// Walk the network's shape trace and collect the breakdown for batch `n`.
MemoryBreakdown analyze(nn::Network& net, std::size_t input_hw, std::size_t batch,
                        std::size_t channels = 3);

/// Largest batch size whose peak fits the device under the given activation
/// compression ratio. Linear in activations, so solved by bisection. Same
/// ratio contract as MemoryBreakdown::peak_bytes.
std::size_t max_batch(nn::Network& net, std::size_t input_hw, const DeviceModel& device,
                      double activation_ratio, std::size_t limit = 8192);

/// Human-readable byte count ("12.4 GB").
std::string human_bytes(std::size_t bytes);

}  // namespace ebct::memory
