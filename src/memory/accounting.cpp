#include "memory/accounting.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace ebct::memory {

using tensor::Shape;

namespace {

/// A ratio below 1 is an expanding codec and raises the peak; only a
/// non-finite or non-positive ratio has no meaning.
void check_ratio(const char* who, double activation_ratio) {
  if (!std::isfinite(activation_ratio) || activation_ratio <= 0.0)
    throw std::invalid_argument(std::string(who) +
                                ": activation_ratio must be finite and above 0, got " +
                                std::to_string(activation_ratio));
}

}  // namespace

std::size_t MemoryBreakdown::peak_bytes(double activation_ratio) const {
  check_ratio("MemoryBreakdown::peak_bytes", activation_ratio);
  const double stash = static_cast<double>(stashed_activation_bytes) / activation_ratio;
  if (stash >= static_cast<double>(std::numeric_limits<std::size_t>::max() / 2))
    throw std::overflow_error("MemoryBreakdown::peak_bytes: stash does not fit in size_t");
  return weight_bytes + optimizer_state_bytes + workspace_bytes +
         static_cast<std::size_t>(stash);
}

MemoryBreakdown analyze(nn::Network& net, std::size_t input_hw, std::size_t batch,
                        std::size_t channels) {
  MemoryBreakdown b;
  for (nn::Param* p : net.params()) {
    b.weight_bytes += p->value.bytes();
    b.optimizer_state_bytes += p->grad.bytes() + p->momentum.bytes();
  }
  const Shape input = Shape::nchw(batch, channels, input_hw, input_hw);
  Shape s = input;
  std::size_t largest = input.numel() * sizeof(float);
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    nn::Layer& l = net.layer(i);
    LayerFootprint fp;
    fp.layer = l.name();
    fp.stashed_bytes = l.activation_bytes(s);
    s = l.output_shape(s);
    fp.output_bytes = s.numel() * sizeof(float);
    largest = std::max(largest, fp.output_bytes);
    b.stashed_activation_bytes += fp.stashed_bytes;
    b.layers.push_back(std::move(fp));
  }
  // Producer + consumer feature maps co-resident during a layer's forward.
  b.workspace_bytes = 2 * largest;
  return b;
}

std::size_t max_batch(nn::Network& net, std::size_t input_hw, const DeviceModel& device,
                      double activation_ratio, std::size_t limit) {
  check_ratio("memory::max_batch", activation_ratio);
  // Peak(batch) is monotone in batch: evaluate at batch=1 to get the fixed
  // and per-sample parts, then bisect.
  const MemoryBreakdown b1 = analyze(net, input_hw, 1);
  const std::size_t fixed = b1.weight_bytes + b1.optimizer_state_bytes;
  if (fixed >= device.capacity_bytes) return 0;
  std::size_t lo = 0, hi = limit;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    // Activations and workspace scale linearly with batch. Compared in
    // double so a small ratio's huge stash cannot overflow size_t.
    const double stash = static_cast<double>(b1.stashed_activation_bytes) *
                         static_cast<double>(mid) / activation_ratio;
    const std::size_t ws = b1.workspace_bytes * mid;
    const double peak = static_cast<double>(fixed + ws) + std::floor(stash);
    if (peak <= static_cast<double>(device.capacity_bytes))
      lo = mid;
    else
      hi = mid - 1;
  }
  return lo;
}

std::string human_bytes(std::size_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
  return buf;
}

}  // namespace ebct::memory
