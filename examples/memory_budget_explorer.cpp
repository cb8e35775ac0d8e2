// Example: memory-budget exploration at ImageNet geometry. For each of the
// paper's four networks and two device models, ranks every memory-saving
// strategy (raw, lossless, JPEG-ACT, EBCT, migration, recomputation) by
// peak footprint, maximum feasible batch size and step-time overhead —
// the decision a practitioner actually faces.
//
// Usage: memory_budget_explorer [framework_ratio] (default 11.0)

#include <cstdio>
#include <stdexcept>
#include <string>

#include "baselines/strategies.hpp"
#include "core/env.hpp"
#include "memory/accounting.hpp"
#include "memory/report.hpp"
#include "models/model_zoo.hpp"

using namespace ebct;

int main(int argc, char** argv) {
  double framework_ratio = 11.0;
  try {
    if (argc > 1) framework_ratio = core::parse_double("framework_ratio", argv[1]);
    if (framework_ratio <= 0.0)
      throw std::invalid_argument("framework_ratio: expected a value above 0, got '" +
                                  std::string(argv[1]) + "'");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "memory_budget_explorer: %s\n", e.what());
    return 2;
  }
  std::printf("=== memory-budget explorer (EBCT ratio = %.1fx, overhead 17%%) ===\n\n",
              framework_ratio);

  // A ratio this small can make the stash overflow size_t in peak_bytes;
  // that is a bad argument too, not a crash.
  try {
    for (const auto& device :
         {memory::DeviceModel::v100_16gb(), memory::DeviceModel::v100_32gb()}) {
      std::printf("--- device: %s (%s) ---\n", device.name.c_str(),
                  memory::human_bytes(device.capacity_bytes).c_str());
      for (const auto& name : models::model_names()) {
        models::ModelConfig cfg;
        cfg.input_hw = 224;
        cfg.num_classes = 1000;
        auto net = models::find_model(name)(cfg);

        const auto rows = baselines::compare_strategies(
            *net, 224, device, framework_ratio, /*framework_overhead=*/0.17,
            /*baseline_step_seconds=*/0.35);
        std::printf("\n%s @224, batch-32 accounting:\n", name.c_str());
        memory::Table table({"strategy", "peak @b32", "max batch", "overhead"});
        for (const auto& r : rows) {
          table.add_row({r.name, memory::human_bytes(r.peak_bytes),
                         memory::fmt("%zu", r.max_batch),
                         memory::fmt("%.0f%%", 100.0 * r.overhead_fraction)});
        }
        table.print();
      }
      std::puts("");
    }
  } catch (const std::overflow_error& e) {
    std::fprintf(stderr, "memory_budget_explorer: %s\n", e.what());
    return 2;
  }

  std::puts("Reading guide: EBCT dominates lossless/JPEG-ACT on max batch at a");
  std::puts("fraction of migration's bandwidth-bound overhead; recomputation");
  std::puts("helps only the cheap non-conv layers (and composes with EBCT).");
  return 0;
}
