// Reproduces §5.4's performance analysis: the framework's per-iteration
// overhead at equal batch size, the recovery from growing the batch into
// the freed memory, and the comparison against the migration baseline
// (Layrub: 2.4x memory reduction at 24.1% overhead, per the paper).

#include <cstdio>
#include <cstdlib>

#include "baselines/strategies.hpp"
#include "bench_util.hpp"
#include "core/env.hpp"
#include "core/session.hpp"
#include "data/synthetic.hpp"
#include "memory/accounting.hpp"
#include "memory/report.hpp"
#include "models/model_zoo.hpp"
#include "obs/trace.hpp"

using namespace ebct;

namespace {

struct StepStats {
  double seconds = 0.0;
  double ratio = 0.0;
};

StepStats measure(const std::string& codec, std::size_t batch, const std::string& model) {
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.25;
  mcfg.seed = 6;
  auto net = models::find_model(model)(mcfg);
  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 64;
  dspec.seed = 2300;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, batch, true, true, 4);
  core::SessionConfig cfg;
  cfg.framework.codec = codec;
  cfg.framework.active_factor_w = 50;
  core::TrainingSession session(*net, loader, cfg);
  session.run(2);
  StepStats s;
  s.seconds = bench::time_median([&] { session.run(3); }) / 3.0;
  s.ratio = session.history().back().mean_compression_ratio;
  return s;
}

/// Cost of the hot-path guard every instrumented site pays when tracing is
/// off: one relaxed atomic load. Measured directly so the "absent"
/// (instrumentation-free) step time can be estimated without recompiling.
double measure_check_ns() {
  constexpr int kIters = 20'000'000;
  volatile int sink = 0;
  const double s = bench::time_seconds([&] {
    for (int i = 0; i < kIters; ++i) {
      if (obs::trace::enabled()) sink = sink + 1;
    }
  });
  return s * 1e9 / kIters;
}

/// The §5.4-style bracket for the tracing layer itself: one framework
/// session stepped with the rings cold (enabled() == false), hot
/// (recording), and an analytic estimate of instrumentation-absent time
/// (disabled time minus measured guard cost x guard crossings). The
/// disabled-mode gate (< 2% over absent-estimate) warns by default and
/// fails the bench only under EBCT_PERF_ENFORCE=1, same convention as
/// perf_smoke.
bool trace_overhead_bracket(bench::JsonReporter& json) {
  const bool was_enabled = obs::trace::enabled();
  obs::trace::disable();

  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.25;
  mcfg.seed = 6;
  auto net = models::make_resnet18(mcfg);
  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 64;
  dspec.seed = 2300;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 8, true, true, 4);
  core::SessionConfig cfg;
  cfg.framework.codec = "sz";
  cfg.framework.active_factor_w = 50;
  core::TrainingSession session(*net, loader, cfg);
  session.run(2);  // warm-up

  const double t_dis = bench::time_median([&] { session.run(3); }) / 3.0;

  obs::trace::enable();
  obs::trace::reset();
  const double t_en = bench::time_median([&] { session.run(3); }) / 3.0;
  // time_median runs the body 4x (warm-up + 3 timed) at 3 iterations each.
  const double spans_per_step = static_cast<double>(obs::trace::emitted()) / 12.0;
  obs::trace::reset();
  obs::trace::disable();

  const double check_ns = measure_check_ns();
  // Each span costs ~2 guard crossings (constructor + destructor check).
  const double t_absent = t_dis - 2.0 * spans_per_step * check_ns * 1e-9;
  const double dis_overhead = (t_dis - t_absent) / t_absent;
  const double en_overhead = (t_en - t_dis) / t_dis;
  const bool gate_ok = dis_overhead < 0.02;

  std::printf("\n--- tracing-layer overhead (ResNet-18 b8, sz) ---\n");
  std::printf("s/iter: absent-est %.4f | trace disabled %.4f | trace enabled %.4f\n",
              t_absent, t_dis, t_en);
  std::printf("guard: %.2f ns/check, %.0f spans/step -> disabled overhead %.3f%%"
              " (gate < 2%%: %s); enabled overhead %.1f%%\n",
              check_ns, spans_per_step, 100.0 * dis_overhead,
              gate_ok ? "PASS" : "FAIL", 100.0 * en_overhead);

  json.add("trace_overhead",
           {{"step_s_absent_est", t_absent},
            {"step_s_trace_disabled", t_dis},
            {"step_s_trace_enabled", t_en},
            {"spans_per_step", spans_per_step},
            {"guard_check_ns", check_ns},
            {"disabled_overhead_frac", dis_overhead},
            {"enabled_overhead_frac", en_overhead},
            {"disabled_gate_ok", gate_ok ? 1.0 : 0.0}});

  if (was_enabled) obs::trace::enable();
  return gate_ok;
}

}  // namespace

int main() {
  // Read up front so a malformed value fails before the measurements run.
  const bool enforce_trace_gate = core::env_flag("EBCT_PERF_ENFORCE", false);
  std::puts("=== §5.4 — framework overhead and batch-scaling recovery ===\n");

  bench::JsonReporter json("sec54_overhead");
  memory::Table table({"model", "batch", "baseline s/iter", "framework s/iter",
                       "overhead", "conv ratio"});
  for (const auto& model : {std::string("VGG-16"), std::string("ResNet-18")}) {
    for (const std::size_t batch : {8u, 32u}) {
      const auto b = measure("none", batch, model);
      const auto f = measure("sz", batch, model);
      table.add_row({model, memory::fmt("%zu", batch), memory::fmt("%.3f", b.seconds),
                     memory::fmt("%.3f", f.seconds),
                     memory::fmt("%.0f%%", 100.0 * (f.seconds - b.seconds) / b.seconds),
                     memory::fmt("%.1fx", f.ratio)});
      json.add(model + "_b" + std::to_string(batch),
               {{"baseline_s_iter", b.seconds},
                {"framework_s_iter", f.seconds},
                {"overhead_frac", (f.seconds - b.seconds) / b.seconds},
                {"conv_ratio", f.ratio}});
    }
  }
  table.print();

  const bool trace_gate_ok = trace_overhead_bracket(json);

  // Amortisation: per-image compression cost is roughly constant, while
  // per-image compute grows slightly sublinearly; growing the batch into
  // the freed memory dilutes fixed costs (the paper's 17% -> 7% on VGG-16
  // when going from batch 32 to 256).
  const auto b8 = measure("none", 8, "VGG-16");
  const auto f8 = measure("sz", 8, "VGG-16");
  const auto b32 = measure("none", 32, "VGG-16");
  const auto f32 = measure("sz", 32, "VGG-16");
  std::printf("\nVGG-16 throughput, images/s: baseline b8 %.1f | framework b8 %.1f |"
              " baseline b32 %.1f | framework b32 %.1f\n",
              8 / b8.seconds, 8 / f8.seconds, 32 / b32.seconds, 32 / f32.seconds);
  std::printf("framework@b32 vs baseline@b8 (batch grown into freed memory): %.2fx\n",
              (32 / f32.seconds) / (8 / b8.seconds));

  std::puts("\n--- strategy comparison (V100-32GB, ResNet-18 @224) ---");
  models::ModelConfig mcfg;
  mcfg.input_hw = 224;
  mcfg.num_classes = 1000;
  auto net224 = models::make_resnet18(mcfg);
  const auto rows = baselines::compare_strategies(
      *net224, 224, memory::DeviceModel::v100_32gb(), /*framework_ratio=*/10.7,
      /*framework_overhead=*/0.17, /*baseline_step_seconds=*/0.35);
  memory::Table cmp({"strategy", "peak @b32", "max batch", "overhead", "mem reduction"});
  for (const auto& r : rows) {
    cmp.add_row({r.name, memory::human_bytes(r.peak_bytes),
                 memory::fmt("%zu", r.max_batch),
                 memory::fmt("%.0f%%", 100.0 * r.overhead_fraction),
                 r.memory_reduction > 100 ? "all offloaded"
                                          : memory::fmt("%.1fx", r.memory_reduction)});
  }
  cmp.print();

  std::puts("\nShape check vs paper: moderate overhead at equal batch (paper ~17%),");
  std::puts("shrinking when the batch grows into the freed memory (paper: 7% on");
  std::puts("VGG-16), and a better memory/overhead trade-off than migration");
  std::puts("(Layrub: 2.4x at 24.1%) or recomputation.");

  if (!trace_gate_ok) {
    if (enforce_trace_gate) {
      std::fprintf(stderr, "FAIL: disabled-mode trace overhead exceeds 2%% gate\n");
      return 1;
    }
    std::fprintf(stderr,
                 "WARN: disabled-mode trace overhead exceeds 2%% gate "
                 "(set EBCT_PERF_ENFORCE=1 to make this fatal)\n");
  }
  return 0;
}
