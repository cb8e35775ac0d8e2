// Reproduces Fig. 11: raw training performance (images/s) as a function of
// the batch size N. Three layers of evidence:
//   1. the SZ hot path itself: compression/decompression throughput of the
//      serial reference (a one-thread pool) vs the block-parallel path
//      across pool sizes,
//      and the async double-buffered store vs the synchronous one,
//   2. measured CPU step times of ResNet-50 (scaled) across batch sizes for
//      baseline and framework — throughput rises with N in both,
//   3. the device-capacity projection at ImageNet geometry: the framework's
//      compression lets N grow ~10x on a V100-16GB, converting the freed
//      memory into throughput via batch amortisation; a 4-device
//      data-parallel projection mirrors the paper's multi-node panel.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/session.hpp"
#include "data/synthetic.hpp"
#include "memory/accounting.hpp"
#include "memory/report.hpp"
#include "models/model_zoo.hpp"
#include "sz/compressor.hpp"
#include "tensor/parallel.hpp"
#include "tensor/sched.hpp"
#include "tensor/rng.hpp"

using namespace ebct;

namespace {

double step_seconds(const std::string& codec, std::size_t batch, bool async = false) {
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.25;
  mcfg.seed = 5;
  auto net = models::make_resnet50(mcfg);
  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 64;
  dspec.seed = 2200;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, batch, true, true, 3);
  core::SessionConfig cfg;
  cfg.framework.codec = codec;
  cfg.framework.active_factor_w = 50;
  cfg.framework.async_compression = async;
  core::TrainingSession session(*net, loader, cfg);
  session.run(2);  // warm-up + first adaptive refresh
  return bench::time_median([&] { session.run(3); }) / 3.0;
}

/// Compress+decompress seconds over `data` on a pool of `threads` threads.
std::pair<double, double> codec_seconds(const std::vector<float>& data, int threads) {
  tensor::sched::set_num_threads(threads);
  sz::Config cfg;
  cfg.error_bound = 1e-3;
  sz::Compressor comp(cfg);
  sz::CompressedBuffer buf;
  const double tc = bench::time_median(
      [&] { buf = comp.compress({data.data(), data.size()}); });
  std::vector<float> out(data.size());
  const double td = bench::time_median(
      [&] { comp.decompress(buf, {out.data(), out.size()}); });
  return {tc, td};
}

void compressor_throughput_section() {
  std::puts("--- SZ hot path: serial vs block-parallel (16M floats, eb 1e-3) ---");
  const std::size_t n = 16u << 20;
  std::vector<float> data(n);
  tensor::Rng rng(9100);
  rng.fill_relu_like({data.data(), n}, 0.5, 1.0f);
  const double mb = static_cast<double>(n * sizeof(float)) / (1024.0 * 1024.0);

  const int hw = tensor::sched::num_threads();
  const auto [ser_c, ser_d] = codec_seconds(data, 1);
  memory::Table t({"threads", "compress MB/s", "decompress MB/s",
                   "compress speedup", "decompress speedup"});
  for (const int threads : {1, 2, 4, 8}) {
    if (threads > hw && threads != 1) {
      // Oversubscribed settings measure scheduler noise, not scaling.
      continue;
    }
    // The serial row reuses the baseline measurement: re-timing it would
    // cost another full pass and let noise print a not-quite-1.00x.
    const auto [tc, td] = threads == 1 ? std::pair{ser_c, ser_d}
                                       : codec_seconds(data, threads);
    t.add_row({memory::fmt("%d", threads), memory::fmt("%.0f", mb / tc),
               memory::fmt("%.0f", mb / td), memory::fmt("%.2fx", ser_c / tc),
               memory::fmt("%.2fx", ser_d / td)});
  }
  tensor::sched::set_num_threads(hw);
  t.print();
  std::printf("(hardware threads available: %d; the paper's ≥2x target needs 4+)\n\n", hw);
}

struct ExecRun {
  double sec = 0.0;
  std::size_t max_dispatch = 0;
  std::size_t peak_resident = 0;
  bool executor_active = false;
  /// Consolidated TrainingSession::metrics() snapshot (JsonReporter-shaped).
  std::vector<std::pair<std::string, double>> metrics;
};

/// One Inception training step (scaled geometry) under the given
/// write-behind / budget setting. Inception is the branchy model: its block
/// towers are the independent work the graph scheduler exists to overlap.
ExecRun inception_step(bool write_behind, std::size_t budget) {
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.25;
  mcfg.seed = 5;
  auto net = models::make_inception_v4(mcfg);
  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 64;
  dspec.seed = 2200;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 8, true, true, 3);
  core::SessionConfig cfg;
  cfg.framework.active_factor_w = 50;
  cfg.framework.write_behind = write_behind;
  cfg.framework.memory_budget_bytes = budget;
  core::TrainingSession session(*net, loader, cfg);
  session.run(2);  // warm-up + first adaptive refresh
  ExecRun r;
  r.sec = bench::time_median([&] { session.run(3); }) / 3.0;
  r.peak_resident = session.paged_store()->pager().counters().peak_resident_bytes;
  if (const graph::GraphExecutor* exec = session.executor()) {
    r.executor_active = exec->handles(
        tensor::Shape::nchw(8, dspec.channels, dspec.image_hw, dspec.image_hw));
    r.max_dispatch = exec->max_parallel_dispatch();
  }
  r.metrics = session.metrics();
  return r;
}

/// Graph-scheduled execution on Inception-V4 with and without the
/// write-behind spill queue, under a budget tight enough (~40% of
/// unbudgeted peak) that spill I/O is on the critical path. The executor is
/// gated structurally — it must engage and parallel branch dispatch must
/// actually have happened — rather than on wall-clock, which shared
/// runners cannot measure reliably; the step times are recorded alongside.
int executor_section(bench::JsonReporter& report) {
  std::puts("--- graph-scheduled executor (Inception-V4 scaled, batch 8) ---");
  // Branch overlap needs somewhere to run: guarantee at least two workers
  // even on a single-core runner (the contract is determinism, not speed).
  tensor::sched::set_num_threads(std::max(2, tensor::sched::num_threads()));
  const std::size_t peak = inception_step(false, 0).peak_resident;
  const std::size_t budget = peak * 2 / 5;
  std::printf("(memory budget %zu KiB = 40%% of unbudgeted peak)\n", budget >> 10);

  memory::Table t({"spill", "step ms", "vs synchronous", "max dispatch"});
  int failures = 0;
  double sync_sec = 0.0;
  for (const bool wb : {false, true}) {
    const ExecRun r = inception_step(wb, budget);
    if (!wb) sync_sec = r.sec;
    const std::string name = std::string("exec_ab_graph") + (wb ? "_wb" : "_sync");
    t.add_row({wb ? "write-behind" : "synchronous", memory::fmt("%.1f", r.sec * 1e3),
               memory::fmt("%.2fx", sync_sec / r.sec), memory::fmt("%zu", r.max_dispatch)});
    report.add(name, {{"step_seconds", r.sec},
                      {"max_parallel_dispatch", static_cast<double>(r.max_dispatch)},
                      {"peak_resident_bytes", static_cast<double>(r.peak_resident)}});
    // The write-behind point's consolidated runtime snapshot (per-phase
    // timings + pager/scheduler/executor counters) as one row.
    if (wb) report.add("exec_ab_graph_wb_session_metrics", r.metrics);
    if (!r.executor_active) {
      std::fprintf(stderr, "fig11 FAIL: graph executor did not engage (%s)\n", name.c_str());
      ++failures;
    }
    if (r.max_dispatch < 2) {
      std::fprintf(stderr,
                   "fig11 FAIL: no parallel branch dispatch observed "
                   "(%s, max_dispatch=%zu)\n",
                   name.c_str(), r.max_dispatch);
      ++failures;
    }
    if (r.peak_resident > budget) {
      std::fprintf(stderr, "fig11 FAIL: %s exceeded the RAM budget\n", name.c_str());
      ++failures;
    }
  }
  t.print();
  std::puts("(the structural gate is dispatch-based: shared runners are too noisy");
  std::puts(" for a wall-clock threshold, so step times are recorded, not asserted)\n");
  return failures;
}

void async_store_section() {
  std::puts("--- activation store pipelining (ResNet-50 scaled, batch 16) ---");
  const double sync_s = step_seconds("sz", 16, false);
  const double async_s = step_seconds("sz", 16, true);
  const double base_s = step_seconds("none", 16, false);
  memory::Table t({"store", "step ms", "overhead vs raw"});
  t.add_row({"raw baseline", memory::fmt("%.1f", base_s * 1e3), "--"});
  t.add_row({"framework sync", memory::fmt("%.1f", sync_s * 1e3),
             memory::fmt("%.0f%%", 100.0 * (sync_s - base_s) / base_s)});
  t.add_row({"framework async (double-buffered)", memory::fmt("%.1f", async_s * 1e3),
             memory::fmt("%.0f%%", 100.0 * (async_s - base_s) / base_s)});
  t.print();
  std::puts("");
}

}  // namespace

int main() {
  std::puts("=== Fig. 11 — training throughput vs batch size (ResNet-50) ===\n");

  bench::JsonReporter report("fig11_throughput");
  compressor_throughput_section();
  async_store_section();
  const int exec_failures = executor_section(report);

  std::puts("--- measured (CPU substrate, scaled model) ---");
  memory::Table meas({"batch N", "baseline img/s", "framework img/s",
                      "framework overhead"});
  for (const std::size_t n : {4u, 8u, 16u, 32u}) {
    // Alternate the measurement order and keep the best of two rounds per
    // configuration: heap/page warm-up otherwise biases whichever store is
    // measured first, which at small batches can exceed the real overhead.
    double tb = step_seconds("none", n);
    double tf = step_seconds("sz", n);
    tf = std::min(tf, step_seconds("sz", n));
    tb = std::min(tb, step_seconds("none", n));
    meas.add_row({memory::fmt("%zu", n), memory::fmt("%.1f", n / tb),
                  memory::fmt("%.1f", n / tf), memory::fmt("%.0f%%", 100.0 * (tf - tb) / tb)});
    report.add("step_batch_" + std::to_string(n),
               {{"baseline_img_per_s", n / tb},
                {"framework_img_per_s", n / tf},
                {"overhead_frac", (tf - tb) / tb}});
  }
  meas.print();

  std::puts("\n--- projected on V100-16GB at ImageNet geometry ---");
  models::ModelConfig mcfg;
  mcfg.input_hw = 224;
  mcfg.num_classes = 1000;
  auto net224 = models::make_resnet50(mcfg);
  const auto dev = memory::DeviceModel::v100_16gb();
  const double framework_ratio = 11.0;  // paper's measured ResNet-50 ratio
  const std::size_t n_base = memory::max_batch(*net224, 224, dev, 1.0);
  const std::size_t n_fw = memory::max_batch(*net224, 224, dev, framework_ratio);

  // Batch-amortisation model: step(N) = fixed + per_image*N. The fixed part
  // (kernel launch, optimizer, allreduce) is ~15% of a batch-32 step.
  const double per_image = 1.0, fixed = 0.15 * 32.0;
  auto imgs_per_s = [&](std::size_t n, double overhead) {
    return static_cast<double>(n) / ((fixed + per_image * n) * (1.0 + overhead));
  };
  memory::Table proj({"configuration", "max batch", "rel. throughput (1 dev)",
                      "rel. throughput (4 dev)"});
  const double base_tp = imgs_per_s(n_base, 0.0);
  proj.add_row({"baseline", memory::fmt("%zu", n_base), "1.00x", "3.80x"});
  proj.add_row({"EBCT @ 17% overhead, larger batch", memory::fmt("%zu", n_fw),
                memory::fmt("%.2fx", imgs_per_s(n_fw, 0.17) / base_tp),
                memory::fmt("%.2fx", 3.80 * imgs_per_s(n_fw, 0.17) / base_tp)});
  proj.print();

  std::puts("\nShape check vs paper: throughput increases monotonically with N for");
  std::puts("both configurations; the framework's freed memory admits a much");
  std::puts("larger batch, recovering its compression overhead (paper: up to");
  std::puts("1.27x raw-performance improvement).");
  return exec_failures == 0 ? 0 : 1;
}
