// Budget sweep: trains the same model under a descending ladder of memory
// budgets and charts throughput against the budget, proving the pager's two
// headline claims: (1) the RSS-proxy (pager accounting bytes) respects the
// budget at every sweep point, and (2) the training trajectory is
// byte-identical at every point — the budget moves bytes between RAM, disk
// and time, never values. Emits BENCH_fig_budget_sweep.json.
//
// Usage: fig_budget_sweep [--smoke]
//   --smoke: reduced iterations, tighter sweep, non-zero exit on any
//            violated invariant (budget overshoot, trajectory divergence,
//            spill-file leak) — run as a CTest target under ASan in CI.
//   The spill directory honours EBCT_SPILL_DIR.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/session.hpp"
#include "data/synthetic.hpp"
#include "memory/accounting.hpp"
#include "memory/pager.hpp"
#include "memory/spill_file.hpp"
#include "models/model_zoo.hpp"

using namespace ebct;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fig_budget_sweep FAIL: %s\n", what);
    ++g_failures;
  }
}

struct SweepPoint {
  std::vector<double> losses;
  double seconds = 0.0;
  memory::PagerCounters pager;
  /// Consolidated TrainingSession::metrics() snapshot (JsonReporter-shaped).
  std::vector<std::pair<std::string, double>> metrics;
};

SweepPoint train(std::size_t budget, std::size_t iterations, bool write_behind = false) {
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.25;
  mcfg.seed = 11;
  auto net = models::make_resnet18(mcfg);

  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 64;
  dspec.seed = 777;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 16, true, true, 27);

  core::SessionConfig cfg;
  // codec: FrameworkConfig default ("sz"), or whatever EBCT_CODEC selects.
  cfg.framework.active_factor_w = 10;
  cfg.framework.memory_budget_bytes = budget;
  cfg.framework.write_behind = write_behind;
  cfg.base_lr = 0.05;
  core::TrainingSession session(*net, loader, cfg);

  SweepPoint p;
  p.seconds = bench::time_seconds([&] {
    session.run(iterations, [&](const core::IterationRecord& rec) {
      p.losses.push_back(rec.loss);
    });
  });
  p.pager = session.paged_store()->pager().counters();
  p.metrics = session.metrics();
  return p;
}

/// Inception under a budget: its branch heads stash clones of one produced
/// tensor per block, so the session's exact-liveness pager dedups them and
/// pages by furthest next use (tests/test_graph.cpp gates that this spills
/// less than put-order paging).
SweepPoint train_inception(std::size_t budget, std::size_t iterations) {
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.125;
  mcfg.seed = 11;
  auto net = models::make_inception_v4(mcfg);

  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 32;
  dspec.seed = 777;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 8, true, true, 27);

  core::SessionConfig cfg;
  cfg.framework.active_factor_w = 10;
  cfg.framework.memory_budget_bytes = budget;
  cfg.base_lr = 0.05;
  core::TrainingSession session(*net, loader, cfg);

  SweepPoint p;
  p.seconds = bench::time_seconds([&] {
    session.run(iterations, [&](const core::IterationRecord& rec) {
      p.losses.push_back(rec.loss);
    });
  });
  p.pager = session.paged_store()->pager().counters();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t iters = smoke ? 8 : 40;
  bench::JsonReporter report("fig_budget_sweep");

  // Reference: unbudgeted. Its resident peak defines the sweep ladder.
  const SweepPoint ref = train(0, iters);
  const std::size_t peak = ref.pager.peak_resident_bytes;
  std::printf("unbudgeted compressed peak: %s, %.2f iter/s\n",
              memory::human_bytes(peak).c_str(),
              static_cast<double>(iters) / ref.seconds);
  report.add("unlimited", {{"budget_bytes", 0.0},
                           {"iters_per_sec", static_cast<double>(iters) / ref.seconds},
                           {"peak_resident_bytes", static_cast<double>(peak)},
                           {"spill_write_bytes", 0.0},
                           {"budget_respected", 1.0}});
  // The unbudgeted run's consolidated runtime snapshot (per-phase timings,
  // pager/tier/scheduler/trace counters) as one machine-readable row.
  report.add("unlimited_session_metrics", ref.metrics);

  const double fractions[] = {1.0, 0.75, 0.5, 0.25};
  for (const double frac : fractions) {
    const std::size_t budget =
        static_cast<std::size_t>(static_cast<double>(peak) * frac);
    const SweepPoint p = train(budget, iters);
    const bool respected = p.pager.peak_resident_bytes <= budget;
    const bool identical = p.losses == ref.losses;
    char name[32];
    std::snprintf(name, sizeof(name), "budget_%d%%", static_cast<int>(frac * 100));
    std::printf(
        "%-12s %-12s %6.2f iter/s  peak %-12s spilled %-12s prefetch %zu/%zu  %s %s\n",
        name, memory::human_bytes(budget).c_str(),
        static_cast<double>(iters) / p.seconds,
        memory::human_bytes(p.pager.peak_resident_bytes).c_str(),
        memory::human_bytes(p.pager.spill_write_bytes).c_str(),
        p.pager.prefetch_hits, p.pager.prefetch_submitted,
        respected ? "budget-ok" : "BUDGET-VIOLATED",
        identical ? "bitwise-ok" : "TRAJECTORY-DIVERGED");
    report.add(name,
               {{"budget_bytes", static_cast<double>(budget)},
                {"iters_per_sec", static_cast<double>(iters) / p.seconds},
                {"peak_resident_bytes", static_cast<double>(p.pager.peak_resident_bytes)},
                {"spill_write_bytes", static_cast<double>(p.pager.spill_write_bytes)},
                {"spill_read_bytes", static_cast<double>(p.pager.spill_read_bytes)},
                {"evictions", static_cast<double>(p.pager.evictions)},
                {"prefetch_hits", static_cast<double>(p.pager.prefetch_hits)},
                {"budget_respected", respected ? 1.0 : 0.0},
                {"bitwise_identical", identical ? 1.0 : 0.0}});
    check(respected, "peak resident bytes respect the budget");
    check(identical, "training trajectory byte-identical under budget");
    if (frac <= 0.5) {
      check(p.pager.spill_write_bytes > 0,
            "a budget at <=50% of peak actually reaches the disk tier");
    }
  }

  // Write-behind spill queue under the same ladder points that reach disk:
  // spill writes are issued asynchronously, but victim selection projects
  // queued blobs as already gone while the budget check still counts their
  // bytes as resident — so the overshoot gate, the spill-file-leak gate and
  // bitwise trajectory identity must all hold exactly as in the synchronous
  // sweep above.
  for (const double frac : {0.5, 0.25}) {
    const std::size_t budget =
        static_cast<std::size_t>(static_cast<double>(peak) * frac);
    const SweepPoint p = train(budget, iters, /*write_behind=*/true);
    const bool respected = p.pager.peak_resident_bytes <= budget;
    const bool identical = p.losses == ref.losses;
    char name[40];
    std::snprintf(name, sizeof(name), "budget_%d%%_writebehind",
                  static_cast<int>(frac * 100));
    std::printf("%-24s %6.2f iter/s  peak %-12s spilled %-12s %s %s\n", name,
                static_cast<double>(iters) / p.seconds,
                memory::human_bytes(p.pager.peak_resident_bytes).c_str(),
                memory::human_bytes(p.pager.spill_write_bytes).c_str(),
                respected ? "budget-ok" : "BUDGET-VIOLATED",
                identical ? "bitwise-ok" : "TRAJECTORY-DIVERGED");
    report.add(name,
               {{"budget_bytes", static_cast<double>(budget)},
                {"iters_per_sec", static_cast<double>(iters) / p.seconds},
                {"peak_resident_bytes", static_cast<double>(p.pager.peak_resident_bytes)},
                {"spill_write_bytes", static_cast<double>(p.pager.spill_write_bytes)},
                {"budget_respected", respected ? 1.0 : 0.0},
                {"bitwise_identical", identical ? 1.0 : 0.0}});
    check(respected, "write-behind peak resident bytes respect the budget");
    check(identical, "write-behind trajectory byte-identical under budget");
    check(p.pager.spill_write_bytes > 0,
          "write-behind sweep point actually reaches the disk tier");
  }

  // Inception under the liveness pager: same model and data at every
  // budget, so the trajectory must stay bitwise identical to the
  // unbudgeted run while the budget holds.
  {
    const std::size_t inc_iters = smoke ? 6 : 24;
    const SweepPoint inc_ref = train_inception(0, inc_iters);
    const std::size_t inc_peak = inc_ref.pager.peak_resident_bytes;
    std::printf("inception unbudgeted peak: %s\n", memory::human_bytes(inc_peak).c_str());
    for (const double frac : {0.5, 0.25}) {
      const std::size_t budget =
          static_cast<std::size_t>(static_cast<double>(inc_peak) * frac);
      const SweepPoint p = train_inception(budget, inc_iters);
      char name[48];
      std::snprintf(name, sizeof(name), "inception_liveness_%d%%",
                    static_cast<int>(frac * 100));
      report.add(name,
                 {{"budget_bytes", static_cast<double>(budget)},
                  {"iters_per_sec", static_cast<double>(inc_iters) / p.seconds},
                  {"peak_resident_bytes", static_cast<double>(p.pager.peak_resident_bytes)},
                  {"spill_write_bytes", static_cast<double>(p.pager.spill_write_bytes)},
                  {"dedup_pages", static_cast<double>(p.pager.dedup_pages)},
                  {"dedup_saved_bytes", static_cast<double>(p.pager.dedup_saved_bytes)},
                  {"bitwise_identical", p.losses == inc_ref.losses ? 1.0 : 0.0}});
      std::printf("%-24s spilled %-12s (dedup %zu pages)\n", name,
                  memory::human_bytes(p.pager.spill_write_bytes).c_str(),
                  p.pager.dedup_pages);
      check(p.losses == inc_ref.losses,
            "inception liveness trajectory byte-identical under budget");
      check(p.pager.peak_resident_bytes <= budget, "inception run respects the budget");
    }
  }

  // Spill-dir teardown: every pager above is destroyed; no descriptor and
  // no on-disk file may survive.
  check(memory::SpillFile::files_open() == 0, "no spill file left open");
  if (const char* dir = std::getenv("EBCT_SPILL_DIR")) {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().filename().string().rfind("ebct-spill-", 0) == 0) {
        check(false, "spill dir still contains an ebct-spill file");
      }
    }
  }

  if (g_failures == 0) std::printf("fig_budget_sweep: all invariants held\n");
  return g_failures == 0 ? 0 : 1;
}
