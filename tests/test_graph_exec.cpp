/// \file test_graph_exec.cpp
/// The graph-scheduled executor's determinism contract: losses, parameters
/// and pager counters must be bitwise identical to the sequential path at
/// every pool size x budget point, write-behind on or off. A one-thread
/// pool always takes the sequential path (GraphExecutor::handles()), so
/// the pool-1 run is the reference. The matrix pins prefetch_depth = 0, so
/// a counter is a pure function of the pager call sequence — which is
/// exactly what the executor promises to replay. One leg leaves prefetch
/// at its default (admission then depends on timing) and compares losses
/// and parameters only.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/codec_registry.hpp"
#include "core/session.hpp"
#include "data/synthetic.hpp"
#include "models/model_zoo.hpp"
#include "tensor/sched.hpp"

namespace ebct {
namespace {

/// The env overrides would silently re-route every matrix point (a CI leg
/// exporting a budget must not turn the unbudgeted points into budgeted
/// ones), so the fixture clears them and puts them back afterwards.
class GraphExecMatrix : public ::testing::Test {
 protected:
  void SetUp() override {
    initial_pool_ = tensor::sched::num_threads();
    for (const char* name : kVars) {
      const char* v = std::getenv(name);
      saved_.emplace_back(name, v ? std::optional<std::string>(v) : std::nullopt);
      unsetenv(name);
    }
  }
  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value) {
        setenv(name.c_str(), value->c_str(), 1);
      } else {
        unsetenv(name.c_str());
      }
    }
    tensor::sched::set_num_threads(initial_pool_);
  }

 private:
  static constexpr const char* kVars[] = {"EBCT_WRITE_BEHIND", "EBCT_MEMORY_BUDGET_BYTES",
                                          "EBCT_PREFETCH_DEPTH"};
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
  int initial_pool_ = 1;
};

struct RunResult {
  std::vector<double> losses;
  std::vector<float> params;  ///< every trainable value after the last step
  memory::PagerCounters counters;
  std::size_t max_parallel_dispatch = 0;
  /// The executor was built and takes this run's batches (a one-thread pool
  /// hands them to the sequential path).
  bool executor_active = false;
};

/// `prefetch` < 0 keeps the FrameworkConfig default prefetch depth.
RunResult train_once(const std::string& model, int pool, std::size_t budget,
                     bool write_behind, std::size_t iterations = 3, int prefetch = 0) {
  tensor::sched::set_num_threads(pool);
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = model == "inception-v4" ? 0.125 : 0.25;
  mcfg.seed = 7;
  auto net = model == "inception-v4" ? models::make_inception_v4(mcfg)
                                     : models::find_model(model)(mcfg);

  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 32;
  dspec.seed = 777;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 8, true, true, 31);

  core::SessionConfig cfg;
  cfg.framework.active_factor_w = 4;
  cfg.framework.memory_budget_bytes = budget;
  if (prefetch >= 0) {
    cfg.framework.prefetch_depth = static_cast<std::size_t>(prefetch);
  }
  cfg.framework.write_behind = write_behind;
  cfg.base_lr = 0.05;
  core::TrainingSession session(*net, loader, cfg);
  session.run(iterations);

  RunResult r;
  for (const auto& rec : session.history()) r.losses.push_back(rec.loss);
  for (auto* p : net->params()) {
    const auto s = p->value.span();
    r.params.insert(r.params.end(), s.begin(), s.end());
  }
  r.counters = session.paged_store()->pager().counters();
  if (session.executor() != nullptr) {
    r.executor_active = session.executor()->handles(
        tensor::Shape::nchw(8, dspec.channels, dspec.image_hw, dspec.image_hw));
    r.max_parallel_dispatch = session.executor()->max_parallel_dispatch();
  }
  return r;
}

void expect_identical(const RunResult& got, const RunResult& ref,
                      const std::string& label) {
  ASSERT_EQ(got.losses.size(), ref.losses.size()) << label;
  for (std::size_t i = 0; i < ref.losses.size(); ++i) {
    ASSERT_EQ(got.losses[i], ref.losses[i]) << label << " iter " << i;
  }
  ASSERT_EQ(got.params.size(), ref.params.size()) << label;
  ASSERT_EQ(std::memcmp(got.params.data(), ref.params.data(),
                        ref.params.size() * sizeof(float)),
            0)
      << label << ": parameters diverged";
}

void expect_same_counters(const memory::PagerCounters& a,
                          const memory::PagerCounters& b, const std::string& label) {
  EXPECT_EQ(a.evictions, b.evictions) << label;
  EXPECT_EQ(a.spill_write_bytes, b.spill_write_bytes) << label;
  EXPECT_EQ(a.spill_read_bytes, b.spill_read_bytes) << label;
  EXPECT_EQ(a.dedup_pages, b.dedup_pages) << label;
  EXPECT_EQ(a.dedup_saved_bytes, b.dedup_saved_bytes) << label;
  EXPECT_EQ(a.over_budget_events, b.over_budget_events) << label;
  EXPECT_EQ(a.peak_resident_bytes, b.peak_resident_bytes) << label;
}

/// Pools {1, 2, max} x budgets {unlimited, ~50% peak, ~25% peak} for a
/// branchy-concat model (Inception), a residual model and a chain whose LRN
/// layers stash twice per node under a budget (AlexNet), which checks the
/// within-node staging order. The unbudgeted pool-1 run is the ground
/// truth for losses and parameters; at each budget the pool-1 run is the
/// counter reference the executor must match.
void run_matrix(const std::string& model) {
  const int max_pool = std::min(4, tensor::sched::num_threads());
  const RunResult ref = train_once(model, 1, 0, false);
  ASSERT_FALSE(ref.losses.empty());
  const std::size_t peak = ref.counters.peak_resident_bytes;
  ASSERT_GT(peak, 0u);

  std::size_t exec_max_dispatch = 0;
  for (const std::size_t budget : {std::size_t{0}, peak / 2, peak / 4}) {
    const RunResult seq = budget == 0 ? ref : train_once(model, 1, budget, false);
    for (const int pool : {1, 2, max_pool}) {
      const std::string point = model + " pool=" + std::to_string(pool) +
                                " budget=" + std::to_string(budget);
      const RunResult run = pool == 1 ? seq : train_once(model, pool, budget, false);
      expect_identical(run, ref, point);
      // With prefetch pinned off, the counters are a pure function of the
      // pager call sequence: the driver's in-order commits and staged drops
      // must replay the sequential one exactly.
      expect_same_counters(run.counters, seq.counters, point);
      if (budget > 0) {
        EXPECT_GT(run.counters.spill_write_bytes, 0u)
            << point << " never spilled — not a real paging point";
      }
      // On one thread every node task would run inline inside the first
      // dispatch, leaving the whole pass's raw stashes deposited outside
      // the pager's budget until the pass ends; the executor stands down.
      EXPECT_EQ(run.executor_active, pool > 1) << point;
      exec_max_dispatch = std::max(exec_max_dispatch, run.max_parallel_dispatch);
    }
  }

  if (model == "inception-v4") {
    // Structural concurrency witness (pool/timing independent): one tensor
    // completion must have readied several branch towers at once.
    EXPECT_GE(exec_max_dispatch, 2u) << "no parallel branch dispatch observed";
  }
}

TEST_F(GraphExecMatrix, InceptionBitwiseAcrossPoolsAndBudgets) {
  run_matrix("inception-v4");
}

TEST_F(GraphExecMatrix, ResNetBitwiseAcrossPoolsAndBudgets) {
  run_matrix("ResNet-18");
}

TEST_F(GraphExecMatrix, AlexNetBitwiseAcrossPoolsAndBudgets) {
  run_matrix("AlexNet");
}

/// The shipped defaults — prefetch on, write-behind on — on the largest
/// pool, unbudgeted and budgeted, over enough steps for the
/// prefetch tasks to race the executor's backward staging. Prefetch
/// admission depends on timing, so only losses and parameters are compared.
TEST_F(GraphExecMatrix, DefaultPrefetchMatchesSequential) {
  const int pool = std::min(4, tensor::sched::num_threads());
  constexpr std::size_t kSteps = 20;
  constexpr int kDefaultPrefetch = -1;
  const std::string kModels[] = {"inception-v4", "ResNet-18"};
  for (const std::string& model : kModels) {
    const RunResult ref = train_once(model, 1, 0, false, kSteps);
    const std::size_t peak = ref.counters.peak_resident_bytes;
    ASSERT_GT(peak, 0u);
    for (const std::size_t budget : {std::size_t{0}, peak / 2}) {
      const std::string point = model + " prefetch=default pool=" +
                                std::to_string(pool) + " budget=" + std::to_string(budget);
      const RunResult on = train_once(model, pool, budget, true, kSteps, kDefaultPrefetch);
      expect_identical(on, ref, point);
      EXPECT_EQ(on.executor_active, pool > 1) << point;
      EXPECT_GT(on.counters.prefetch_submitted, 0u) << point;
    }
  }
}

TEST_F(GraphExecMatrix, WriteBehindSpillMatchesSynchronousSpill) {
  const int max_pool = std::min(4, tensor::sched::num_threads());
  const RunResult ref = train_once("ResNet-18", 1, 0, false);
  const std::size_t tight = ref.counters.peak_resident_bytes / 2;
  ASSERT_GT(tight, 0u);
  for (const int pool : {1, max_pool}) {
    const std::string point = "wb pool=" + std::to_string(pool);
    const RunResult sync = train_once("ResNet-18", pool, tight, false);
    const RunResult wb = train_once("ResNet-18", pool, tight, true);
    expect_identical(wb, ref, point);
    // The write-behind queue counts not-yet-written blobs as resident,
    // picks the same victims, and stamps counters at issue — the whole
    // counter stream matches the synchronous spill path.
    expect_same_counters(wb.counters, sync.counters, point);
    EXPECT_GT(wb.counters.spill_write_bytes, 0u) << point;
    EXPECT_LE(wb.counters.peak_resident_bytes, tight) << point;
  }
}

}  // namespace
}  // namespace ebct
