#pragma once

/// \file session.hpp
/// End-to-end training session: wires a Network, DataLoader, SGD and one of
/// the activation-store strategies together, running the full loop of
/// Fig. 1 + Fig. 7. This is the public entry point a downstream user of the
/// library calls; the benches and examples are thin wrappers over it.
///
/// What the session does with activations is selected by a codec spec
/// string (FrameworkConfig::codec, overridable with EBCT_CODEC): any codec
/// registered in the CodecRegistry — "sz", "lossless", "jpeg-act:quality=50",
/// a per-layer "policy:..." — trains through the tiered pager with the
/// adaptive scheme enabled whenever the codec is error-bounded; "none"
/// selects the raw-store baseline. The paper's §5.4 comparison is
/// therefore a config sweep, not a code change.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "core/config.hpp"
#include "data/synthetic.hpp"
#include "graph/executor.hpp"
#include "graph/graph.hpp"
#include "memory/pager.hpp"
#include "nn/network.hpp"
#include "nn/sgd.hpp"
#include "nn/softmax_xent.hpp"

namespace ebct::core {

struct SessionConfig {
  FrameworkConfig framework;
  nn::SgdOptions sgd;
  double base_lr = 0.01;
  double lr_gamma = 0.1;                ///< step decay factor
  std::size_t lr_step = 0;              ///< 0 = constant LR
  std::uint64_t seed = 99;
};

/// One iteration's record for the Fig. 9/10 curves.
struct IterationRecord {
  std::size_t iteration = 0;
  double loss = 0.0;
  double train_accuracy = 0.0;
  double lr = 0.0;
  double mean_compression_ratio = 0.0;  ///< over conv layers, 0 when raw
  std::size_t store_held_bytes = 0;     ///< RAM-resident stash at fwd/bwd turnaround
  std::size_t store_spilled_bytes = 0;  ///< disk-tier stash at the same point
  /// Whether the adaptive scheme is driving per-layer bounds this run —
  /// false when the selected codec is not error-bounded (jpeg-act,
  /// lossless, none) and the phases 1-4 loop silently disabled itself.
  bool adaptive_active = false;
};

class TrainingSession {
 public:
  TrainingSession(nn::Network& net, data::DataLoader& loader, SessionConfig cfg);

  /// Run `iterations` steps; per-step records are appended to history().
  /// `on_iteration` (optional) observes each record as it is produced.
  void run(std::size_t iterations,
           const std::function<void(const IterationRecord&)>& on_iteration = {});

  /// Top-1 accuracy over `batches` batches of an evaluation loader.
  double evaluate(data::DataLoader& eval_loader, std::size_t batches);

  const std::vector<IterationRecord>& history() const { return history_; }
  nn::Network& network() { return net_; }
  AdaptiveScheme* scheme() { return scheme_ ? scheme_.get() : nullptr; }
  /// The registry-built codec driving the pager (null for "none").
  nn::ActivationCodec* codec() { return codec_.get(); }
  /// The codec spec the session resolved (registry spec or "none") after
  /// the EBCT_CODEC override.
  const std::string& codec_spec() const { return codec_spec_; }
  /// The framework mode's tiered store (null in the baseline mode).
  memory::PagedStore* paged_store() { return framework_store_.get(); }
  /// The graph IR built at the first run() iteration (null before that,
  /// and always null for "none" sessions).
  const graph::Graph* graph() const { return graph_.get(); }
  /// The graph-scheduled executor (null before the first run() iteration,
  /// for "none" sessions, or when the model's graph is
  /// structurally unsupported and the session fell back). Batches it does
  /// not handle() — any batch on a one-thread pool — take the sequential
  /// path.
  graph::GraphExecutor* executor() { return executor_.get(); }
  std::size_t iteration() const { return iteration_; }

  /// One consolidated name → value snapshot of every runtime counter
  /// island: per-phase wall-clock (the process-wide obs::MetricsRegistry),
  /// this session's pager counters, scheduler steal stats, executor
  /// dispatch stats, and trace-ring emit/drop totals.
  /// Rows are JsonReporter-shaped so benches emit them directly; names and
  /// units are documented in docs/OBSERVABILITY.md. Also written as JSON
  /// to the EBCT_METRICS path (when set) at the end of every run().
  std::vector<std::pair<std::string, double>> metrics() const;

 private:
  nn::Network& net_;
  data::DataLoader& loader_;
  SessionConfig cfg_;
  std::string codec_spec_;
  nn::Sgd sgd_;
  std::unique_ptr<nn::LrSchedule> schedule_;
  nn::SoftmaxCrossEntropy loss_;

  std::shared_ptr<nn::ActivationCodec> codec_;
  std::unique_ptr<memory::PagedStore> framework_store_;  ///< budget-enforced tiered store
  std::unique_ptr<nn::RawStore> raw_store_;
  std::unique_ptr<AdaptiveScheme> scheme_;
  std::unique_ptr<graph::Graph> graph_;
  /// Declared after framework_store_ and graph_ so it is destroyed first:
  /// ~GraphExecutor detaches itself from the store, and the plan borrows
  /// the graph.
  std::unique_ptr<graph::GraphExecutor> executor_;

  std::vector<IterationRecord> history_;
  std::size_t iteration_ = 0;

  /// EBCT_METRICS sink: metrics() as a flat JSON object at `path`.
  void write_metrics_json(const std::string& path) const;
};

}  // namespace ebct::core
