#include "core/session.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/codec_registry.hpp"
#include "core/env.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/sched.hpp"

namespace ebct::core {

using tensor::Tensor;

namespace {

/// Environment overrides for the paging knobs, so existing binaries can be
/// driven under a budget without code changes (the budget-sweep CI leg and
/// the README recipes use these).
memory::PagerConfig pager_config_from(const FrameworkConfig& fw) {
  memory::PagerConfig pc;
  pc.spill_dir = fw.spill_dir;
  pc.async_encode = fw.async_compression;
  pc.encode_window = fw.async_queue_depth;
  pc.write_behind = env_flag("EBCT_WRITE_BEHIND", fw.write_behind);
  pc.budget_bytes = env_size("EBCT_MEMORY_BUDGET_BYTES", fw.memory_budget_bytes);
  if (const char* env = std::getenv("EBCT_SPILL_DIR")) {
    if (env[0] != '\0') pc.spill_dir = env;
  }
  pc.prefetch_depth = env_size("EBCT_PREFETCH_DEPTH", fw.prefetch_depth);
  return pc;
}

/// The session's codec choice: FrameworkConfig::codec, unless the
/// EBCT_CODEC env override replaces it — so any training binary can be
/// re-run under a different codec without a rebuild. The override replaces
/// a *codec* spec only: "none" selects a store topology and a run that
/// asked for the raw baseline must stay a raw baseline.
std::string resolve_codec_spec(const SessionConfig& cfg) {
  const char* env = std::getenv("EBCT_CODEC");
  if (cfg.framework.codec == "none" || env == nullptr || env[0] == '\0')
    return cfg.framework.codec;
  return env;
}

}  // namespace

TrainingSession::TrainingSession(nn::Network& net, data::DataLoader& loader,
                                 SessionConfig cfg)
    : net_(net),
      loader_(loader),
      cfg_(cfg),
      codec_spec_(resolve_codec_spec(cfg)),
      sgd_(cfg.sgd) {
  if (cfg_.lr_step > 0) {
    schedule_ = std::make_unique<nn::StepLr>(cfg_.base_lr, cfg_.lr_gamma, cfg_.lr_step);
  } else {
    schedule_ = std::make_unique<nn::ConstantLr>(cfg_.base_lr);
  }

  if (codec_spec_ == "none") {
    raw_store_ = std::make_unique<nn::RawStore>();
    net_.set_store(raw_store_.get());
    return;
  }
  // Any registered codec: all training routes through the tiered pager —
  // with no budget it only holds the encoded bytes (encoded on the pool
  // with async_compression); with a budget it also spills to disk and
  // pages the layers' exact state. The
  // adaptive scheme rides along and self-disables when the codec is not
  // error-bounded (IterationRecord::adaptive_active reports which).
  codec_ = CodecRegistry::instance().create(codec_spec_, cfg_.framework);
  framework_store_ = std::make_unique<memory::PagedStore>(
      pager_config_from(cfg_.framework), codec_);
  net_.set_store(framework_store_.get());
  scheme_ = std::make_unique<AdaptiveScheme>(cfg_.framework, codec_.get());
}

void TrainingSession::run(std::size_t iterations,
                          const std::function<void(const IterationRecord&)>& on_iteration) {
  Tensor images;
  std::vector<std::int32_t> labels;
  for (std::size_t step = 0; step < iterations; ++step) {
    loader_.next(images, labels);

    // The graph IR needs a concrete input shape, which only the first batch
    // provides — so the build happens here, once, not in the constructor.
    // Liveness flows to the pager before the first forward so eviction is
    // furthest-next-use from the very first stash.
    if (framework_store_ && !graph_) {
      graph_ = std::make_unique<graph::Graph>(
          graph::Graph::from_network(net_, images.shape()));
      framework_store_->set_liveness(graph_->liveness());
      // The executor validates the graph's structure itself; an unsupported
      // model simply keeps the sequential path.
      executor_ = std::make_unique<graph::GraphExecutor>(*graph_, net_, *framework_store_);
      if (executor_->supported()) {
        framework_store_->set_interceptor(executor_.get());
      } else {
        executor_.reset();
      }
    }

    const bool use_exec = executor_ && executor_->handles(images.shape());
    Tensor logits;
    {
      obs::trace::Span span("session.forward", obs::trace::Cat::kSession);
      obs::ScopedPhase phase(obs::Phase::kForward);
      logits = use_exec ? executor_->forward(images, /*train=*/true)
                        : net_.forward(images, /*train=*/true);
    }
    const std::size_t held = net_.store().held_bytes();
    const std::size_t spilled =
        framework_store_ ? framework_store_->pager().spilled_bytes() : 0;
    const nn::LossResult lr = loss_.compute(logits, labels);
    // Announce the LIFO replay so the pager starts fetching the deepest
    // activations while the loss layer's gradient is still being formed.
    {
      obs::trace::Span span("session.backward", obs::trace::Cat::kSession);
      obs::ScopedPhase phase(obs::Phase::kBackward);
      net_.store().prepare_backward();
      if (use_exec) {
        executor_->backward(lr.grad_logits);
      } else {
        net_.backward(lr.grad_logits);
      }
    }

    const double rate = schedule_->lr(iteration_);
    auto params = net_.params();
    sgd_.step(params, rate);

    // Adaptive refresh every W iterations, after backward so the conv
    // layers carry fresh L̄ / R and the momentum reflects this step.
    if (scheme_ && scheme_->should_update(iteration_)) {
      scheme_->update(net_, loader_.batch_size());
    }

    IterationRecord rec;
    rec.iteration = iteration_;
    rec.loss = lr.loss;
    rec.train_accuracy = lr.accuracy;
    rec.lr = rate;
    rec.store_held_bytes = held;
    rec.store_spilled_bytes = spilled;
    rec.adaptive_active = scheme_ != nullptr && scheme_->active();
    if (codec_) {
      const auto ratios = codec_->last_ratios();
      if (!ratios.empty()) {
        double acc = 0.0;
        for (const auto& [k, v] : ratios) acc += v;
        rec.mean_compression_ratio = acc / static_cast<double>(ratios.size());
      }
    }
    history_.push_back(rec);
    if (on_iteration) on_iteration(rec);
    ++iteration_;
  }

  // EBCT_METRICS=<path>: dump the consolidated snapshot after every run()
  // (last writer wins, so a multi-run process leaves its final state).
  // Path semantics match EBCT_SPILL_DIR: empty string = unset.
  if (const char* env = std::getenv("EBCT_METRICS"); env != nullptr && env[0] != '\0') {
    write_metrics_json(env);
  }
}

std::vector<std::pair<std::string, double>> TrainingSession::metrics() const {
  std::vector<std::pair<std::string, double>> m;
  m.emplace_back("iterations", static_cast<double>(iteration_));

  // Per-phase wall-clock — process-wide accumulators (every session in the
  // process adds to them; benches wanting per-section numbers drain the
  // registry around the section instead).
  const obs::PhaseSnapshot ph = obs::MetricsRegistry::instance().snapshot();
  for (int i = 0; i < obs::kNumPhases; ++i) {
    const std::string base =
        std::string("phase.") + obs::phase_name(static_cast<obs::Phase>(i));
    m.emplace_back(base + ".ns", static_cast<double>(ph[i].ns));
    m.emplace_back(base + ".count", static_cast<double>(ph[i].count));
  }

  // This session's pager counters (absent in the baseline mode).
  if (framework_store_) {
    const memory::PagerCounters c = framework_store_->pager().counters();
    const std::pair<const char*, std::size_t> rows[] = {
        {"pager.resident_bytes", c.resident_bytes},
        {"pager.peak_resident_bytes", c.peak_resident_bytes},
        {"pager.raw_bytes", c.raw_bytes},
        {"pager.compressed_bytes", c.compressed_bytes},
        {"pager.spilled_bytes", c.spilled_bytes},
        {"pager.evictions", c.evictions},
        {"pager.spill_write_bytes", c.spill_write_bytes},
        {"pager.spill_read_bytes", c.spill_read_bytes},
        {"pager.prefetch_submitted", c.prefetch_submitted},
        {"pager.prefetch_hits", c.prefetch_hits},
        {"pager.over_budget_events", c.over_budget_events},
        {"pager.dedup_pages", c.dedup_pages},
        {"pager.dedup_saved_bytes", c.dedup_saved_bytes},
    };
    for (const auto& [name, v] : rows)
      m.emplace_back(name, static_cast<double>(v));
  }

  // Scheduler pool + steal latency (non-destructive snapshot).
  {
    const tensor::sched::StealStats ss = tensor::sched::steal_stats();
    m.emplace_back("sched.threads",
                   static_cast<double>(tensor::sched::num_threads()));
    m.emplace_back("sched.steals", static_cast<double>(ss.recorded));
    m.emplace_back("sched.steal_p50_ns", ss.percentile_ns(0.5));
    m.emplace_back("sched.steal_p95_ns", ss.percentile_ns(0.95));
  }

  // Executor dispatch stats, when the graph-scheduled path is active.
  if (executor_) {
    m.emplace_back("exec.max_parallel_dispatch",
                   static_cast<double>(executor_->max_parallel_dispatch()));
  }

  // Trace-ring health: a nonzero drop count means EBCT_TRACE_RING_EVENTS
  // is too small for the run.
  m.emplace_back("trace.emitted", static_cast<double>(obs::trace::emitted()));
  m.emplace_back("trace.dropped", static_cast<double>(obs::trace::dropped()));
  return m;
}

void TrainingSession::write_metrics_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out)
    throw std::runtime_error("EBCT_METRICS: cannot open '" + path + "'");
  const auto m = metrics();
  out << "{\n";
  char buf[64];
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", m[i].second);
    out << "  \"" << m[i].first << "\": " << buf
        << (i + 1 < m.size() ? ",\n" : "\n");
  }
  out << "}\n";
  if (!out.flush())
    throw std::runtime_error("EBCT_METRICS: write failed: '" + path + "'");
}

double TrainingSession::evaluate(data::DataLoader& eval_loader, std::size_t batches) {
  Tensor images;
  std::vector<std::int32_t> labels;
  double correct = 0.0;
  std::size_t total = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    eval_loader.next(images, labels);
    Tensor logits = net_.forward(images, /*train=*/false);
    const std::size_t n = logits.shape().n();
    const std::size_t k = logits.shape()[1];
    for (std::size_t s = 0; s < n; ++s) {
      const float* row = logits.data() + s * k;
      std::size_t argmax = 0;
      for (std::size_t j = 1; j < k; ++j)
        if (row[j] > row[argmax]) argmax = j;
      if (static_cast<std::int32_t>(argmax) == labels[s]) correct += 1.0;
    }
    total += n;
    // The eval forward still stashed activations; drain them with a
    // zero-gradient backward so the store does not leak across batches.
    Tensor dummy_grad(logits.shape(), 0.0f);
    net_.store().prepare_backward();
    net_.backward(dummy_grad);
    net_.zero_grad();
  }
  return total ? correct / static_cast<double>(total) : 0.0;
}

}  // namespace ebct::core
