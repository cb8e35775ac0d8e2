// Example: full training comparison on the synthetic ImageNet substitute.
// Trains the same network under several activation codecs — selected purely
// by registry spec strings, no per-codec wiring — and reports curves, eval
// accuracy, per-layer compression ratios and the peak activation footprint.
//
// Usage: train_synthetic [model] [iterations] [--codec=<name[:params]>]
//        model in {AlexNet, VGG-16, ResNet-18, ResNet-50}; default ResNet-18.
//        Default codec set: none (raw baseline), sz, lossless. With --codec,
//        the baseline and the requested codec are compared instead.
//        --help lists every registered codec.

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/codec_registry.hpp"
#include "core/env.hpp"
#include "core/session.hpp"
#include "data/synthetic.hpp"
#include "memory/accounting.hpp"
#include "memory/report.hpp"
#include "models/model_zoo.hpp"

using namespace ebct;

namespace {

struct Outcome {
  std::string name;
  double eval_acc = 0.0;
  double final_loss = 0.0;
  double ratio = 0.0;
  std::size_t peak_store_bytes = 0;
};

Outcome run(const std::string& model, const std::string& codec_spec, std::size_t iters) {
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.25;
  mcfg.seed = 11;
  auto net = models::find_model(model)(mcfg);

  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 128;
  dspec.test_per_class = 32;
  data::SyntheticImageDataset ds(dspec);
  data::DataLoader loader(ds, 16, true, true, 27);

  core::SessionConfig cfg;
  cfg.framework.codec = codec_spec;
  cfg.framework.active_factor_w = 20;
  cfg.base_lr = (model == "AlexNet" || model == "VGG-16") ? 0.01 : 0.05;
  core::TrainingSession session(*net, loader, cfg);

  Outcome out;
  out.name = codec_spec;
  session.run(iters, [&](const core::IterationRecord& rec) {
    out.final_loss = rec.loss;
    out.ratio = rec.mean_compression_ratio;
    out.peak_store_bytes = std::max(out.peak_store_bytes, rec.store_held_bytes);
  });
  data::DataLoader ev(ds, 16, false, false);
  out.eval_acc = session.evaluate(ev, 8);

  if (session.scheme() != nullptr && session.scheme()->active()) {
    std::printf("\n[%s] adaptive per-layer error bounds:\n", codec_spec.c_str());
    const auto ratios = session.codec()->last_ratios();
    for (const auto& [layer, eb] : session.scheme()->last_bounds())
      std::printf("  %-28s eb = %.2e  (ratio %.1fx)\n", layer.c_str(), eb,
                  ratios.count(layer) ? ratios.at(layer) : 0.0);
  }
  return out;
}

void print_help(const char* argv0) {
  std::printf("usage: %s [model] [iterations] [--codec=<name[:params]>]\n\n", argv0);
  std::puts("registered codecs:");
  for (const auto& info : core::CodecRegistry::instance().list()) {
    std::printf("  %-10s %s%s%s\n", info.name.c_str(), info.summary.c_str(),
                info.params_help.empty() ? "" : "  params: ",
                info.params_help.c_str());
  }
  std::puts("\nplus the session sentinel \"none\" (raw baseline).");
  std::puts("EBCT_CODEC=<spec> overrides the codec of any non-baseline run.");
}

int run_cli(int argc, char** argv) {
  std::string model = "ResNet-18";
  std::size_t iters = 150;
  std::vector<std::string> codecs = {"none", "sz", "lossless"};
  std::size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(argv[0]);
      return 0;
    }
    if (arg.rfind("--codec=", 0) == 0) {
      codecs = {"none", arg.substr(std::strlen("--codec="))};
    } else if (positional == 0) {
      model = arg;
      ++positional;
    } else if (positional == 1) {
      iters = core::parse_size("iterations", arg.c_str());
      ++positional;
    } else {
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    }
  }

  std::printf("=== training %s for %zu iterations, %zu activation codecs ===\n",
              model.c_str(), iters, codecs.size());

  std::vector<Outcome> outcomes;
  for (const auto& spec : codecs) outcomes.push_back(run(model, spec, iters));

  memory::Table table({"codec", "eval top-1", "final loss", "conv ratio",
                       "peak stash bytes"});
  for (const Outcome& o : outcomes) {
    table.add_row({o.name, memory::fmt("%.3f", o.eval_acc),
                   memory::fmt("%.3f", o.final_loss),
                   o.ratio > 0 ? memory::fmt("%.1fx", o.ratio) : "1.0x",
                   memory::human_bytes(o.peak_store_bytes)});
  }
  std::puts("");
  table.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "train_synthetic: %s\n", e.what());
    return 2;
  }
}
