// Quickstart: the two things EBCT does, in ~60 lines.
//
//  1. Compress a float tensor with a strict error bound and get ~10x the
//     ratio of lossless compression.
//  2. Train a CNN whose conv activations live compressed between the
//     forward and backward pass, with the adaptive error-bound controller
//     picking per-layer bounds — at no accuracy cost.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart

#include <cstdio>

#include "core/session.hpp"
#include "data/synthetic.hpp"
#include "models/model_zoo.hpp"
#include "sz/compressor.hpp"
#include "sz/metrics.hpp"
#include "tensor/rng.hpp"

using namespace ebct;

int main() {
  // --- 1. Error-bounded compression of activation-like data. ---------------
  std::vector<float> activations(1 << 20);
  tensor::Rng rng(42);
  rng.fill_relu_like({activations.data(), activations.size()},
                     /*sparsity=*/0.55, /*scale=*/1.0f);

  sz::Config cfg;
  cfg.error_bound = 1e-3;                    // every element within +-1e-3
  cfg.zero_mode = sz::ZeroMode::kRezero;     // re-zero filter (§4.4)
  sz::Compressor compressor(cfg);

  const sz::CompressedBuffer buf = compressor.compress(activations);
  const std::vector<float> restored = compressor.decompress(buf);

  std::printf("compressed %zu floats: ratio %.1fx, max error %.2e (bound %.0e)\n",
              activations.size(), buf.compression_ratio(),
              sz::max_abs_error(activations, restored), cfg.error_bound);

  // --- 2. Memory-efficient training with the adaptive framework. -----------
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.25;
  auto net = models::make_resnet18(mcfg);

  data::SyntheticSpec dspec;
  dspec.num_classes = 4;
  dspec.image_hw = 16;
  dspec.train_per_class = 64;
  data::SyntheticImageDataset dataset(dspec);
  data::DataLoader loader(dataset, /*batch=*/16, /*train=*/true, /*shuffle=*/true);

  core::SessionConfig scfg;
  scfg.framework.codec = "sz";               // SZ-compressed activations
                                             // (any registry spec works:
                                             //  "lossless", "jpeg-act:quality=50", ...)
  scfg.framework.active_factor_w = 10;       // refresh bounds every 10 iters
  scfg.base_lr = 0.05;

  core::TrainingSession session(*net, loader, scfg);
  session.run(40, [](const core::IterationRecord& rec) {
    if (rec.iteration % 10 == 0) {
      std::printf("iter %3zu  loss %.3f  acc %.2f  conv ratio %.1fx\n",
                  rec.iteration, rec.loss, rec.train_accuracy,
                  rec.mean_compression_ratio);
    }
  });

  std::puts("\nPer-layer adaptive error bounds chosen by the controller (Eq. 9):");
  int shown = 0;
  for (const auto& [layer, eb] : session.scheme()->last_bounds()) {
    std::printf("  %-24s eb = %.2e\n", layer.c_str(), eb);
    if (++shown == 5) break;
  }
  return 0;
}
