// Ablation (design choice §4.4): the two zero-handling modes of the SZ
// compressor on sparse activation data — no filter and the paper's re-zero
// decompression filter. Stock SZ perturbs zeros that follow non-zero
// values; under dual quantization zeros sit on the grid, so both modes
// restore them.
// Reports compression ratio, zero preservation and the induced gradient
// error, connecting the Fig. 6a/6b observation to the compressor knob.

#include <cstdio>

#include "memory/report.hpp"
#include "sz/compressor.hpp"
#include "sz/metrics.hpp"
#include "stats/distribution.hpp"
#include "tensor/rng.hpp"
#include "util_fig6.hpp"

using namespace ebct;

int main() {
  std::puts("=== Ablation — zero handling in the compressor (§4.4) ===\n");

  tensor::Rng rng(3100);
  std::vector<float> act(1 << 20);
  rng.fill_relu_like({act.data(), act.size()}, 0.6, 1.0f);
  const double eb = 1e-3;

  memory::Table table({"zero mode", "ratio", "zeros preserved", "max |err|"});
  for (const auto& [mode, name] :
       {std::pair{sz::ZeroMode::kNone, "none (no filter)"},
        std::pair{sz::ZeroMode::kRezero, "re-zero filter (paper)"}}) {
    sz::Config cfg;
    cfg.error_bound = eb;
    cfg.zero_mode = mode;
    sz::Compressor comp(cfg);
    const auto buf = comp.compress({act.data(), act.size()});
    const auto recon = comp.decompress(buf);
    std::size_t zeros = 0, preserved = 0;
    for (std::size_t i = 0; i < act.size(); ++i) {
      if (act[i] == 0.0f) {
        ++zeros;
        if (recon[i] == 0.0f) ++preserved;
      }
    }
    table.add_row({name, memory::fmt("%.2fx", buf.compression_ratio()),
                   memory::fmt("%.1f%%", 100.0 * preserved / zeros),
                   memory::fmt("%.2e", sz::max_abs_error({act.data(), act.size()},
                                                         {recon.data(), recon.size()}))});
  }
  table.print();

  // Gradient-level consequence (ties to Fig. 6): preserved zeros shrink the
  // gradient-error sigma by sqrt(R).
  const auto& layer = bench::fig6_layers()[0];
  const auto e_pert = bench::collect_gradient_errors(layer, 1e-2, 0.6, 16, false, 25);
  const auto e_kept = bench::collect_gradient_errors(layer, 1e-2, 0.6, 16, true, 25);
  std::printf("\ngradient-error sigma: zeros perturbed %.3e | zeros preserved %.3e"
              " (ratio %.2f, sqrt(R) = %.2f)\n",
              stats::diagnose({e_pert.data(), e_pert.size()}).stddev,
              stats::diagnose({e_kept.data(), e_kept.size()}).stddev,
              stats::diagnose({e_kept.data(), e_kept.size()}).stddev /
                  stats::diagnose({e_pert.data(), e_pert.size()}).stddev,
              std::sqrt(0.4));

  std::puts("\nTakeaway: on the quantization grid both modes restore all zeros and");
  std::puts("keep the strict eb bound (the re-zero filter only reaches escaped values),");
  std::puts("and a zero after a zero is already a short delta-0 code.");
  return 0;
}
