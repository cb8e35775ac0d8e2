// Reduced-size performance smoke test, run as a CTest target so CI catches
// structural perf regressions without relying on wall-clock thresholds
// (shared runners are too noisy for that). It asserts:
//   1. conv-shaped GEMMs (small m, large n) plan a parallel 2D tile grid —
//      the serial-fallback bug class this engine was built to kill;
//   2. the GEMM dispatches to the widest SIMD kernel the host's CPU flags
//      allow, so a silent fallback to the portable kernel fails;
//   3. GEMM outputs are bitwise identical across scheduler pool sizes;
//   4. a conv forward+backward pair is bitwise identical across pool sizes
//      (fixed-fanout gradient reduction riding the work-stealing pool).
// It also times the reduced shapes (at the dispatched level, and GFLOP/s at
// every supported level), each distinct conv of the benchmark's ResNet-50
// at pool 1 and pool N, and the stages of one SZ window, and emits
// BENCH_perf_smoke.json for trend tracking. Dedicated perf runners can opt
// into a wall-clock gate: point EBCT_PERF_BASELINE at a previous
// BENCH_perf_smoke.json and any timed row slower than
// EBCT_PERF_MAX_SLOWDOWN x its baseline (default 1.25) fails the run.
// Shared CI leaves the env unset. Exit code 0 = pass.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/codec_registry.hpp"
#include "core/session.hpp"
#include "data/synthetic.hpp"
#include "models/model_zoo.hpp"
#include "nn/conv2d.hpp"
#include "obs/metrics.hpp"
#include "sz/compressor.hpp"
#include "sz/huffman.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"
#include "tensor/sched.hpp"

namespace {

using namespace ebct;

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perf_smoke FAIL: %s\n", what);
    ++g_failures;
  }
}

void set_threads(int t) { tensor::sched::set_num_threads(t); }

/// Conv layer geometry from the Inception zoo: m = out_channels is far below
/// the old 4096-row parallel grain, so the seed GEMM ran serial here.
struct ConvShape {
  std::size_t m, k, n;
};
constexpr ConvShape kConvShapes[] = {
    {64, 576, 3136},   // 64ch 3x3 over 56x56
    {192, 1728, 784},  // 192ch 3x3 over 28x28
    {96, 64, 3136},    // 1x1 bottleneck
};

void check_parallel_plan() {
  for (const auto& s : kConvShapes) {
    const tensor::GemmStats plan = tensor::gemm_plan(s.m, s.k, s.n);
    check(plan.tiles > 1, "conv-shaped GEMM decomposes into >1 tile");
    check(plan.parallel, "conv-shaped GEMM passes the work-based grain");
  }
  // Tiny problems must stay serial — fork/join would swamp them.
  check(!tensor::gemm_plan(16, 16, 16).parallel, "tiny GEMM stays serial");
}

/// The widest GEMM level this CPU's feature flags allow — read from the CPU
/// here, not from the engine, so a kernel missing from the build or a broken
/// dispatch shows up as a mismatch.
tensor::GemmIsa host_best_isa() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx512f")) return tensor::GemmIsa::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return tensor::GemmIsa::kAvx2;
#endif
  return tensor::GemmIsa::kPortable;
}

void check_gemm_dispatch(bench::JsonReporter& report) {
  const tensor::GemmIsa isa = tensor::gemm_isa();
  const tensor::GemmIsa best = host_best_isa();
  const tensor::GemmKernelShape shape = tensor::gemm_kernel_shape(isa);
  std::printf("%-24s %s (%zux%zu), host best %s\n", "gemm_dispatch",
              tensor::gemm_isa_name(isa), shape.mr, shape.nr, tensor::gemm_isa_name(best));
  report.add(std::string("gemm_dispatch_") + tensor::gemm_isa_name(isa),
             {{"level", static_cast<double>(isa)},
              {"host_best_level", static_cast<double>(best)},
              {"mr", static_cast<double>(shape.mr)},
              {"nr", static_cast<double>(shape.nr)}});
  check(isa == best, "GEMM dispatches to the best level the host supports");
}

void check_gemm_determinism() {
  const ConvShape s = kConvShapes[0];
  tensor::Rng rng(42);
  std::vector<float> a(s.m * s.k), b(s.k * s.n);
  rng.fill_normal({a.data(), a.size()}, 0.0f, 1.0f);
  rng.fill_normal({b.data(), b.size()}, 0.0f, 1.0f);
  std::vector<float> ref(s.m * s.n), got(s.m * s.n);
  set_threads(1);
  tensor::gemm(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
  for (int t : {2, 4}) {
    set_threads(t);
    tensor::gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    check(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)) == 0,
          "GEMM bitwise identical across thread counts");
  }
}

void check_conv_determinism() {
  auto run = [](int threads, std::vector<float>& out, std::vector<float>& wgrad) {
    set_threads(threads);
    tensor::Rng rng(7);
    nn::Conv2d conv("c", nn::Conv2dSpec{16, 32, 3, 1, 1}, rng);
    nn::RawStore store;
    conv.set_store(&store);
    tensor::Tensor x(tensor::Shape::nchw(6, 16, 20, 20));
    rng.fill_normal(x.span(), 0.0f, 1.0f);
    tensor::Tensor y = conv.forward(x, true);
    tensor::Tensor gi = conv.backward(tensor::Tensor(y.shape(), 0.1f));
    out.assign(y.data(), y.data() + y.numel());
    out.insert(out.end(), gi.data(), gi.data() + gi.numel());
    wgrad.assign(conv.weight().grad.data(),
                 conv.weight().grad.data() + conv.weight().grad.numel());
  };
  std::vector<float> ref_out, ref_wg, out, wg;
  run(1, ref_out, ref_wg);
  for (int t : {2, 4}) {
    run(t, out, wg);
    check(std::memcmp(ref_out.data(), out.data(), out.size() * sizeof(float)) == 0,
          "conv forward/input-grad bitwise identical across thread counts");
    check(std::memcmp(ref_wg.data(), wg.data(), wg.size() * sizeof(float)) == 0,
          "conv weight-grad bitwise identical across thread counts");
  }
}

using TimingRows = std::vector<std::pair<std::string, double>>;

void time_reduced_shapes(bench::JsonReporter& report, TimingRows& timings,
                         int machine_threads) {
  set_threads(machine_threads);
  // The steal histogram accumulates across the timed section only, so the
  // emitted latencies describe a loaded pool — the regime pager prefetch
  // tasks compete in. A latency regression here shows up before it costs
  // backward-pass overlap. Discarding a drain (rather than reset + later
  // snapshot) makes the bracket atomic: steals recorded between the two
  // calls of a reset/snapshot pair can neither be dropped nor counted
  // twice across bench runs sharing the process.
  (void)tensor::sched::drain_steal_stats();
  for (const auto& s : kConvShapes) {
    tensor::Rng rng(9);
    std::vector<float> a(s.m * s.k), b(s.k * s.n), c(s.m * s.n);
    rng.fill_normal({a.data(), a.size()}, 0.0f, 1.0f);
    rng.fill_normal({b.data(), b.size()}, 0.0f, 1.0f);
    const double sec = bench::time_median(
        [&] { tensor::gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n); });
    const double gflops = 2.0 * s.m * s.k * s.n / sec / 1e9;
    char name[64];
    std::snprintf(name, sizeof(name), "gemm_m%zu_k%zu_n%zu", s.m, s.k, s.n);
    std::printf("%-24s %8.3f ms  %7.2f GFLOP/s\n", name, sec * 1e3, gflops);
    report.add(name, {{"seconds", sec}, {"gflops", gflops}});
    timings.emplace_back(name, sec);

    // Throughput of every level the host runs, on the same shape. Rows carry
    // no "seconds" key, so the wall-clock gate ignores them.
    for (int l = 0; l < tensor::kNumGemmIsas; ++l) {
      const auto isa = static_cast<tensor::GemmIsa>(l);
      if (!tensor::gemm_isa_supported(isa)) continue;
      const tensor::ScopedGemmIsa pin(isa);
      tensor::gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);  // warm
      const auto t0 = std::chrono::steady_clock::now();
      double elapsed = 0.0;
      int reps = 0;
      do {
        tensor::gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
        ++reps;
        elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      } while (elapsed < 0.1);
      const double level_gflops = 2.0 * s.m * s.k * s.n * reps / elapsed / 1e9;
      std::snprintf(name, sizeof(name), "gemm_%s_m%zu_k%zu_n%zu", tensor::gemm_isa_name(isa),
                    s.m, s.k, s.n);
      std::printf("  %-30s %7.2f GFLOP/s\n", name, level_gflops);
      report.add(name, {{"gflops", level_gflops}});
    }
  }

  // Small-batch conv forward+backward: the shape class the unified
  // batch x tile pool exists for (batch 4 alone cannot fill a big machine;
  // tile stealing has to).
  tensor::Rng rng(11);
  nn::Conv2d conv("c", nn::Conv2dSpec{32, 64, 3, 1, 1}, rng);
  nn::RawStore store;
  conv.set_store(&store);
  tensor::Tensor x(tensor::Shape::nchw(4, 32, 28, 28));
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  const double sec = bench::time_median([&] {
    tensor::Tensor y = conv.forward(x, true);
    conv.backward(tensor::Tensor(y.shape(), 0.1f));
  });
  std::printf("%-24s %8.3f ms\n", "conv_fwd_bwd", sec * 1e3);
  report.add("conv_fwd_bwd", {{"seconds", sec}});
  timings.emplace_back("conv_fwd_bwd", sec);

  // Scheduler steal-latency histogram over the timed shapes (idle-scan to
  // successful steal, sleeps excluded — see sched.hpp). Single-core
  // machines legitimately record zero.
  const auto ss = tensor::sched::drain_steal_stats();
  std::printf("%-24s %8zu steals  p50 %6.0f ns  p90 %6.0f ns  p99 %6.0f ns\n",
              "steal_latency", static_cast<std::size_t>(ss.recorded),
              ss.percentile_ns(0.5), ss.percentile_ns(0.9), ss.percentile_ns(0.99));
  report.add("steal_latency", {{"steals", static_cast<double>(ss.recorded)},
                               {"p50_ns", ss.percentile_ns(0.5)},
                               {"p90_ns", ss.percentile_ns(0.9)},
                               {"p99_ns", ss.percentile_ns(0.99)}});
}

/// A RawStore that remembers the shape of each layer's stashed input.
class ShapeStore : public nn::RawStore {
 public:
  nn::StashHandle stash(const std::string& layer, tensor::Tensor&& act) override {
    shapes[layer] = act.shape();
    return RawStore::stash(layer, std::move(act));
  }
  std::map<std::string, tensor::Shape> shapes;
};

/// Forward plus backward of each distinct conv shape of the benchmark's
/// ResNet-50 (16 px, width 0.25, batch 16) at pool 1 and at the machine's
/// pool, and the speedup between them, so a stage whose convs stop
/// parallelising shows up layer by layer. The rows carry no "seconds" key,
/// so the wall-clock gate ignores them.
void time_resnet50_convs(bench::JsonReporter& report, int machine_threads) {
  models::ModelConfig mcfg;
  mcfg.input_hw = 16;
  mcfg.num_classes = 4;
  mcfg.width_multiplier = 0.25;
  mcfg.seed = 1;
  auto net = models::make_resnet50(mcfg);
  ShapeStore store;
  net->set_store(&store);
  tensor::Rng rng(13);
  tensor::Tensor x(tensor::Shape::nchw(16, 3, 16, 16));
  rng.fill_normal(x.span(), 0.0f, 1.0f);
  net->forward(x, true);

  // Distinct conv shapes in network order, with how many layers share each.
  struct ConvCase {
    std::string name;
    nn::Conv2dSpec spec;
    tensor::Shape in;
    int layers = 0;
  };
  std::vector<ConvCase> cases;
  net->visit([&](nn::Layer& l) {
    auto* conv = dynamic_cast<nn::Conv2d*>(&l);
    if (conv == nullptr) return;
    const nn::Conv2dSpec& s = conv->spec();
    const tensor::Shape& in = store.shapes.at(conv->name());
    char name[96];
    std::snprintf(name, sizeof(name), "conv_c%zu_%zux%zu_k%zux%zu_s%zu_o%zu", in.c(), in.h(),
                  in.w(), s.kh(), s.kw(), s.stride, s.out_channels);
    for (ConvCase& c : cases) {
      if (c.name == name) {
        ++c.layers;
        return;
      }
    }
    cases.push_back({name, s, in, 1});
  });

  std::printf("%-24s %10s %10s %8s %7s\n", "resnet50_conv", "pool1 ms", "poolN ms", "speedup",
              "layers");
  for (const ConvCase& c : cases) {
    nn::Conv2d conv("c", c.spec, rng);
    nn::RawStore raw;
    conv.set_store(&raw);
    tensor::Tensor in(c.in);
    rng.fill_normal(in.span(), 0.0f, 1.0f);
    const tensor::Tensor gy(conv.output_shape(c.in), 0.1f);
    auto fwd_bwd = [&] {
      conv.forward(in, true);
      conv.backward(gy);
    };
    set_threads(1);
    const double t1 = bench::time_median(fwd_bwd, 5);
    set_threads(machine_threads);
    const double tn = bench::time_median(fwd_bwd, 5);
    std::printf("  %-30s %10.3f %10.3f %7.2fx %7d\n", c.name.c_str(), t1 * 1e3, tn * 1e3,
                t1 / tn, c.layers);
    report.add(c.name, {{"pool1_ms", t1 * 1e3},
                        {"pooln_ms", tn * 1e3},
                        {"pool_n", static_cast<double>(machine_threads)},
                        {"speedup", t1 / tn},
                        {"layers", static_cast<double>(c.layers)}});
  }
}

/// Per-phase iteration-to-iteration variance on a small framework training
/// run, from obs::MetricsRegistry snapshots around every iteration. The
/// coefficient of variation per phase is the runner-noise characterization
/// the EBCT_PERF_ENFORCE decision (ROADMAP, carried from PR 3) is based
/// on: wall-clock gating is only as trustworthy as the quietest phase.
/// Rows use metric keys other than "seconds", so the wall-clock baseline
/// parser ignores them by construction.
void measure_phase_variance(bench::JsonReporter& report, int machine_threads) {
  set_threads(machine_threads);
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
  cfg.framework.active_factor_w = 50;
  core::TrainingSession session(*net, loader, cfg);
  session.run(2);  // warm-up

  // Per-iteration samples are differences of non-destructive snapshots, so
  // the registry keeps its totals for the session_metrics row below.
  constexpr int kSamples = 8;
  auto& reg = obs::MetricsRegistry::instance();
  std::vector<obs::PhaseSnapshot> samples;
  obs::PhaseSnapshot prev = reg.snapshot();
  for (int i = 0; i < kSamples; ++i) {
    session.run(1);
    const obs::PhaseSnapshot now = reg.snapshot();
    obs::PhaseSnapshot d{};
    for (int p = 0; p < obs::kNumPhases; ++p) {
      d[p].ns = now[p].ns - prev[p].ns;
      d[p].count = now[p].count - prev[p].count;
    }
    samples.push_back(d);
    prev = now;
  }

  std::printf("%-24s %10s %10s %6s\n", "phase_variance", "mean ms", "stddev ms",
              "cv");
  for (int p = 0; p < obs::kNumPhases; ++p) {
    double mean = 0.0;
    for (const auto& s : samples) mean += static_cast<double>(s[p].ns);
    mean /= kSamples;
    if (mean <= 0.0) continue;  // phase never ran (e.g. no spill traffic)
    double var = 0.0;
    for (const auto& s : samples) {
      const double d = static_cast<double>(s[p].ns) - mean;
      var += d * d;
    }
    const double stddev = std::sqrt(var / kSamples);
    const double cv = stddev / mean;
    const char* name = obs::phase_name(static_cast<obs::Phase>(p));
    std::printf("  %-22s %10.3f %10.3f %6.3f\n", name, mean / 1e6, stddev / 1e6,
                cv);
    report.add(std::string("phase_variance_") + name,
               {{"mean_ns", mean}, {"stddev_ns", stddev}, {"cv", cv}});
  }

  // The full consolidated snapshot of this session, one machine-readable row.
  report.add("session_metrics", session.metrics());
}

/// Per-call cost of each SZ stage on one 16 Ki-float activation window, the
/// serve/stash unit where a call's fixed cost shows most, and of the
/// lossless codec on the same window. Informational only: the rows have no
/// "seconds" key, so the wall-clock gate ignores them.
void time_sz_window(bench::JsonReporter& report) {
  constexpr std::size_t kWindow = 16384;
  std::vector<float> data(kWindow);
  tensor::Rng rng(12);
  rng.fill_relu_like({data.data(), kWindow}, 0.5, 1.0f);
  const sz::Config cfg;  // default: eb 1e-3, radius 32768, one block
  const std::size_t alphabet = 2 * std::size_t{cfg.radius};
  auto per_call_us = [](const std::function<void()>& fn) {
    constexpr int kReps = 50;
    return bench::time_median([&] { for (int r = 0; r < kReps; ++r) fn(); }, 5) / kReps * 1e6;
  };

  std::vector<std::uint32_t> symbols;
  std::vector<float> outliers;
  const double quantize_us = per_call_us([&] {
    outliers.clear();
    sz::detail::quantize_block_1d({data.data(), kWindow}, cfg.error_bound, cfg.radius, symbols,
                                  outliers);
  });
  sz::detail::SymbolHistogram hist;
  std::vector<std::uint32_t> coded;
  std::vector<std::uint64_t> counts;
  const double histogram_us = per_call_us([&] {
    coded.clear();
    counts.clear();
    hist.add(symbols);
    hist.drain(coded, counts);
  });
  sz::HuffmanCodec codec;
  std::vector<std::uint8_t> table;
  const double build_us = per_call_us([&] {
    codec.build_sparse(coded, counts, alphabet);
    table = codec.serialize_table();
  });
  std::vector<std::uint8_t> body;
  const double encode_us = per_call_us([&] { body = codec.encode(symbols); });
  sz::HuffmanCodec parsed;
  const double parse_us = per_call_us([&] { parsed.deserialize_table(table, alphabet); });
  std::vector<std::uint32_t> decoded;
  const double huffman_decode_us = per_call_us([&] { decoded = parsed.decode(body, kWindow); });
  std::vector<float> out(kWindow);
  const std::span<const std::uint8_t> outlier_bytes{
      reinterpret_cast<const std::uint8_t*>(outliers.data()), outliers.size() * sizeof(float)};
  const double reconstruct_us = per_call_us([&] {
    sz::detail::reconstruct_block_1d(decoded, outlier_bytes, cfg.error_bound, cfg.radius,
                                     cfg.zero_mode == sz::ZeroMode::kRezero, out);
  });
  const sz::Compressor comp(cfg);
  sz::CompressedBuffer buf;
  const double compress_us = per_call_us([&] { buf = comp.compress({data.data(), kWindow}); });
  const double decompress_us =
      per_call_us([&] { comp.decompress(buf, {out.data(), out.size()}); });

  std::printf("%-24s %zu coded symbols; us/call: quantize %.1f  histogram %.1f  "
              "table build %.1f  encode %.1f  table parse %.1f  huffman decode %.1f  "
              "reconstruct %.1f  compress %.1f  decompress %.1f\n",
              "sz_window", coded.size(), quantize_us, histogram_us, build_us, encode_us,
              parse_us, huffman_decode_us, reconstruct_us, compress_us, decompress_us);
  report.add("sz_window", {{"elements", static_cast<double>(kWindow)},
                           {"coded_symbols", static_cast<double>(coded.size())},
                           {"quantize_us", quantize_us},
                           {"histogram_us", histogram_us},
                           {"table_build_us", build_us},
                           {"encode_us", encode_us},
                           {"table_parse_us", parse_us},
                           {"huffman_decode_us", huffman_decode_us},
                           {"reconstruct_us", reconstruct_us},
                           {"compress_us", compress_us},
                           {"decompress_us", decompress_us}});

  const auto lossless = core::CodecRegistry::instance().create("lossless");
  tensor::Tensor act(tensor::Shape{kWindow});
  std::copy(data.begin(), data.end(), act.data());
  nn::EncodedActivation enc;
  const double lossless_encode_us = per_call_us([&] { enc = lossless->encode("window", act); });
  const double lossless_decode_us = per_call_us([&] { act = lossless->decode(enc); });
  std::printf("%-24s %zu bytes; us/call: encode %.1f  decode %.1f\n", "lossless_window",
              enc.bytes.size(), lossless_encode_us, lossless_decode_us);
  report.add("lossless_window", {{"elements", static_cast<double>(kWindow)},
                                 {"encoded_bytes", static_cast<double>(enc.bytes.size())},
                                 {"encode_us", lossless_encode_us},
                                 {"decode_us", lossless_decode_us}});
}

/// Rows of a previous BENCH_perf_smoke.json: name -> seconds. The format is
/// our own JsonReporter's (one row object per line), so a line scan is a
/// complete parser for it.
std::map<std::string, double> read_baseline(const char* path) {
  std::map<std::string, double> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto npos = line.find("\"name\": \"");
    if (npos == std::string::npos) continue;
    const auto nend = line.find('"', npos + 9);
    if (nend == std::string::npos) continue;
    const auto spos = line.find("\"seconds\": ");
    if (spos == std::string::npos) continue;
    rows[line.substr(npos + 9, nend - npos - 9)] =
        std::strtod(line.c_str() + spos + 11, nullptr);
  }
  return rows;
}

/// Opt-in wall-clock regression gate for dedicated (quiet) perf runners;
/// see the file header. Rows present in the baseline but not in this run
/// (or vice versa) are ignored so shape-set changes don't hard-fail.
void check_wallclock_gate(const TimingRows& timings) {
  const char* base_path = std::getenv("EBCT_PERF_BASELINE");
  if (base_path == nullptr || base_path[0] == '\0') return;
  double max_slowdown = 1.25;
  // Unset or empty keeps the default (CI passes an unset repo variable as "").
  const char* s = std::getenv("EBCT_PERF_MAX_SLOWDOWN");
  if (s != nullptr && s[0] != '\0') {
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    const bool ok = end != s && *end == '\0' && std::isfinite(v) && v > 0.0;
    check(ok, "EBCT_PERF_MAX_SLOWDOWN is a positive number");
    if (!ok) return;
    max_slowdown = v;
  }
  const auto baseline = read_baseline(base_path);
  check(!baseline.empty(), "EBCT_PERF_BASELINE readable and non-empty");
  for (const auto& [name, sec] : timings) {
    const auto it = baseline.find(name);
    if (it == baseline.end() || it->second <= 0.0) continue;
    const double ratio = sec / it->second;
    std::printf("gate %-24s %6.3fx of baseline (limit %.2fx)\n", name.c_str(), ratio,
                max_slowdown);
    if (ratio > max_slowdown) {
      std::fprintf(stderr, "perf_smoke FAIL: %s regressed %.3fx over baseline (limit %.2fx)\n",
                   name.c_str(), ratio, max_slowdown);
      ++g_failures;
    }
  }
}

}  // namespace

int main() {
  // Captured before the determinism checks resize the scheduler pool.
  const int machine_threads = tensor::sched::num_threads();
  bench::JsonReporter report("perf_smoke");
  TimingRows timings;
  check_parallel_plan();
  check_gemm_dispatch(report);
  check_gemm_determinism();
  check_conv_determinism();
  time_reduced_shapes(report, timings, machine_threads);
  time_resnet50_convs(report, machine_threads);
  measure_phase_variance(report, machine_threads);
  time_sz_window(report);
  check_wallclock_gate(timings);
  if (g_failures == 0) std::printf("perf_smoke: all structural checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
