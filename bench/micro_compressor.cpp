// google-benchmark microbenchmarks of the compression stack: SZ compress /
// decompress across error bounds and sparsities, single-window SZ calls, the
// lossless and JPEG-ACT comparators, and the Huffman coder and table build.
// Throughput (bytes/s) is the figure of merit — it bounds the framework's
// per-iteration overhead (§5.4).

#include <benchmark/benchmark.h>

#include <vector>

#include "baselines/jpegact.hpp"
#include "baselines/lossless.hpp"
#include "sz/compressor.hpp"
#include "sz/huffman.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace ebct;

std::vector<float> activation_data(std::size_t n, double sparsity) {
  std::vector<float> v(n);
  tensor::Rng rng(4000);
  rng.fill_relu_like({v.data(), n}, sparsity, 1.0f);
  return v;
}

void BM_SzCompress(benchmark::State& state) {
  const auto data = activation_data(1 << 20, 0.5);
  sz::Config cfg;
  cfg.error_bound = std::pow(10.0, -static_cast<double>(state.range(0)));
  sz::Compressor comp(cfg);
  double ratio = 0.0;
  for (auto _ : state) {
    auto buf = comp.compress({data.data(), data.size()});
    ratio = buf.compression_ratio();
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * sizeof(float)));
  state.counters["ratio"] = ratio;
}
BENCHMARK(BM_SzCompress)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SzDecompress(benchmark::State& state) {
  const auto data = activation_data(1 << 20, 0.5);
  sz::Config cfg;
  cfg.error_bound = 1e-3;
  sz::Compressor comp(cfg);
  const auto buf = comp.compress({data.data(), data.size()});
  std::vector<float> out(data.size());
  for (auto _ : state) {
    comp.decompress(buf, {out.data(), out.size()});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size() * sizeof(float)));
}
BENCHMARK(BM_SzDecompress)->Unit(benchmark::kMillisecond);

void BM_SzCompressSparsity(benchmark::State& state) {
  const double sparsity = static_cast<double>(state.range(0)) / 100.0;
  const auto data = activation_data(1 << 20, sparsity);
  sz::Config cfg;
  cfg.error_bound = 1e-3;
  sz::Compressor comp(cfg);
  double ratio = 0.0;
  for (auto _ : state) {
    auto buf = comp.compress({data.data(), data.size()});
    ratio = buf.compression_ratio();
    benchmark::DoNotOptimize(buf);
  }
  state.counters["ratio"] = ratio;
}
BENCHMARK(BM_SzCompressSparsity)->Arg(0)->Arg(50)->Arg(90)->Unit(benchmark::kMillisecond);

void BM_LosslessEncode(benchmark::State& state) {
  tensor::Tensor t(tensor::Shape::nchw(4, 16, 64, 64));
  tensor::Rng rng(4100);
  rng.fill_relu_like(t.span(), 0.5, 1.0f);
  baselines::LosslessCodec codec;
  double ratio = 0.0;
  for (auto _ : state) {
    auto enc = codec.encode("bench", t);
    ratio = static_cast<double>(t.bytes()) / enc.bytes.size();
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.bytes()));
  state.counters["ratio"] = ratio;
}
BENCHMARK(BM_LosslessEncode)->Unit(benchmark::kMillisecond);

void BM_JpegActEncode(benchmark::State& state) {
  tensor::Tensor t(tensor::Shape::nchw(4, 16, 64, 64));
  tensor::Rng rng(4200);
  rng.fill_relu_like(t.span(), 0.5, 1.0f);
  baselines::JpegActCodec codec(50);
  double ratio = 0.0;
  for (auto _ : state) {
    auto enc = codec.encode("bench", t);
    ratio = static_cast<double>(t.bytes()) / enc.bytes.size();
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.bytes()));
  state.counters["ratio"] = ratio;
}
BENCHMARK(BM_JpegActEncode)->Unit(benchmark::kMillisecond);

void BM_HuffmanEncode(benchmark::State& state) {
  tensor::Rng rng(4300);
  std::vector<std::uint32_t> symbols(1 << 20);
  // Quantization-code-like distribution: geometric around the centre.
  for (auto& s : symbols) {
    const double u = rng.uniform();
    s = 32768u + static_cast<std::uint32_t>(std::lround(std::log(1.0 - u) * -3.0)) %
                     64u;
  }
  std::vector<std::uint64_t> freqs(65536, 0);
  for (auto s : symbols) ++freqs[s];
  sz::HuffmanCodec codec;
  codec.build(freqs);
  for (auto _ : state) {
    auto enc = codec.encode(symbols);
    benchmark::DoNotOptimize(enc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(symbols.size()));
}
BENCHMARK(BM_HuffmanEncode)->Unit(benchmark::kMillisecond);

void BM_HuffmanBuild(benchmark::State& state) {
  // The SZ alphabet (radius 32768) coded sparsely, as compress() builds it:
  // the quantization codes of a 16 Ki-float activation window, a few
  // thousand distinct symbols (reported as coded_symbols).
  const auto data = activation_data(16384, 0.0);
  std::vector<std::uint32_t> symbols;
  std::vector<float> outliers;
  sz::detail::quantize_block_1d({data.data(), data.size()}, 1e-3, 32768, symbols, outliers);
  sz::detail::SymbolHistogram hist;
  std::vector<std::uint32_t> coded;
  std::vector<std::uint64_t> counts;
  hist.add(symbols);
  hist.drain(coded, counts);
  sz::HuffmanCodec codec;
  for (auto _ : state) {
    codec.build_sparse(coded, counts, 65536);
    auto table = codec.serialize_table();
    benchmark::DoNotOptimize(table);
  }
  state.counters["coded_symbols"] = static_cast<double>(coded.size());
}
BENCHMARK(BM_HuffmanBuild)->Unit(benchmark::kMicrosecond);

void BM_SzWindow(benchmark::State& state) {
  // One serve/stash-sized window per call: the per-call fixed cost is a
  // large share of it. range(0) = floats, range(1) = 0 encode / 1 decode.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = activation_data(n, 0.5);
  sz::Compressor comp;
  const auto buf = comp.compress({data.data(), data.size()});
  std::vector<float> out(n);
  for (auto _ : state) {
    if (state.range(1) == 0) {
      auto enc = comp.compress({data.data(), data.size()});
      benchmark::DoNotOptimize(enc);
    } else {
      comp.decompress(buf, {out.data(), out.size()});
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)));
}
BENCHMARK(BM_SzWindow)
    ->ArgsProduct({{4096, 16384}, {0, 1}})
    ->ArgNames({"floats", "decode"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
