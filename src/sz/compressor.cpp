#include "sz/compressor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "sz/huffman.hpp"
#include "tensor/bytes.hpp"
#include "tensor/parallel.hpp"
#include "tensor/sched.hpp"

namespace ebct::sz {

namespace {

constexpr std::uint32_t kMagic = 0x455A4331;  // "EZC1"
/// The predictor id written in the header: 1 = dual quantization (1-D
/// Lorenzo over integer grid values). Id 0 was the float-chain predictor;
/// no reader for it remains.
constexpr std::uint8_t kPredictor = 1;
/// Pass-1 marker for a value that escapes (never a grid value: those have
/// |q| < 2^31).
constexpr std::int32_t kEscape = std::numeric_limits<std::int32_t>::min();

#pragma pack(push, 1)
struct Header {
  std::uint32_t magic = kMagic;
  std::uint64_t num_elements = 0;
  double abs_eb = 0.0;
  std::uint8_t predictor = kPredictor;
  std::uint8_t zero_mode = 0;
  std::uint32_t radius = 0;
  std::uint32_t block_size = 0;
  std::uint64_t num_quantized = 0;  // always num_elements
  std::uint64_t table_bytes = 0;
  std::uint64_t rle_bytes = 0;      // always 0: no side stream follows the table
  std::uint64_t num_blocks = 0;
};
#pragma pack(pop)

struct BlockResult {
  std::vector<std::uint32_t> symbols;
  std::vector<float> outliers;
  std::vector<std::uint8_t> encoded;
};

}  // namespace

namespace detail {

void quantize_block_1d(std::span<const float> block, double eb, std::uint32_t radius,
                       std::vector<std::uint32_t>& symbols, std::vector<float>& outliers) {
  const std::size_t n = block.size();
  symbols.resize(n);
  const double step = 2.0 * eb;
  const double inv_step = 1.0 / step;
  // Pass 1, data-parallel: pre-quantize onto the step grid. Adding and
  // subtracting 1.5 * 2^52 rounds half to even for |v| < 2^51; any larger
  // v (and a NaN or infinite one) fails the |q| < 2^31 test, whatever the
  // addition returns. The grid value is kept only if its reconstruction
  // float(q * step) meets the bound; otherwise the slot holds kEscape.
  constexpr double kRound = 6755399441055744.0;  // 1.5 * 2^52
  constexpr double kQMax = 2147483648.0;         // 2^31
  auto* q = reinterpret_cast<std::int32_t*>(symbols.data());
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(block[i]);
    const double qd = (x * inv_step + kRound) - kRound;
    const double recon = static_cast<double>(static_cast<float>(qd * step));
    // `&`, not `&&`: both tests always run, so the loop has no branch.
    const bool ok = (std::fabs(qd) < kQMax) & (std::fabs(recon - x) <= eb);
    const double in_range = ok ? qd : 0.0;  // the int cast is defined for it
    q[i] = ok ? static_cast<std::int32_t>(in_range) : kEscape;
  }
  // Pass 2, integer only: Lorenzo deltas of the grid values. A delta of
  // radius or more escapes too; an escaped value leaves `prev` alone, so
  // the decoder's prefix sum skips it with a delta of 0.
  std::int64_t prev = 0;
  const auto r = static_cast<std::int64_t>(radius);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t qi = q[i];
    const std::int64_t d = static_cast<std::int64_t>(qi) - prev;
    if (qi == kEscape || d <= -r || d >= r) {
      symbols[i] = 0;
      outliers.push_back(block[i]);
    } else {
      symbols[i] = static_cast<std::uint32_t>(d + r);
      prev = qi;
    }
  }
}

void reconstruct_block_1d(std::span<const std::uint32_t> symbols,
                          std::span<const std::uint8_t> outliers, double eb,
                          std::uint32_t radius, bool rezero, std::span<float> out) {
  // Grid values are the prefix sum of the deltas (an escape adds 0),
  // reconstructed with one multiply. Every symbol a table decodes is below
  // 2 * radius, so each delta is at most 2^15 in magnitude and the int64
  // sum cannot overflow short of 2^48 symbols, a forged stream included.
  const double step = 2.0 * eb;
  const auto r = static_cast<std::int64_t>(radius);
  std::int64_t q = 0;
  std::size_t escapes = 0;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const std::uint32_t s = symbols[i];
    q += s != 0 ? static_cast<std::int64_t>(s) - r : 0;
    escapes += s == 0;
    out[i] = static_cast<float>(static_cast<double>(q) * step);
  }
  if (escapes * sizeof(float) != outliers.size())
    throw std::runtime_error("Compressor::decompress: escape count does not match the index");
  if (escapes == 0) return;
  // Escapes are stored verbatim. Under grid reconstruction every q != 0
  // lands beyond eb and q == 0 is exactly 0, so the paper's re-zero filter
  // (|x| < eb -> 0, §4.4) can only change an escaped value.
  const std::uint8_t* src = outliers.data();
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    if (symbols[i] != 0) continue;
    float v;
    std::memcpy(&v, src, sizeof(float));
    src += sizeof(float);
    out[i] = rezero && std::fabs(static_cast<double>(v)) < eb ? 0.0f : v;
  }
}

void SymbolHistogram::add(std::span<const std::uint32_t> symbols) {
  for (const std::uint32_t s : symbols) {
    ++counts_[s];
    seen_[s >> 6] |= std::uint64_t{1} << (s & 63);
  }
}

void SymbolHistogram::add(std::span<const std::uint32_t> symbols,
                          std::span<const std::uint64_t> counts) {
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    counts_[symbols[i]] += counts[i];
    seen_[symbols[i] >> 6] |= std::uint64_t{1} << (symbols[i] & 63);
  }
}

void SymbolHistogram::drain(std::vector<std::uint32_t>& symbols,
                            std::vector<std::uint64_t>& counts) {
  for (std::size_t w = 0; w < seen_.size(); ++w) {
    for (std::uint64_t bits = seen_[w]; bits != 0; bits &= bits - 1) {
      const auto s = static_cast<std::uint32_t>(64 * w + std::countr_zero(bits));
      symbols.push_back(s);
      counts.push_back(counts_[s]);
      counts_[s] = 0;
    }
    seen_[w] = 0;
  }
}

}  // namespace detail

namespace {

/// Histograms shared by every thread: a chunk borrows one and returns it
/// drained. Reuse keeps the alphabet-sized set-up out of the per-call cost,
/// also on short-lived threads (serve's per-connection handlers), which a
/// thread_local table would charge on every request. The pool holds at
/// most one histogram per chunk that ever ran concurrently.
class HistogramPool {
 public:
  static HistogramPool& instance() {
    static HistogramPool* pool = new HistogramPool;  // leaked: process lifetime
    return *pool;
  }

  /// Run `fill` on a borrowed histogram, then drain it into the output.
  template <typename Fill>
  void count(Fill&& fill, std::vector<std::uint32_t>& symbols,
             std::vector<std::uint64_t>& counts) {
    std::unique_ptr<detail::SymbolHistogram> h;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        h = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (!h) h = std::make_unique<detail::SymbolHistogram>();
    fill(*h);
    h->drain(symbols, counts);
    const std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(h));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<detail::SymbolHistogram>> free_;
};

using tensor::append_bytes;

template <typename T>
T read_pod(const std::uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

/// A usable absolute bound: positive, with a finite quantization step
/// (2 * eb). Rejects NaN, inf and values whose step overflows.
bool valid_bound(double eb) { return eb > 0.0 && std::isfinite(2.0 * eb); }

}  // namespace

Compressor::Compressor(Config cfg) : cfg_(cfg) {
  if (!valid_bound(cfg_.error_bound))
    throw std::invalid_argument("Compressor: error_bound must be finite and > 0");
  if (cfg_.radius < 2 || cfg_.radius > kMaxRadius)
    throw std::invalid_argument("Compressor: radius must be in [2, kMaxRadius]");
  if (cfg_.block_size == 0) throw std::invalid_argument("Compressor: block_size must be > 0");
}

CompressedBuffer Compressor::compress(std::span<const float> data) const {
  // Resolve the absolute bound.
  double eb = cfg_.error_bound;
  if (cfg_.bound_mode == BoundMode::kRelative) {
    // Range over finite values only: non-finite ones escape verbatim and
    // must not widen the bound of the rest.
    float lo = 0.0f, hi = 0.0f;
    bool seen = false;
    for (float v : data) {
      if (!std::isfinite(v)) continue;
      lo = seen ? std::min(lo, v) : v;
      hi = seen ? std::max(hi, v) : v;
      seen = true;
    }
    const double range = static_cast<double>(hi) - static_cast<double>(lo);
    eb = range > 0.0 ? cfg_.error_bound * range : cfg_.error_bound;
  }
  if (!valid_bound(eb))
    throw std::invalid_argument("Compressor: resolved error bound is not finite and > 0");

  const std::size_t n = data.size();
  const std::size_t bs = cfg_.block_size;
  const std::size_t num_blocks = (n + bs - 1) / bs;

  // Stage 1 — block-parallel Lorenzo + quantization. Every block predicts
  // from a fresh context (prev_recon = 0), so blocks are fully independent;
  // each worker writes only its own BlockResult. The per-block tasks go to
  // the shared work-stealing pool, so a compress launched from inside a
  // training step (activation stash) interleaves with layer compute instead
  // of waiting for a free OpenMP team, and skewed blocks (outlier-heavy
  // ones encode slower) are absorbed by stealing.
  std::vector<BlockResult> blocks(num_blocks);
  tensor::parallel_for_tasks(num_blocks, [&](std::size_t b) {
    const std::size_t begin = b * bs;
    const std::size_t end = std::min(n, begin + bs);
    detail::quantize_block_1d(data.subspan(begin, end - begin), eb, cfg_.radius,
                              blocks[b].symbols, blocks[b].outliers);
  });

  // Stage 2 — global Huffman table. Each chunk of blocks counts into a
  // reused histogram and drains a sparse (symbol, count) list; the lists
  // merge in chunk order. Integer counts make the merged histogram (and
  // hence the table and the output bytes) independent of the thread count,
  // and no step touches the whole alphabet.
  const std::size_t workers = static_cast<std::size_t>(tensor::sched::num_threads());
  const std::size_t nchunks = std::min(num_blocks, workers);
  struct SparseCounts {
    std::vector<std::uint32_t> symbols;
    std::vector<std::uint64_t> counts;
  };
  auto& histograms = HistogramPool::instance();
  std::vector<SparseCounts> chunk_counts(nchunks);
  tensor::parallel_for_tasks(nchunks, [&](std::size_t c) {
    const std::size_t lo = c * num_blocks / nchunks;
    const std::size_t hi = (c + 1) * num_blocks / nchunks;
    histograms.count(
        [&](detail::SymbolHistogram& h) {
          for (std::size_t b = lo; b < hi; ++b) h.add(blocks[b].symbols);
        },
        chunk_counts[c].symbols, chunk_counts[c].counts);
  });
  SparseCounts merged;
  if (nchunks == 1) {
    merged = std::move(chunk_counts[0]);
  } else {
    histograms.count(
        [&](detail::SymbolHistogram& h) {
          for (const auto& cc : chunk_counts) h.add(cc.symbols, cc.counts);
        },
        merged.symbols, merged.counts);
  }
  HuffmanCodec codec;
  codec.build_sparse(merged.symbols, merged.counts, 2 * std::size_t{cfg_.radius});
  const std::vector<std::uint8_t> table = codec.serialize_table();

  // Stage 3 — block-parallel entropy coding against the shared table.
  tensor::parallel_for_tasks(num_blocks, [&](std::size_t b) {
    blocks[b].encoded = codec.encode(blocks[b].symbols);
  });

  Header h;
  h.num_elements = data.size();
  h.abs_eb = eb;
  h.zero_mode = static_cast<std::uint8_t>(cfg_.zero_mode);
  h.radius = cfg_.radius;
  h.block_size = cfg_.block_size;
  h.num_quantized = n;
  h.table_bytes = table.size();
  h.num_blocks = num_blocks;

  CompressedBuffer out;
  out.num_elements = data.size();
  out.abs_error_bound = eb;
  append_bytes(out.bytes, &h, sizeof(h));
  append_bytes(out.bytes, table.data(), table.size());
  // Block-offset index: one (symbols, encoded bytes, outliers) triplet per
  // block. Prefix sums over it give each block's payload offsets, which is
  // what lets decompression fan the blocks back out across threads.
  for (const auto& blk : blocks) {
    const std::uint64_t counts[3] = {blk.symbols.size(), blk.encoded.size(),
                                     blk.outliers.size()};
    append_bytes(out.bytes, counts, sizeof(counts));
  }
  for (const auto& blk : blocks) append_bytes(out.bytes, blk.encoded.data(), blk.encoded.size());
  for (const auto& blk : blocks)
    append_bytes(out.bytes, blk.outliers.data(), blk.outliers.size() * sizeof(float));
  return out;
}

void Compressor::decompress(std::span<const std::uint8_t> bytes, std::span<float> out) const {
  if (bytes.size() < sizeof(Header))
    throw std::runtime_error("Compressor::decompress: truncated buffer");
  const std::uint8_t* p = bytes.data();
  const Header h = read_pod<Header>(p);
  if (h.magic != kMagic) throw std::runtime_error("Compressor::decompress: bad magic");
  // Each untrusted length is checked against the bytes that remain, never
  // summed up front: summing unchecked uint64 fields could wrap and slip a
  // crafted header past the guard.
  std::size_t remaining = bytes.size() - sizeof(Header);
  if (h.table_bytes > remaining)
    throw std::runtime_error("Compressor::decompress: corrupt header (table)");
  remaining -= static_cast<std::size_t>(h.table_bytes);
  if (h.rle_bytes != 0) throw std::runtime_error("Compressor::decompress: corrupt header (rle)");
  constexpr std::size_t kIndexEntry = 3 * sizeof(std::uint64_t);
  if (h.num_blocks > remaining / kIndexEntry)
    throw std::runtime_error("Compressor::decompress: corrupt header (blocks)");
  remaining -= static_cast<std::size_t>(h.num_blocks) * kIndexEntry;
  if (h.predictor != kPredictor || h.zero_mode > static_cast<std::uint8_t>(ZeroMode::kRezero))
    throw std::runtime_error("Compressor::decompress: corrupt header (mode)");
  // The block index is checked against num_quantized, and blocks decode
  // straight into `out`: forging it must not move the write bounds.
  if (h.num_quantized != h.num_elements)
    throw std::runtime_error("Compressor::decompress: corrupt header (count)");
  if (h.radius < 2 || h.radius > kMaxRadius)
    throw std::runtime_error("Compressor::decompress: corrupt header (radius)");
  if (!valid_bound(h.abs_eb))
    throw std::runtime_error("Compressor::decompress: corrupt header (eb)");
  if (out.size() != h.num_elements)
    throw std::invalid_argument("Compressor::decompress: output size mismatch");

  HuffmanCodec codec;
  codec.deserialize_table({p, static_cast<std::size_t>(h.table_bytes)},
                          2 * std::size_t{h.radius});
  p += h.table_bytes;

  struct BlockMeta {
    std::uint64_t symbol_count, encoded_bytes, outlier_count;
    std::size_t encoded_off, outlier_off, out_off;
  };
  // Walk the block index with the same no-sum discipline: every offset is
  // validated against what is left before it is committed, so a corrupt
  // index throws instead of steering reads/writes out of bounds.
  std::vector<BlockMeta> metas(h.num_blocks);
  std::size_t enc_off = 0, outl_off = 0, sym_off = 0;
  for (auto& m : metas) {
    m.symbol_count = read_pod<std::uint64_t>(p);
    m.encoded_bytes = read_pod<std::uint64_t>(p);
    m.outlier_count = read_pod<std::uint64_t>(p);
    // Invariant: sym_off <= num_quantized and enc_off + outl_off*4 <=
    // remaining, so these subtractions cannot wrap.
    const std::size_t avail = remaining - enc_off - outl_off * sizeof(float);
    if (m.symbol_count > h.num_quantized - sym_off || m.encoded_bytes > avail ||
        m.outlier_count > (avail - m.encoded_bytes) / sizeof(float))
      throw std::runtime_error("Compressor::decompress: corrupt block index");
    m.encoded_off = enc_off;
    m.outlier_off = outl_off;
    m.out_off = sym_off;
    enc_off += static_cast<std::size_t>(m.encoded_bytes);
    outl_off += static_cast<std::size_t>(m.outlier_count);
    sym_off += static_cast<std::size_t>(m.symbol_count);
  }
  if (sym_off != h.num_quantized)
    throw std::runtime_error("Compressor::decompress: corrupt block index");
  const std::uint8_t* enc_base = p;
  const std::uint8_t* outlier_base = p + enc_off;

  const bool rezero = static_cast<ZeroMode>(h.zero_mode) == ZeroMode::kRezero;
  tensor::parallel_for_tasks(metas.size(), [&](std::size_t b) {
    const BlockMeta& m = metas[b];
    const auto symbols = codec.decode(
        {enc_base + m.encoded_off, static_cast<std::size_t>(m.encoded_bytes)},
        static_cast<std::size_t>(m.symbol_count));
    detail::reconstruct_block_1d(
        symbols,
        {outlier_base + m.outlier_off * sizeof(float),
         static_cast<std::size_t>(m.outlier_count) * sizeof(float)},
        h.abs_eb, h.radius, rezero, {out.data() + m.out_off, symbols.size()});
  });
}

std::vector<float> Compressor::decompress(const CompressedBuffer& buf) const {
  std::vector<float> out(buf.num_elements);
  decompress(buf, out);
  return out;
}

double max_abs_error(std::span<const float> original, std::span<const float> reconstructed) {
  double m = 0.0;
  const std::size_t n = std::min(original.size(), reconstructed.size());
  for (std::size_t i = 0; i < n; ++i) {
    m = std::max(m, std::fabs(static_cast<double>(original[i]) -
                              static_cast<double>(reconstructed[i])));
  }
  return m;
}

}  // namespace ebct::sz
