#include "sz/compressor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "sz/bitstream.hpp"
#include "sz/huffman.hpp"
#include "tensor/bytes.hpp"
#include "tensor/parallel.hpp"
#include "tensor/sched.hpp"

namespace ebct::sz {

namespace {

constexpr std::uint32_t kMagic = 0x455A4331;  // "EZC1"

#pragma pack(push, 1)
struct Header {
  std::uint32_t magic = kMagic;
  std::uint64_t num_elements = 0;
  double abs_eb = 0.0;
  std::uint8_t predictor = 0;  // 0 = 1-D Lorenzo; other ids are reserved
  std::uint8_t zero_mode = 0;
  std::uint32_t radius = 0;
  std::uint32_t block_size = 0;
  std::uint64_t num_quantized = 0;  // elements that went through the code path
  std::uint64_t table_bytes = 0;
  std::uint64_t rle_bytes = 0;
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
  symbols.resize(block.size());
  const double inv_step = 1.0 / (2.0 * eb);
  float prev_recon = 0.0f;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const float x = block[i];
    const double diff = static_cast<double>(x) - static_cast<double>(prev_recon);
    const double code_d = std::nearbyint(diff * inv_step);
    // Negated so a NaN code (non-finite input or neighbour) escapes too.
    bool outlier = !(std::fabs(code_d) < static_cast<double>(radius));
    float recon = 0.0f;
    if (!outlier) {
      recon = static_cast<float>(static_cast<double>(prev_recon) +
                                 code_d * 2.0 * eb);
      // Float rounding can push the reconstruction past the bound; escape.
      if (std::fabs(static_cast<double>(recon) - static_cast<double>(x)) > eb) {
        outlier = true;
      }
    }
    if (outlier) {
      symbols[i] = 0;
      outliers.push_back(x);
      prev_recon = x;
    } else {
      symbols[i] = static_cast<std::uint32_t>(static_cast<std::int64_t>(code_d) +
                                              static_cast<std::int64_t>(radius));
      prev_recon = recon;
    }
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

  // Exact-zero RLE mode: strip zeros into a run-length side stream and
  // compress only the packed non-zero sequence.
  std::vector<std::uint8_t> rle_bytes;
  std::vector<float> packed;
  std::span<const float> payload = data;
  if (cfg_.zero_mode == ZeroMode::kExactRle) {
    BitWriter rle;
    packed.reserve(data.size());
    std::size_t i = 0;
    while (i < data.size()) {
      std::size_t z = i;
      while (z < data.size() && data[z] == 0.0f) ++z;
      rle.put_varint(z - i);
      std::size_t nz = z;
      while (nz < data.size() && data[nz] != 0.0f) ++nz;
      rle.put_varint(nz - z);
      for (std::size_t k = z; k < nz; ++k) packed.push_back(data[k]);
      i = nz;
    }
    rle_bytes = rle.finish();
    payload = packed;
  }

  const std::size_t n = payload.size();
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
  tensor::parallel_for_tasks(num_blocks, cfg_.num_threads, [&](std::size_t b) {
    const std::size_t begin = b * bs;
    const std::size_t end = std::min(n, begin + bs);
    detail::quantize_block_1d(payload.subspan(begin, end - begin), eb, cfg_.radius,
                              blocks[b].symbols, blocks[b].outliers);
  });

  // Stage 2 — global Huffman table. Each chunk of blocks counts into a
  // reused histogram and drains a sparse (symbol, count) list; the lists
  // merge in chunk order. Integer counts make the merged histogram (and
  // hence the table and the output bytes) independent of the thread count,
  // and no step touches the whole alphabet.
  const std::size_t hw = static_cast<std::size_t>(tensor::sched::num_threads());
  const std::size_t workers =
      cfg_.num_threads == 0 ? hw : std::min<std::size_t>(cfg_.num_threads, hw);
  const std::size_t nchunks = std::min(num_blocks, std::max<std::size_t>(workers, 1));
  struct SparseCounts {
    std::vector<std::uint32_t> symbols;
    std::vector<std::uint64_t> counts;
  };
  auto& histograms = HistogramPool::instance();
  std::vector<SparseCounts> chunk_counts(nchunks);
  tensor::parallel_for_tasks(nchunks, cfg_.num_threads, [&](std::size_t c) {
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
  tensor::parallel_for_tasks(num_blocks, cfg_.num_threads, [&](std::size_t b) {
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
  h.rle_bytes = rle_bytes.size();
  h.num_blocks = num_blocks;

  CompressedBuffer out;
  out.num_elements = data.size();
  out.abs_error_bound = eb;
  append_bytes(out.bytes, &h, sizeof(h));
  append_bytes(out.bytes, table.data(), table.size());
  append_bytes(out.bytes, rle_bytes.data(), rle_bytes.size());
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
  if (h.rle_bytes > remaining)
    throw std::runtime_error("Compressor::decompress: corrupt header (rle)");
  remaining -= static_cast<std::size_t>(h.rle_bytes);
  constexpr std::size_t kIndexEntry = 3 * sizeof(std::uint64_t);
  if (h.num_blocks > remaining / kIndexEntry)
    throw std::runtime_error("Compressor::decompress: corrupt header (blocks)");
  remaining -= static_cast<std::size_t>(h.num_blocks) * kIndexEntry;
  if (h.predictor != 0 || h.zero_mode > static_cast<std::uint8_t>(ZeroMode::kExactRle))
    throw std::runtime_error("Compressor::decompress: corrupt header (mode)");
  // num_quantized sizes the payload buffer and, for the non-RLE modes, is
  // copied verbatim into `out` — forging it must not move the write bounds.
  if (static_cast<ZeroMode>(h.zero_mode) == ZeroMode::kExactRle
          ? h.num_quantized > h.num_elements
          : h.num_quantized != h.num_elements)
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
  std::span<const std::uint8_t> rle{p, static_cast<std::size_t>(h.rle_bytes)};
  p += h.rle_bytes;

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

  std::vector<float> payload(h.num_quantized);
  const double eb = h.abs_eb;
  const std::uint32_t radius = h.radius;

  tensor::parallel_for_tasks(metas.size(), cfg_.num_threads, [&](std::size_t b) {
    const BlockMeta& m = metas[b];
    const auto symbols = codec.decode(
        {enc_base + m.encoded_off, static_cast<std::size_t>(m.encoded_bytes)},
        static_cast<std::size_t>(m.symbol_count));
    std::vector<float> outliers(m.outlier_count);
    if (m.outlier_count > 0) {
      std::memcpy(outliers.data(), outlier_base + m.outlier_off * sizeof(float),
                  m.outlier_count * sizeof(float));
    }
    float* dst = payload.data() + m.out_off;
    std::size_t oi = 0;
    float prev = 0.0f;
    for (std::size_t i = 0; i < symbols.size(); ++i) {
      if (symbols[i] == 0) {
        // A corrupt symbol stream can claim more escapes than the block
        // index promised; clamp rather than read out of bounds.
        prev = oi < outliers.size() ? outliers[oi++] : 0.0f;
      } else {
        const auto code = static_cast<std::int64_t>(symbols[i]) -
                          static_cast<std::int64_t>(radius);
        prev = static_cast<float>(static_cast<double>(prev) +
                                  static_cast<double>(code) * 2.0 * eb);
      }
      dst[i] = prev;
    }
  });

  const auto zero_mode = static_cast<ZeroMode>(h.zero_mode);
  if (zero_mode == ZeroMode::kExactRle) {
    BitReader r(rle);
    std::size_t oi = 0, pi = 0;
    while (oi < out.size()) {
      const std::uint64_t zrun = r.get_varint();
      for (std::uint64_t k = 0; k < zrun && oi < out.size(); ++k) out[oi++] = 0.0f;
      if (oi >= out.size()) break;
      const std::uint64_t nzrun = r.get_varint();
      // A valid stream never emits a (0, 0) pair while elements remain; an
      // exhausted (corrupt) reader yields exactly that — stop instead of
      // spinning.
      if (zrun == 0 && nzrun == 0) break;
      for (std::uint64_t k = 0; k < nzrun && oi < out.size() && pi < payload.size(); ++k)
        out[oi++] = payload[pi++];
    }
    while (oi < out.size()) out[oi++] = 0.0f;  // corrupt-stream remainder
  } else {
    std::copy(payload.begin(), payload.end(), out.begin());
    if (zero_mode == ZeroMode::kRezero) {
      // The paper's decompression filter (§4.4): values under the bound are
      // re-zeroed so ReLU-induced zeros survive exactly.
      tensor::parallel_for(out.size(), [&](std::size_t i) {
        if (std::fabs(static_cast<double>(out[i])) < eb) out[i] = 0.0f;
      });
    }
  }
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
