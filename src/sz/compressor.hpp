#pragma once

/// \file compressor.hpp
/// SZ-style error-bounded lossy compressor for float32 tensors (the CPU
/// stand-in for cuSZ). Pipeline: dual quantization -> canonical Huffman
/// coding, with unpredictable values escaped to a raw outlier stream.
///
/// Dual quantization (cuSZ, Tian et al., PACT 2020) splits SZ's serial
/// predict-then-quantize chain in two. Each value is first rounded onto
/// the 2*eb grid, q = round(x * (1 / (2*eb))) in double, half to even; a
/// data-parallel pass. The integer grid values are then 1-D Lorenzo
/// predicted: the symbol is q - prev + radius. A value escapes (symbol 0,
/// stored verbatim, prev unchanged) when float(q * 2*eb) misses x by more
/// than eb, when |q| >= 2^31 (NaN and +-Inf included), or when
/// |q - prev| >= radius. Decoding is an int64 prefix sum of the deltas
/// (an escape adds 0), one multiply per value, then the escapes. The
/// header's predictor id is 1; a stream with any other id is rejected.
///
/// Zero handling (§4.4):
///  - kNone        : no filter. Grid reconstruction already returns exact
///                   zeros as exactly 0 (stock SZ, whose float chain starts
///                   off-grid after a non-zero value, perturbs them),
///  - kRezero      : the paper's decompression filter, re-zeroing any
///                   reconstructed value with |x| < eb. Every non-zero grid
///                   value lies beyond eb, so only escaped values can be
///                   re-zeroed, and those are under eb: the strict eb bound
///                   holds.
/// Both modes restore every exact zero; the header's zero-mode byte is 0 or
/// 1, its side-stream length 0 and its quantized count the element count,
/// and a stream declaring anything else is rejected.
///
/// The grid arithmetic is compiled without FMA contraction, so the bytes
/// are identical at every SIMD level: spill files, EBCS containers and
/// serve responses share this format.
///
/// Blocks compress and decompress as tasks in the shared work-stealing
/// pool (tensor/sched.hpp). The bytes are identical at every pool size:
/// blocks are laid out in index order and the Huffman table is built from
/// per-chunk histograms merged in order. A one-thread pool
/// (EBCT_SCHED_THREADS=1) is the serial reference.
///
/// Cost: each compress/decompress call does work proportional to its
/// elements plus the k distinct quantization codes it entropy-codes (a few
/// thousand for activation windows), not to the 2*radius-symbol Huffman
/// alphabet — the histogram is sparse and the Huffman table is built,
/// serialized and parsed over the coded symbols only. The table bytes are
/// those of the full per-symbol length array.

#include <cstdint>
#include <span>
#include <vector>

namespace ebct::sz {

/// Largest quantization radius a Compressor accepts and a stream may
/// declare; it bounds the Huffman alphabet (2 * radius) a decoder sizes.
inline constexpr std::uint32_t kMaxRadius = 32768;

enum class ZeroMode : std::uint8_t {
  kNone = 0,
  kRezero = 1,
};

enum class BoundMode : std::uint8_t {
  kAbsolute = 0,  ///< error_bound is the absolute bound
  kRelative = 1,  ///< absolute bound = error_bound * (max - min) of the input
};

struct Config {
  double error_bound = 1e-3;
  BoundMode bound_mode = BoundMode::kAbsolute;
  ZeroMode zero_mode = ZeroMode::kRezero;
  std::uint32_t radius = 32768;      ///< codes in (-radius, radius); 2 <= radius <= kMaxRadius
  std::uint32_t block_size = 65536;  ///< independent prediction blocks (parallelism)
};

/// Opaque compressed representation. `bytes` is self-describing; the
/// metadata fields mirror the header for convenience.
struct CompressedBuffer {
  std::vector<std::uint8_t> bytes;
  std::size_t num_elements = 0;
  double abs_error_bound = 0.0;

  std::size_t compressed_bytes() const { return bytes.size(); }
  std::size_t original_bytes() const { return num_elements * sizeof(float); }
  double compression_ratio() const {
    return bytes.empty() ? 0.0
                         : static_cast<double>(original_bytes()) /
                               static_cast<double>(bytes.size());
  }
};

class Compressor {
 public:
  explicit Compressor(Config cfg = {});

  const Config& config() const { return cfg_; }

  CompressedBuffer compress(std::span<const float> data) const;

  /// Reconstruct the compressed `bytes` into `out` (must have the element
  /// count the header declares).
  void decompress(std::span<const std::uint8_t> bytes, std::span<float> out) const;

  void decompress(const CompressedBuffer& buf, std::span<float> out) const {
    decompress(std::span<const std::uint8_t>(buf.bytes), out);
  }

  std::vector<float> decompress(const CompressedBuffer& buf) const;

 private:
  Config cfg_;
};

namespace detail {

// Stages of Compressor::compress, exposed for stage-level timing
// (perf_smoke, micro_compressor).

/// Dual quantization of one block (the rule in the file comment): one
/// symbol per element into `symbols` (0 = escaped, value appended to
/// `outliers`; else q - prev + radius).
void quantize_block_1d(std::span<const float> block, double eb, std::uint32_t radius,
                       std::vector<std::uint32_t>& symbols, std::vector<float>& outliers);

/// Inverse of quantize_block_1d: rebuild one block into `out` (symbols.size()
/// floats) from its symbols and its escaped values (`outliers`, the raw
/// float bytes in stream order). With `rezero`, an escaped value under eb
/// in magnitude becomes 0. Throws std::runtime_error if the symbols hold a
/// different number of escapes than `outliers` does.
void reconstruct_block_1d(std::span<const std::uint32_t> symbols,
                          std::span<const std::uint8_t> outliers, double eb,
                          std::uint32_t radius, bool rezero, std::span<float> out);

/// Symbol counts over an alphabet of at most 2 * kMaxRadius (every symbol
/// added must be below it), read back sparse. The count table and a one-bit-per-symbol "seen" map live as long
/// as the object and return to zero on drain(), so a reused histogram costs
/// O(symbols added + distinct symbols + alphabet / 64) per round.
class SymbolHistogram {
 public:
  void add(std::span<const std::uint32_t> symbols);
  /// Add counts[i] occurrences of symbols[i].
  void add(std::span<const std::uint32_t> symbols, std::span<const std::uint64_t> counts);
  /// Append the seen symbols (ascending) and their counts, then reset.
  void drain(std::vector<std::uint32_t>& symbols, std::vector<std::uint64_t>& counts);

 private:
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(2 * std::size_t{kMaxRadius});
  std::vector<std::uint64_t> seen_ = std::vector<std::uint64_t>(2 * std::size_t{kMaxRadius} / 64);
};

}  // namespace detail

/// Largest |original - reconstructed| over the span pair.
double max_abs_error(std::span<const float> original, std::span<const float> reconstructed);

}  // namespace ebct::sz
