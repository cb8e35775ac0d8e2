#pragma once

/// \file compressor.hpp
/// SZ-style error-bounded lossy compressor for float32 tensors (the CPU
/// stand-in for cuSZ). Pipeline: Lorenzo prediction -> linear-scaling
/// quantization against the user error bound -> canonical Huffman coding,
/// with unpredictable values escaped to a raw outlier stream.
///
/// Zero handling reproduces both behaviours discussed in the paper (§4.4):
///  - kNone        : zeros flow through prediction and may reconstruct as
///                   small values within the bound (stock cuSZ behaviour),
///  - kRezero      : the paper's fix — a decompression filter that re-zeros
///                   any reconstructed value with |x| < eb. NOTE: for an
///                   original value x with eb < |x| < 2*eb whose
///                   reconstruction lands below eb, re-zeroing yields an
///                   error of up to 2*eb; the effective worst-case bound in
///                   this mode is therefore 2*eb (the paper accepts this:
///                   such values are indistinguishable from noise),
///  - kExactRle    : our extension — exact zeros are run-length encoded in a
///                   side stream and restored verbatim, preserving the
///                   strict eb bound for all elements.
///
/// Non-finite inputs (NaN, +-Inf) cannot be predicted; they escape to the
/// outlier stream and round-trip bit-exactly.
///
/// Cost: each compress/decompress call does work proportional to its
/// elements plus the k distinct quantization codes it entropy-codes (a few
/// thousand for activation windows), not to the 2*radius-symbol Huffman
/// alphabet — the histogram is sparse and the Huffman table is built,
/// serialized and parsed over the coded symbols only. The table bytes are
/// those of the full per-symbol length array, so the format is unchanged.

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
  kExactRle = 2,
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

  /// Concurrency cap for the block-parallel compress/decompress paths,
  /// which run as tasks in the shared work-stealing scheduler (see
  /// tensor/sched.hpp): 0 = the whole pool, 1 = serial, N = at most N
  /// pool threads pulling blocks dynamically. The compressed bytes are
  /// identical for every setting and every pool size — blocks are laid
  /// out in index order and the Huffman table is built from
  /// deterministically merged per-chunk histograms — so this is purely a
  /// throughput knob.
  std::uint32_t num_threads = 0;
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

/// 1-D Lorenzo prediction + linear quantization of one block: one symbol per
/// element into `symbols` (0 = escaped, value appended to `outliers`; else
/// code + radius).
void quantize_block_1d(std::span<const float> block, double eb, std::uint32_t radius,
                       std::vector<std::uint32_t>& symbols, std::vector<float>& outliers);

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
