#pragma once

/// \file huffman.hpp
/// Canonical Huffman coder over 32-bit symbols (quantization codes). This is
/// the entropy-coding stage of the SZ pipeline (cuSZ step 3). Code lengths are
/// capped at kMaxCodeLen by iterative frequency flattening.
///
/// Table build, serialization, parsing and canonical assignment all loop
/// over the k symbols that have a code, not over the alphabet: an SZ window
/// codes a few thousand of its 65,536 symbols, and a call's fixed cost is
/// proportional to those. The serialized table is still the run-length
/// encoding of the full per-symbol length array (gaps between coded symbols
/// become zero runs), so the bytes do not depend on how it was built.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace ebct::sz {

class HuffmanCodec {
 public:
  static constexpr unsigned kMaxCodeLen = 32;

  /// Build the code table from dense symbol frequencies (index = symbol);
  /// the alphabet is freqs.size().
  void build(std::span<const std::uint64_t> freqs);

  /// Build from a sparse histogram: `symbols` strictly ascending and each
  /// < `alphabet`, `freqs[i] > 0` the count of `symbols[i]`. Produces the
  /// same table as build() on the equivalent dense vector.
  void build_sparse(std::span<const std::uint32_t> symbols,
                    std::span<const std::uint64_t> freqs, std::size_t alphabet);

  /// Encode `symbols` into a byte vector. Throws std::logic_error for a
  /// symbol outside the alphabet or without a code.
  std::vector<std::uint8_t> encode(std::span<const std::uint32_t> symbols) const;

  /// Decode exactly `count` symbols from `bytes`.
  std::vector<std::uint32_t> decode(std::span<const std::uint8_t> bytes,
                                    std::size_t count) const;

  /// Serialize the code-length table (enough to reconstruct canonical codes).
  std::vector<std::uint8_t> serialize_table() const;
  /// Parse a serialized table. The table names its alphabet size; anything
  /// other than the caller's `alphabet` is rejected before allocating.
  void deserialize_table(std::span<const std::uint8_t> bytes, std::size_t alphabet);

  /// Code length of `symbol`; 0 when it has no code or is outside the alphabet.
  unsigned code_length(std::uint32_t symbol) const {
    return symbol < lengths_.size() ? lengths_[symbol] : 0;
  }

  /// Shannon-optimal size estimate in bits for the given frequencies.
  static double entropy_bits(std::span<const std::uint64_t> freqs);

  /// Width of the decode lookup table: one peek of this many bits resolves
  /// any code of length <= kLutBits in a single table load. Longer (rare)
  /// codes fall back to the canonical first-code scan.
  static constexpr unsigned kLutBits = 11;

 private:
  void assign_canonical();

  /// LUT entry: the decoded symbol and its code length (0 = no code of
  /// length <= kLutBits has this prefix; take the slow path).
  struct LutEntry {
    std::uint32_t symbol = 0;
    std::uint8_t len = 0;
  };

  std::vector<std::uint32_t> coded_;     // symbols with a code, ascending
  std::vector<std::uint8_t> lengths_;    // per-symbol code length (0 = unused)
  // Per-symbol canonical code, written only where lengths_ is nonzero (the
  // rest is left uninitialized).
  std::unique_ptr<std::uint32_t[]> codes_;
  // Canonical decode tables.
  std::vector<std::uint32_t> first_code_;    // per length
  std::vector<std::uint32_t> offset_;        // per length, into sorted_symbols_
  std::vector<std::uint32_t> count_;         // per length
  std::vector<std::uint32_t> sorted_symbols_;
  // Table-driven fast path, rebuilt alongside the canonical tables.
  std::vector<LutEntry> lut_;
  unsigned lut_bits_ = 0;  // min(kLutBits, max code length)
};

}  // namespace ebct::sz
