#pragma once

/// \file huffman.hpp
/// Canonical Huffman coder over 32-bit symbols (quantization codes). This is
/// the entropy-coding stage of the SZ pipeline (cuSZ step 3). Code lengths are
/// capped at kMaxCodeLen by iterative frequency flattening.
///
/// Table build, serialization, parsing and canonical assignment all loop
/// over the k symbols that have a code, not over the alphabet: an SZ window
/// codes a few thousand of its 65,536 symbols, and a call's fixed cost is
/// proportional to those. Each side fills only its own tables: build() and
/// build_sparse() the encode table, deserialize_table() the decode tables,
/// so an encoder decodes (and a decoder encodes) through
/// serialize_table()/deserialize_table(), as every codec does. The
/// per-symbol code table spans only the coded range [lowest, highest coded
/// symbol]. The serialized table is still the run-length encoding of the
/// full per-symbol length array (gaps between coded symbols become zero
/// runs), so the bytes do not depend on how it was built.
///
/// The bitstream moves whole words (bitstream.hpp): encode shifts each code
/// into a 64-bit accumulator and stores a big-endian 32-bit word whenever
/// 32 bits are ready; decode refills a 64-bit window with one 8-byte load
/// per few symbols and resolves codes of up to kLutBits bits with one table
/// load. The bytes are those of a bit-at-a-time MSB-first writer.

#include <cstdint>
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
  unsigned code_length(std::uint32_t symbol) const;

  /// Shannon-optimal size estimate in bits for the given frequencies.
  static double entropy_bits(std::span<const std::uint64_t> freqs);

  /// Width of the decode lookup table: one peek of this many bits resolves
  /// any code of length <= kLutBits in a single table load. Longer codes
  /// (about 6% of an SZ activation window's symbols at eb = 1e-3) fall back
  /// to the canonical first-code scan. 12 bits measured faster than 11 (20%
  /// of symbols past the table) and than a second-level table per prefix.
  static constexpr unsigned kLutBits = 12;

 private:
  /// count_ and first_code_ from coded_len_ (both sides).
  void assign_lengths();
  /// The encode table from coded_/coded_len_ (build side).
  void assign_encode();
  /// The canonical decode tables and LUT from coded_/coded_len_ (parse side).
  void assign_decode();
  /// LUT entry: the decoded symbol and its code length (0 = no code of
  /// length <= kLutBits has this prefix; take the slow path).
  struct LutEntry {
    std::uint32_t symbol = 0;
    std::uint8_t len = 0;
  };
  /// The canonical first-code scan over the left-aligned window `w`, for
  /// codes the LUT does not resolve: the symbol and its code length.
  LutEntry decode_slow(std::uint64_t w) const;

  /// Encode-table entry: the canonical code and its length (0 = no code).
  struct Code {
    std::uint32_t bits = 0;
    std::uint32_t len = 0;
  };

  std::size_t alphabet_ = 0;
  std::vector<std::uint32_t> coded_;         // symbols with a code, ascending
  std::vector<std::uint8_t> coded_len_;      // their code lengths
  // Per length, on both sides.
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> count_;
  // Encode side: per-symbol codes over [enc_base_, coded_.back()] only: an
  // SZ window codes a few thousand symbols of a 65,536-symbol alphabet.
  std::uint32_t enc_base_ = 0;
  std::vector<Code> enc_;
  // Decode side: the canonical tables.
  std::vector<std::uint32_t> offset_;        // per length, into sorted_symbols_
  std::vector<std::uint32_t> sorted_symbols_;
  // Table-driven fast path, rebuilt alongside the canonical tables.
  std::vector<LutEntry> lut_;
  unsigned lut_bits_ = 0;  // min(kLutBits, max code length)
};

}  // namespace ebct::sz
