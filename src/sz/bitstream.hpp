#pragma once

/// \file bitstream.hpp
/// MSB-first bit writer/reader over a byte vector. Used by the Huffman coder
/// and the run-length streams inside the SZ and lossless codecs.
///
/// Both sides move whole words: the writer stages bits in a 64-bit
/// accumulator and stores a big-endian 32-bit word each time 32 bits are
/// ready, and the reader refills its 64-bit window with one 8-byte load
/// whatever the current bit position. The bytes are those of a bit-at-a-time
/// MSB-first writer: words are stored big-endian and the tail is padded with
/// zero bits to a byte.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace ebct::sz {

namespace detail {

inline std::uint32_t bswap32(std::uint32_t v) {
  return ((v & 0xffu) << 24) | ((v & 0xff00u) << 8) | ((v >> 8) & 0xff00u) | (v >> 24);
}

inline std::uint64_t bswap64(std::uint64_t v) {
  return (std::uint64_t{bswap32(static_cast<std::uint32_t>(v))} << 32) |
         bswap32(static_cast<std::uint32_t>(v >> 32));
}

inline constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// Store `word` big-endian at `dst`.
inline void store_be32(std::uint8_t* dst, std::uint32_t word) {
  if (kLittleEndian) word = bswap32(word);
  std::memcpy(dst, &word, 4);
}

}  // namespace detail

class BitWriter {
 public:
  /// Append the low `nbits` (<= 64) bits of `value`, most-significant first.
  void put(std::uint64_t value, unsigned nbits) {
    if (nbits > 32) {
      put_code((value >> 32) & ((std::uint64_t{1} << (nbits - 32)) - 1), nbits - 32);
      nbits = 32;
    }
    put_code(value & ((std::uint64_t{1} << nbits) - 1), nbits);
  }

  void put_bit(bool b) { put_code(b ? 1 : 0, 1); }

  /// Unsigned LEB128 varint (byte-aligned is not required; emitted as bits).
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      put_code((v & 0x7f) | 0x80, 8);
      v >>= 7;
    }
    put_code(v, 8);
  }

  /// Pad to a byte boundary and return the underlying bytes.
  std::vector<std::uint8_t> finish() {
    const unsigned tail = (fill_ + 7) / 8;
    if (tail > 0) {
      // Left-align the live bits in a 32-bit word; its first `tail` bytes
      // are the zero-padded remainder.
      store_word(static_cast<std::uint32_t>(acc_ << (32 - fill_)));
      pos_ += tail;
    }
    bytes_.resize(pos_);
    acc_ = 0;
    fill_ = 0;
    pos_ = 0;
    return std::move(bytes_);
  }

  std::size_t bit_count() const { return pos_ * 8 + fill_; }

 private:
  /// put() for a value that already fits in `nbits` (<= 32) bits.
  void put_code(std::uint64_t value, unsigned nbits) {
    // fill_ < 32 on entry, so the accumulator never holds more than 63
    // live bits; stale bits above them fall off in the word store.
    acc_ = (acc_ << nbits) | value;
    fill_ += nbits;
    // Branch-free: the word at pos_ is always stored and pos_ advances only
    // once it is full; until then the next store overwrites it.
    const bool full = fill_ >= 32;
    fill_ -= full ? 32 : 0;
    store_word(static_cast<std::uint32_t>(acc_ >> fill_));
    pos_ += full ? 4 : 0;
  }

  /// Store `word` big-endian at pos_ without advancing.
  void store_word(std::uint32_t word) {
    if (pos_ + 4 > bytes_.size()) bytes_.resize(bytes_.size() < 32 ? 64 : 2 * bytes_.size());
    detail::store_be32(bytes_.data() + pos_, word);
  }

  std::vector<std::uint8_t> bytes_;  // [0, pos_) written; the rest is room
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;  // live bits in acc_, < 32 between calls
};

/// Reader over a 64-bit window refilled by one 8-byte load: refill() tops
/// the window up to at least 56 staged bits with no loop and no branch on
/// the bit position, so the Huffman decoder refills once per few symbols
/// and pays one table load and one shift per symbol. Reading past the end
/// yields zero bits; callers track logical lengths.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint64_t get(unsigned nbits) {
    if (nbits > 32) {
      const std::uint64_t hi = get(nbits - 32);
      return (hi << 32) | get(32);
    }
    const std::uint64_t v = peek(nbits);
    skip(nbits);
    return v;
  }

  bool get_bit() { return get(1) != 0; }

  /// Next `nbits` (<= 32) without consuming, MSB-first, zero-padded past the
  /// end of the stream.
  std::uint32_t peek(unsigned nbits) {
    if (nbits == 0) return 0;
    if (avail_ < nbits) refill();
    return static_cast<std::uint32_t>(window_ >> (64 - nbits));
  }

  /// Discard `nbits` (<= the staged count: 56 after refill()).
  void skip(unsigned nbits) {
    window_ <<= nbits;
    avail_ -= nbits;
  }

  /// Stage at least 56 bits. The window's bits below the staged ones are
  /// the stream's next bits or zero, so OR-ing a fresh load over them is
  /// idempotent.
  void refill() {
    window_ |= load_be64(pos_) >> avail_;
    pos_ += (63 - avail_) >> 3;
    avail_ |= 56;
  }

  /// The staged bits, left-aligned (valid after refill()).
  std::uint64_t window() const { return window_; }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (true) {
      if (avail_ < 8) refill();
      const std::uint64_t byte = window_ >> 56;
      skip(8);
      // A valid 64-bit varint never exceeds 10 groups; a corrupt stream can
      // keep continuation bits set, so drop groups past bit 63 rather than
      // shift out of range (an exhausted reader yields 0x00 and terminates
      // the loop).
      if (shift < 64) v |= (byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  /// True once every real input bit has been consumed (zero padding fetched
  /// by overreads does not count as remaining input).
  bool exhausted() const { return pos_ * 8 - avail_ >= bytes_.size() * 8; }

 private:
  /// Eight bytes from `at`, big-endian, zero past the end of the input.
  std::uint64_t load_be64(std::size_t at) const {
    std::uint64_t v = 0;
    if (at + 8 <= bytes_.size()) {
      std::memcpy(&v, bytes_.data() + at, 8);
      return detail::kLittleEndian ? detail::bswap64(v) : v;
    }
    for (std::size_t i = 0; i < 8; ++i)
      v = (v << 8) | (at + i < bytes_.size() ? bytes_[at + i] : 0);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;        // bytes loaded into the window so far
  std::uint64_t window_ = 0;   // staged bits, left-aligned
  unsigned avail_ = 0;         // staged bit count, < 64
};

}  // namespace ebct::sz
