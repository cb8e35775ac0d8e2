// Tests for the SZ error-bounded compressor stack: bit I/O, Huffman,
// and the compressor's core contract — every reconstructed element within
// the user error bound — across data shapes, bounds and zero modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "core/codec_registry.hpp"
#include "nn/streaming.hpp"
#include "sz/bitstream.hpp"
#include "sz/compressor.hpp"
#include "sz/huffman.hpp"
#include "sz/metrics.hpp"
#include "sz/zero_runs.hpp"
#include "stats/distribution.hpp"
#include "tensor/rng.hpp"
#include "util/test_util.hpp"

namespace ebct::sz {
namespace {

TEST(BitStream, RoundtripMixedWidths) {
  BitWriter w;
  w.put(0b101, 3);
  w.put(0xdeadbeef, 32);
  w.put(1, 1);
  w.put(0x123456789abcdef0ULL, 64);
  const auto bytes = w.finish();
  BitReader r({bytes.data(), bytes.size()});
  EXPECT_EQ(r.get(3), 0b101u);
  EXPECT_EQ(r.get(32), 0xdeadbeefu);
  EXPECT_EQ(r.get(1), 1u);
  EXPECT_EQ(r.get(64), 0x123456789abcdef0ULL);
}

TEST(BitStream, VarintRoundtrip) {
  BitWriter w;
  const std::vector<std::uint64_t> vals{0, 1, 127, 128, 300, 1ULL << 20, 1ULL << 40,
                                        ~0ULL};
  for (auto v : vals) w.put_varint(v);
  const auto bytes = w.finish();
  BitReader r({bytes.data(), bytes.size()});
  for (auto v : vals) EXPECT_EQ(r.get_varint(), v);
}

TEST(BitStream, ManyRandomBitsRoundtrip) {
  tensor::Rng rng(31);
  std::vector<std::pair<std::uint64_t, unsigned>> items;
  BitWriter w;
  for (int i = 0; i < 5000; ++i) {
    const unsigned n = 1 + static_cast<unsigned>(rng.uniform_index(63));
    const std::uint64_t v = rng.next_u64() & ((n >= 64) ? ~0ULL : ((1ULL << n) - 1));
    items.emplace_back(v, n);
    w.put(v, n);
  }
  const auto bytes = w.finish();
  BitReader r({bytes.data(), bytes.size()});
  for (auto [v, n] : items) EXPECT_EQ(r.get(n), v);
}

TEST(BitStream, PeekDoesNotConsume) {
  BitWriter w;
  w.put(0b1011001110001111ULL, 16);
  const auto bytes = w.finish();
  BitReader r({bytes.data(), bytes.size()});
  EXPECT_EQ(r.peek(5), 0b10110u);
  EXPECT_EQ(r.peek(5), 0b10110u);  // unchanged: peek is non-destructive
  r.skip(3);
  EXPECT_EQ(r.peek(5), 0b10011u);
  EXPECT_EQ(r.get(13), 0b1001110001111u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStream, PeekPastEndPadsWithZeros) {
  BitWriter w;
  w.put(0xff, 8);
  const auto bytes = w.finish();
  BitReader r({bytes.data(), bytes.size()});
  EXPECT_EQ(r.peek(32), 0xff000000u);
  r.skip(8);
  EXPECT_TRUE(r.exhausted());  // padding bits are not remaining input
  EXPECT_EQ(r.get(16), 0u);
}

TEST(BitStream, EmptyWriterFinishesEmpty) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  const auto bytes = w.finish();
  EXPECT_TRUE(bytes.empty());
}

TEST(BitStream, SingleBitRoundtrip) {
  BitWriter w;
  w.put_bit(true);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 1u);  // padded to one byte
  BitReader r({bytes.data(), bytes.size()});
  EXPECT_TRUE(r.get_bit());
}

TEST(BitStream, FullWordBoundary) {
  // Exactly 64 then 64 more bits exercises the accumulator flush path.
  BitWriter w;
  w.put(~0ULL, 64);
  w.put(0x5555555555555555ULL, 64);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 16u);
  BitReader r({bytes.data(), bytes.size()});
  EXPECT_EQ(r.get(64), ~0ULL);
  EXPECT_EQ(r.get(64), 0x5555555555555555ULL);
  EXPECT_TRUE(r.exhausted());
}

/// The bytes a bit-at-a-time MSB-first writer produces: the format the
/// word-at-a-time BitWriter must keep.
class ReferenceBitWriter {
 public:
  void put(std::uint64_t value, unsigned nbits) {
    for (unsigned b = nbits; b-- > 0;) {
      if (fill_ % 8 == 0) bytes_.push_back(0);
      if ((value >> b) & 1) bytes_.back() |= static_cast<std::uint8_t>(0x80u >> (fill_ % 8));
      ++fill_;
    }
  }
  std::vector<std::uint8_t> bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t fill_ = 0;
};

TEST(BitStream, WordWriterMatchesBitAtATimeReference) {
  tensor::Rng rng(91);
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter w;
    ReferenceBitWriter ref;
    const int puts = static_cast<int>(rng.uniform_index(400));
    for (int i = 0; i < puts; ++i) {
      const unsigned n = static_cast<unsigned>(rng.uniform_index(65));
      const std::uint64_t v = rng.next_u64();  // high bits past n must be ignored
      w.put(v, n);
      ref.put(v, n);
    }
    const std::size_t bits = w.bit_count();
    const auto bytes = w.finish();
    EXPECT_EQ(bytes, ref.bytes()) << "trial " << trial;
    EXPECT_EQ(bytes.size(), (bits + 7) / 8);
  }
}

/// A decoder for `codec`'s code, parsed from its serialized table: an
/// encoder holds no decode tables, so every codec decodes this way.
HuffmanCodec decoder_for(const HuffmanCodec& codec, std::size_t alphabet) {
  const auto table = codec.serialize_table();
  HuffmanCodec d;
  d.deserialize_table({table.data(), table.size()}, alphabet);
  return d;
}

TEST(Huffman, EncodeMatchesBitAtATimeReference) {
  // The encoder writes whole words into a presized buffer; its bytes must
  // be those of writing each code bit by bit. Alphabets up to 4096 symbols
  // with skewed counts give code lengths from 1 to far past kLutBits.
  tensor::Rng rng(92);
  int past_lut = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t alphabet = 2 + rng.uniform_index(4095);
    std::vector<std::uint64_t> freqs(alphabet, 0);
    for (auto& f : freqs)
      if (rng.uniform() < 0.7) f = 1 + (rng.next_u64() >> rng.uniform_index(64));
    freqs[rng.uniform_index(alphabet)] += 1;
    HuffmanCodec codec;
    codec.build(freqs);
    std::vector<std::uint32_t> symbols;
    for (std::uint32_t s = 0; s < alphabet; ++s)
      if (freqs[s] > 0) symbols.push_back(s);
    for (int i = 0; i < 3000; ++i) symbols.push_back(symbols[rng.uniform_index(symbols.size())]);
    const auto bytes = codec.encode(symbols);
    // Canonical codes recomputed from the lengths alone.
    std::vector<unsigned> len(alphabet);
    unsigned max_len = 0;
    for (std::uint32_t s = 0; s < alphabet; ++s) max_len = std::max(max_len, len[s] = codec.code_length(s));
    std::vector<std::uint64_t> code(alphabet);
    std::uint64_t next = 0;
    for (unsigned l = 1; l <= max_len; ++l, next <<= 1)
      for (std::uint32_t s = 0; s < alphabet; ++s)
        if (len[s] == l) code[s] = next++;
    ReferenceBitWriter ref;
    for (const std::uint32_t s : symbols) ref.put(code[s], len[s]);
    ASSERT_EQ(bytes, ref.bytes()) << "trial " << trial;
    ASSERT_EQ(decoder_for(codec, alphabet).decode(bytes, symbols.size()), symbols)
        << "trial " << trial;
    past_lut += max_len > HuffmanCodec::kLutBits;
  }
  EXPECT_GE(past_lut, 5);  // the canonical-scan fallback really ran
}

TEST(Huffman, RoundtripCodesLongerThanLut) {
  // Exponentially skewed frequencies force code lengths well past the
  // decoder's kLutBits table width, exercising the canonical-scan slow path
  // and the LUT/slow-path boundary in one stream.
  const std::size_t alphabet = 24;
  std::vector<std::uint64_t> freqs(alphabet);
  for (std::size_t s = 0; s < alphabet; ++s) freqs[s] = 1ULL << s;
  HuffmanCodec codec;
  codec.build({freqs.data(), freqs.size()});
  unsigned max_len = 0;
  for (std::uint32_t s = 0; s < alphabet; ++s)
    max_len = std::max(max_len, codec.code_length(s));
  ASSERT_GT(max_len, HuffmanCodec::kLutBits);  // the premise of this test

  tensor::Rng rng(77);
  std::vector<std::uint32_t> symbols(4096);
  for (auto& s : symbols) s = static_cast<std::uint32_t>(rng.uniform_index(alphabet));
  const auto bytes = codec.encode({symbols.data(), symbols.size()});
  const auto decoded =
      decoder_for(codec, alphabet).decode({bytes.data(), bytes.size()}, symbols.size());
  ASSERT_EQ(decoded.size(), symbols.size());
  EXPECT_EQ(decoded, symbols);
}

TEST(Huffman, DeserializeRejectsOversizedCodeLengths) {
  // A hostile table claiming a code longer than kMaxCodeLen would misalign
  // the decoder's 32-bit peek window; it must be rejected up front.
  BitWriter w;
  w.put_varint(2);   // alphabet
  w.put_varint(40);  // bogus length > 32
  w.put_varint(2);   // run
  const auto bytes = w.finish();
  HuffmanCodec codec;
  EXPECT_THROW(codec.deserialize_table({bytes.data(), bytes.size()}, 2), std::runtime_error);
}

TEST(Huffman, DeserializeRejectsKraftViolatingTable) {
  // Four symbols all claiming 1-bit codes is not a prefix code; without the
  // Kraft check the canonical assignment would write past the decode LUT.
  BitWriter w;
  w.put_varint(4);  // alphabet
  w.put_varint(1);  // length 1 ...
  w.put_varint(4);  // ... for all four symbols
  const auto bytes = w.finish();
  HuffmanCodec codec;
  EXPECT_THROW(codec.deserialize_table({bytes.data(), bytes.size()}, 4), std::runtime_error);
}

TEST(Huffman, RoundtripRandomSymbols) {
  tensor::Rng rng(32);
  std::vector<std::uint32_t> symbols(20000);
  for (auto& s : symbols) s = static_cast<std::uint32_t>(rng.uniform_index(64));
  std::vector<std::uint64_t> freqs(64, 0);
  for (auto s : symbols) ++freqs[s];
  HuffmanCodec codec;
  codec.build(freqs);
  const auto enc = codec.encode(symbols);
  const auto dec = decoder_for(codec, 64).decode({enc.data(), enc.size()}, symbols.size());
  EXPECT_EQ(dec, symbols);
}

TEST(Huffman, SkewedDistributionCompresses) {
  // 95% of mass on one symbol: Huffman must beat 6 bits/symbol hugely.
  tensor::Rng rng(33);
  std::vector<std::uint32_t> symbols(50000);
  for (auto& s : symbols)
    s = rng.uniform() < 0.95 ? 7u : static_cast<std::uint32_t>(rng.uniform_index(64));
  std::vector<std::uint64_t> freqs(64, 0);
  for (auto s : symbols) ++freqs[s];
  HuffmanCodec codec;
  codec.build(freqs);
  const auto enc = codec.encode(symbols);
  EXPECT_LT(enc.size() * 8, symbols.size() * 2);  // < 2 bits/symbol
  const auto dec = decoder_for(codec, 64).decode({enc.data(), enc.size()}, symbols.size());
  EXPECT_EQ(dec, symbols);
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freqs(16, 0);
  freqs[3] = 1000;
  HuffmanCodec codec;
  codec.build(freqs);
  std::vector<std::uint32_t> symbols(1000, 3);
  const auto enc = codec.encode(symbols);
  const auto dec = decoder_for(codec, 16).decode({enc.data(), enc.size()}, 1000);
  EXPECT_EQ(dec, symbols);
}

TEST(Huffman, TableSerializationRoundtrip) {
  tensor::Rng rng(34);
  std::vector<std::uint64_t> freqs(300, 0);
  for (auto& f : freqs) f = rng.uniform_index(1000);
  HuffmanCodec a;
  a.build(freqs);
  const auto table = a.serialize_table();
  HuffmanCodec b;
  b.deserialize_table({table.data(), table.size()}, 300);
  for (std::uint32_t s = 0; s < 300; ++s) EXPECT_EQ(a.code_length(s), b.code_length(s));

  std::vector<std::uint32_t> symbols;
  for (std::uint32_t s = 0; s < 300; ++s)
    if (freqs[s]) symbols.push_back(s);
  const auto enc = a.encode(symbols);
  const auto dec = b.decode({enc.data(), enc.size()}, symbols.size());
  EXPECT_EQ(dec, symbols);
}

TEST(Huffman, EncodingUnknownSymbolThrows) {
  std::vector<std::uint64_t> freqs(8, 0);
  freqs[0] = 5;
  freqs[1] = 5;
  HuffmanCodec codec;
  codec.build(freqs);
  std::vector<std::uint32_t> bad{4};
  EXPECT_THROW(codec.encode(bad), std::logic_error);
  // One past the alphabet: rejected, not read out of bounds.
  std::vector<std::uint32_t> outside{8};
  EXPECT_THROW(codec.encode(outside), std::logic_error);
  EXPECT_EQ(codec.code_length(8), 0u);
  EXPECT_EQ(codec.code_length(~0u), 0u);
}

TEST(Huffman, EachSideFillsOnlyItsOwnTables) {
  // A built table encodes and a parsed one decodes; the other direction
  // fails closed instead of reading tables nobody filled.
  std::vector<std::uint64_t> freqs{3, 5, 0, 9};
  HuffmanCodec built;
  built.build(freqs);
  const std::vector<std::uint32_t> symbols{0, 1, 3, 3};
  const auto enc = built.encode(symbols);
  EXPECT_THROW(built.decode({enc.data(), enc.size()}, symbols.size()), std::runtime_error);
  HuffmanCodec decoder = decoder_for(built, 4);
  EXPECT_EQ(decoder.decode({enc.data(), enc.size()}, symbols.size()), symbols);
  EXPECT_THROW(decoder.encode(symbols), std::logic_error);
  // Rebuilding a parsed object drops its decode side, and the reverse.
  decoder.build(freqs);
  EXPECT_EQ(decoder.encode(symbols), enc);
  EXPECT_THROW(decoder.decode({enc.data(), enc.size()}, symbols.size()), std::runtime_error);
  const auto table = built.serialize_table();
  built.deserialize_table({table.data(), table.size()}, 4);
  EXPECT_THROW(built.encode(symbols), std::logic_error);
  EXPECT_EQ(built.decode({enc.data(), enc.size()}, symbols.size()), symbols);
}

TEST(Huffman, EmptySymbolStream) {
  std::vector<std::uint64_t> freqs(8, 0);
  freqs[2] = 10;
  HuffmanCodec codec;
  codec.build(freqs);
  const auto enc = codec.encode({});
  EXPECT_TRUE(enc.empty());
  EXPECT_TRUE(decoder_for(codec, 8).decode({enc.data(), enc.size()}, 0).empty());
}

TEST(Huffman, TwoSymbolTableSerializationRoundtrip) {
  // Smallest non-degenerate alphabet: one bit per symbol.
  std::vector<std::uint64_t> freqs{3, 5};
  HuffmanCodec a;
  a.build(freqs);
  const auto table = a.serialize_table();
  HuffmanCodec b;
  b.deserialize_table({table.data(), table.size()}, 2);
  const std::vector<std::uint32_t> symbols{0, 1, 1, 0, 1};
  const auto enc = a.encode(symbols);
  EXPECT_EQ(enc.size(), 1u);  // 5 one-bit codes pad to a single byte
  EXPECT_EQ(b.decode({enc.data(), enc.size()}, symbols.size()), symbols);
}

// --- Huffman table equivalence against the heap-built reference -------------
//
// The reference is the original builder: a min-heap of (freq, node index)
// pairs merged until one root, depths by DFS, and a dense run-length table.
// The codec's two-queue build over coded symbols must produce the same
// serialized bytes on every distribution.

unsigned reference_depths(const std::vector<std::uint64_t>& freqs,
                          std::vector<unsigned>& lengths) {
  struct Node {
    std::uint64_t freq;
    std::int32_t symbol;  // -1 for internal
    std::int32_t left = -1, right = -1;
  };
  std::vector<Node> nodes;
  using Item = std::pair<std::uint64_t, std::int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (std::uint32_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] > 0) {
      nodes.push_back({freqs[s], static_cast<std::int32_t>(s)});
      heap.emplace(freqs[s], static_cast<std::int32_t>(nodes.size() - 1));
    }
  }
  lengths.assign(freqs.size(), 0);
  if (nodes.empty()) return 0;
  if (nodes.size() == 1) {
    lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
    return 1;
  }
  while (heap.size() > 1) {
    auto [fa, ia] = heap.top();
    heap.pop();
    auto [fb, ib] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, -1, ia, ib});
    heap.emplace(fa + fb, static_cast<std::int32_t>(nodes.size() - 1));
  }
  unsigned max_depth = 0;
  std::vector<std::pair<std::int32_t, unsigned>> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(idx)];
    if (n.symbol >= 0) {
      lengths[static_cast<std::size_t>(n.symbol)] = depth;
      max_depth = std::max(max_depth, depth);
    } else {
      stack.emplace_back(n.left, depth + 1);
      stack.emplace_back(n.right, depth + 1);
    }
  }
  return max_depth;
}

/// The reference table bytes; `flattened` is set when the length cap forced
/// at least one frequency-halving round.
std::vector<std::uint8_t> reference_table(std::vector<std::uint64_t> freqs, bool& flattened,
                                          std::vector<unsigned>& lengths) {
  unsigned depth = reference_depths(freqs, lengths);
  flattened = depth > HuffmanCodec::kMaxCodeLen;
  while (depth > HuffmanCodec::kMaxCodeLen) {
    for (auto& v : freqs)
      if (v > 0) v = (v + 1) / 2;
    depth = reference_depths(freqs, lengths);
  }
  BitWriter w;
  w.put_varint(lengths.size());
  std::size_t i = 0;
  while (i < lengths.size()) {
    std::size_t j = i;
    while (j < lengths.size() && lengths[j] == lengths[i]) ++j;
    w.put_varint(lengths[i]);
    w.put_varint(j - i);
    i = j;
  }
  return w.finish();
}

TEST(Huffman, TablesMatchHeapBuiltReference) {
  tensor::Rng rng(1701);
  int flattened_cases = 0, full_alphabet_cases = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    // Alphabet 2..65,536, log-uniform; every 100th trial is the full SZ one.
    const std::size_t alphabet =
        trial % 100 == 0
            ? 65536
            : 2 + static_cast<std::size_t>(std::pow(2.0, 16.0 * rng.uniform())) % 65535;
    full_alphabet_cases += alphabet == 65536;
    std::vector<std::uint64_t> freqs(alphabet, 0);
    const int shape = trial % 5;
    // Coded fraction: dense (every symbol), or a sparse random subset.
    const bool dense = shape == 0 || (shape == 4 && alphabet < 64);
    const std::size_t k =
        dense ? alphabet : 1 + rng.uniform_index(std::min<std::size_t>(alphabet, 4000));
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t s = dense ? i : rng.uniform_index(alphabet);
      switch (shape) {
        case 0:  // dense, geometric-ish quantization-code counts
        case 1:
          freqs[s] = 1 + rng.uniform_index(1 + (1u << rng.uniform_index(16)));
          break;
        case 2:  // all-equal frequencies: every merge is a tie
          freqs[s] = 7;
          break;
        case 3:  // magnitudes up to 2^40: deep trees, the flattening loop
          freqs[s] = 1 + (rng.next_u64() >> (24 + rng.uniform_index(40)));
          break;
        default:  // exponential ladder: depth ~ k, always flattened when k > 32
          freqs[s] = std::uint64_t{1} << (i % 41);
          break;
      }
    }
    bool flattened = false;
    std::vector<unsigned> ref_lengths;
    const auto expected = reference_table(freqs, flattened, ref_lengths);
    flattened_cases += flattened;

    HuffmanCodec dense_built;
    dense_built.build(freqs);
    ASSERT_EQ(dense_built.serialize_table(), expected) << "trial " << trial;

    std::vector<std::uint32_t> symbols;
    std::vector<std::uint64_t> counts;
    for (std::uint32_t s = 0; s < alphabet; ++s) {
      if (freqs[s] > 0) {
        symbols.push_back(s);
        counts.push_back(freqs[s]);
      }
    }
    HuffmanCodec sparse_built;
    sparse_built.build_sparse(symbols, counts, alphabet);
    ASSERT_EQ(sparse_built.serialize_table(), expected) << "trial " << trial;

    HuffmanCodec parsed;
    parsed.deserialize_table({expected.data(), expected.size()}, alphabet);
    ASSERT_EQ(parsed.serialize_table(), expected) << "trial " << trial;
    for (const std::uint32_t s : symbols)
      ASSERT_EQ(parsed.code_length(s), ref_lengths[s]) << "trial " << trial;
    if (trial % 10 == 0) {
      const auto enc = sparse_built.encode(symbols);
      ASSERT_EQ(parsed.decode({enc.data(), enc.size()}, symbols.size()), symbols);
    }
  }
  EXPECT_GE(flattened_cases, 100);  // the >32-bit path really ran
  EXPECT_GE(full_alphabet_cases, 10);
}

TEST(Huffman, BuildSparseRejectsMalformedHistograms) {
  HuffmanCodec codec;
  const std::vector<std::uint64_t> two{1, 1};
  const std::vector<std::uint32_t> descending{3, 1}, repeated{1, 1}, outside{1, 8};
  EXPECT_THROW(codec.build_sparse(descending, two, 8), std::invalid_argument);
  EXPECT_THROW(codec.build_sparse(repeated, two, 8), std::invalid_argument);
  EXPECT_THROW(codec.build_sparse(outside, two, 8), std::invalid_argument);
  const std::vector<std::uint32_t> ok{1, 5};
  const std::vector<std::uint64_t> zero{1, 0};
  EXPECT_THROW(codec.build_sparse(ok, zero, 8), std::invalid_argument);
  EXPECT_THROW(codec.build_sparse(ok, std::vector<std::uint64_t>{1}, 8),
               std::invalid_argument);
}

TEST(Huffman, DeserializeRejectsUnexpectedAlphabet) {
  std::vector<std::uint64_t> freqs{3, 5, 0, 9};
  HuffmanCodec a;
  a.build(freqs);
  const auto table = a.serialize_table();
  HuffmanCodec b;
  EXPECT_THROW(b.deserialize_table({table.data(), table.size()}, 5), std::runtime_error);
  EXPECT_THROW(b.deserialize_table({table.data(), table.size()}, 3), std::runtime_error);
  EXPECT_NO_THROW(b.deserialize_table({table.data(), table.size()}, 4));
}

TEST(Huffman, DeserializeRejectsTruncatedTable) {
  // An alphabet with no runs after it: the exhausted reader yields empty
  // runs forever, which must throw rather than spin.
  BitWriter w;
  w.put_varint(5);
  const auto bytes = w.finish();
  HuffmanCodec codec;
  EXPECT_THROW(codec.deserialize_table({bytes.data(), bytes.size()}, 5), std::runtime_error);
}

/// Peak resident set of this process in kB (VmHWM), or 0 where /proc is absent.
std::size_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  return 0;
}

TEST(Huffman, TinyTableCannotForceHugeAllocation) {
  // Twelve bytes declaring a 2^28-symbol alphabet, otherwise a valid table.
  // Sizing the per-symbol tables from it would commit over 1 GB.
  constexpr std::size_t kForged = std::size_t{1} << 28;
  BitWriter w;
  w.put_varint(kForged);
  w.put_varint(0);  // zeros ...
  w.put_varint(kForged - 2);
  w.put_varint(1);  // ... then two 1-bit codes
  w.put_varint(2);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 12u);
  const std::size_t before = peak_rss_kb();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status";
  HuffmanCodec codec;
  EXPECT_THROW(codec.deserialize_table({bytes.data(), bytes.size()}, 65536),
               std::runtime_error);
  EXPECT_LT(peak_rss_kb() - before, 8u * 1024u);
}

// --- Zero runs ----------------------------------------------------------------

/// The run-length loop the zero-run stream was first written with.
std::vector<std::uint8_t> reference_zero_runs(const std::vector<float>& data,
                                              std::vector<float>& packed) {
  BitWriter rle;
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
  return rle.finish();
}

TEST(ZeroRuns, SplitMatchesReferenceAndJoinInverts) {
  tensor::Rng rng(93);
  std::vector<std::vector<float>> inputs = {{}, {0.0f}, {1.0f}, {0.0f, 0.0f}, {2.0f, 3.0f},
                                            {0.0f, 1.0f}, {1.0f, 0.0f}, {-0.0f, 1.0f, -0.0f}};
  for (const std::size_t n : {1023, 1024, 1025, 5000}) {
    for (const double sparsity : {0.0, 0.3, 0.9, 1.0}) {
      std::vector<float> v(n);
      rng.fill_relu_like({v.data(), n}, sparsity, 1.0f);
      inputs.push_back(v);
    }
  }
  std::vector<float> long_run(3000, 0.0f);  // runs spanning the 1024-element chunks
  long_run[1500] = 1.0f;
  inputs.push_back(long_run);
  for (const auto& data : inputs) {
    std::vector<float> want_packed, got_packed{9.0f};
    const auto want = reference_zero_runs(data, want_packed);
    BitWriter w;
    split_zero_runs(data, w, got_packed);
    const auto got = w.finish();
    ASSERT_EQ(got, want) << "n " << data.size();
    ASSERT_EQ(got_packed, want_packed);
    std::vector<float> out(data.size(), 7.0f);
    join_zero_runs(got, got_packed, out, "test");
    for (std::size_t i = 0; i < data.size(); ++i) ASSERT_EQ(out[i], data[i] == 0.0f ? 0.0f : data[i]);
  }
}

TEST(ZeroRuns, JoinRejectsShortOrOverclaimingStreams) {
  std::vector<float> out(10);
  const std::vector<float> packed{1.0f, 2.0f};
  BitWriter empty;
  const auto none = empty.finish();  // reads as (0, 0) forever
  EXPECT_THROW(join_zero_runs(none, packed, out, "test"), std::runtime_error);
  BitWriter greedy;
  greedy.put_varint(2);
  greedy.put_varint(8);  // eight non-zeros, two packed
  const auto over = greedy.finish();
  EXPECT_THROW(join_zero_runs(over, packed, out, "test"), std::runtime_error);
}

TEST(SymbolHistogram, DrainsAscendingAndResets) {
  detail::SymbolHistogram h;
  const std::vector<std::uint32_t> symbols{65535, 3, 64, 3, 0, 65535, 3, 63};
  h.add(symbols);
  std::vector<std::uint32_t> syms;
  std::vector<std::uint64_t> counts;
  h.drain(syms, counts);
  EXPECT_EQ(syms, (std::vector<std::uint32_t>{0, 3, 63, 64, 65535}));
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{1, 3, 1, 1, 2}));
  // Drained means empty: a merge round sees only what is added after it.
  h.add(std::vector<std::uint32_t>{64, 7}, std::vector<std::uint64_t>{10, 4});
  syms.clear();
  counts.clear();
  h.drain(syms, counts);
  EXPECT_EQ(syms, (std::vector<std::uint32_t>{7, 64}));
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{4, 10}));
}

TEST(Huffman, EntropyBitsSane) {
  std::vector<std::uint64_t> freqs{500, 500};
  EXPECT_NEAR(HuffmanCodec::entropy_bits(freqs), 1000.0, 1e-9);  // 1 bit/symbol
}

// ---------------------------------------------------------------------------
// Compressor: the error-bound contract, parameterised over bounds and data.

struct BoundCase {
  double eb;
  double sparsity;
  std::size_t n;
};

class ErrorBoundTest : public ::testing::TestWithParam<BoundCase> {};

TEST_P(ErrorBoundTest, EveryElementWithinBound) {
  const auto [eb, sparsity, n] = GetParam();
  tensor::Rng rng(35);
  std::vector<float> data(n);
  rng.fill_relu_like({data.data(), n}, sparsity, 1.0f);
  Config cfg;
  cfg.error_bound = eb;
  cfg.zero_mode = ZeroMode::kNone;
  Compressor comp(cfg);
  const auto buf = comp.compress({data.data(), n});
  const auto recon = comp.decompress(buf);
  EXPECT_TRUE(within_bound({data.data(), n}, {recon.data(), recon.size()}, eb))
      << "max err " << max_abs_error({data.data(), n}, {recon.data(), recon.size()});
}

TEST_P(ErrorBoundTest, RezeroModeWithinBound) {
  const auto [eb, sparsity, n] = GetParam();
  tensor::Rng rng(36);
  std::vector<float> data(n);
  rng.fill_relu_like({data.data(), n}, sparsity, 1.0f);
  Config cfg;
  cfg.error_bound = eb;
  cfg.zero_mode = ZeroMode::kRezero;
  Compressor comp(cfg);
  const auto recon = comp.decompress(comp.compress({data.data(), n}));
  // Grid reconstruction puts every non-escaped value within eb and exact
  // zeros at exactly 0, and the filter only re-zeros escapes under eb: the
  // strict bound holds, with no slack.
  EXPECT_TRUE(within_bound({data.data(), n}, {recon.data(), recon.size()}, eb, 0.0))
      << "max err " << max_abs_error({data.data(), n}, {recon.data(), recon.size()});
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ErrorBoundTest,
    ::testing::Values(BoundCase{1e-2, 0.0, 10000}, BoundCase{1e-3, 0.5, 10000},
                      BoundCase{1e-4, 0.7, 50000}, BoundCase{1e-5, 0.9, 20000},
                      BoundCase{1e-1, 0.3, 1000}, BoundCase{1e-3, 0.0, 3}));

// --- The quantizer rule against a scalar reference ---------------------------
//
// The documented rule, written out one element at a time: q is x * (1 /
// (2 eb)) in double, rounded half to even; x escapes (symbol 0, verbatim,
// prev unchanged) if |q| >= 2^31, if float(q * 2 eb) misses x by more than
// eb, or if |q - prev| >= radius; otherwise its symbol is q - prev + radius
// and prev becomes q.

void reference_quantize(std::span<const float> block, double eb, std::uint32_t radius,
                        std::vector<std::uint32_t>& symbols, std::vector<float>& outliers) {
  const double step = 2.0 * eb;
  const double inv_step = 1.0 / step;
  std::int64_t prev = 0;
  for (const float x : block) {
    const double q = std::nearbyint(static_cast<double>(x) * inv_step);
    bool escape = !(std::fabs(q) < 2147483648.0);
    if (!escape) {
      const float recon = static_cast<float>(q * step);
      escape = std::fabs(static_cast<double>(recon) - static_cast<double>(x)) > eb;
    }
    const std::int64_t qi = escape ? 0 : static_cast<std::int64_t>(q);
    if (!escape) escape = std::llabs(qi - prev) >= static_cast<std::int64_t>(radius);
    if (escape) {
      symbols.push_back(0);
      outliers.push_back(x);
    } else {
      symbols.push_back(static_cast<std::uint32_t>(qi - prev + radius));
      prev = qi;
    }
  }
}

/// Values at the rule's edges for bound `eb`: exact half-grid points, grid
/// values near +-2^31, non-finite values, denormals and signed zeros.
std::vector<float> quantizer_edge_cases(double eb) {
  const double step = 2.0 * eb;
  std::vector<float> v;
  for (int k = -6; k <= 6; ++k) v.push_back(static_cast<float>((k + 0.5) * step));
  for (const double g : {2147483647.0, 2147483647.5, 2147483648.0, 2147483649.0,
                         1073741824.0, 4294967296.0}) {
    for (const double sign : {1.0, -1.0}) {
      const auto x = static_cast<float>(sign * g * step);
      v.push_back(x);
      v.push_back(std::nextafter(x, 0.0f));
      v.push_back(std::nextafter(x, 2.0f * x));
    }
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (const float x : {std::numeric_limits<float>::quiet_NaN(), inf, -inf,
                        std::numeric_limits<float>::denorm_min(),
                        -std::numeric_limits<float>::denorm_min(), 1e-40f,
                        std::numeric_limits<float>::min(), -0.0f, 0.0f,
                        std::numeric_limits<float>::max(), -std::numeric_limits<float>::max()})
    v.push_back(x);
  return v;
}

TEST(Quantizer, MatchesScalarReferenceOfTheRule) {
  // With eb = 2^-10 the half-grid points are exact binary fractions, so
  // round-half-even decides them; the decimal bounds cover 1e-4 to 1e-1.
  tensor::Rng rng(81);
  std::size_t escapes_seen = 0;
  for (const double eb : {1e-4, 3e-4, 1e-3, 1e-2, 1e-1, 0x1.0p-10}) {
    for (const std::uint32_t radius : {2u, 16u, 512u, 32768u}) {
      std::vector<float> data = quantizer_edge_cases(eb);
      std::vector<float> relu(2000);
      rng.fill_relu_like({relu.data(), relu.size()}, 0.4, 1.0f);
      data.insert(data.end(), relu.begin(), relu.end());
      // A second copy of the edge cases in the middle of real data, so the
      // escapes also interrupt a running prediction chain.
      const auto edges = quantizer_edge_cases(eb);
      data.insert(data.begin() + 700, edges.begin(), edges.end());

      std::vector<std::uint32_t> want_sym, got_sym;
      std::vector<float> want_out, got_out;
      reference_quantize(data, eb, radius, want_sym, want_out);
      detail::quantize_block_1d(data, eb, radius, got_sym, got_out);
      ASSERT_EQ(got_sym, want_sym) << "eb " << eb << " radius " << radius;
      ASSERT_EQ(got_out.size(), want_out.size());
      ASSERT_EQ(std::memcmp(got_out.data(), want_out.data(), got_out.size() * sizeof(float)), 0)
          << "eb " << eb << " radius " << radius;
      escapes_seen += got_out.size();

      // And the inverse puts every non-escaped value within eb, every
      // escaped one back verbatim.
      std::vector<float> recon(data.size());
      detail::reconstruct_block_1d(
          got_sym,
          {reinterpret_cast<const std::uint8_t*>(got_out.data()), got_out.size() * sizeof(float)},
          eb, radius, false, recon);
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (got_sym[i] == 0)
          ASSERT_EQ(std::memcmp(&recon[i], &data[i], sizeof(float)), 0) << i;
        else
          ASSERT_LE(std::fabs(static_cast<double>(recon[i]) - data[i]), eb) << i;
      }
    }
  }
  EXPECT_GT(escapes_seen, 0u);
}

TEST(Quantizer, HalfGridTiesRoundToEven) {
  const double eb = 0x1.0p-10;  // step 2^-9: (k + 0.5) * step is exact
  const std::vector<float> data{0.5f * 0x1.0p-9f, 1.5f * 0x1.0p-9f, 2.5f * 0x1.0p-9f,
                                -0.5f * 0x1.0p-9f, -1.5f * 0x1.0p-9f};
  std::vector<std::uint32_t> symbols;
  std::vector<float> outliers;
  detail::quantize_block_1d(data, eb, 16, symbols, outliers);
  // Grid values 0, 2, 2, -0, -2 -> deltas 0, 2, 0, -2, -2.
  EXPECT_TRUE(outliers.empty());
  EXPECT_EQ(symbols, (std::vector<std::uint32_t>{16, 18, 16, 14, 14}));
}

TEST(Compressor, RezeroPreservesExactZeros) {
  tensor::Rng rng(37);
  std::vector<float> data(20000);
  rng.fill_relu_like({data.data(), data.size()}, 0.6, 1.0f);
  Config cfg;
  cfg.error_bound = 1e-3;
  cfg.zero_mode = ZeroMode::kRezero;
  Compressor comp(cfg);
  const auto recon = comp.decompress(comp.compress({data.data(), data.size()}));
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] == 0.0f) {
      EXPECT_EQ(recon[i], 0.0f) << i;
    }
  }
}

TEST(Compressor, PlainModeKeepsZerosAfterNonzerosOnTheGrid) {
  // Stock SZ perturbs zeros that follow non-zero data: its float prediction
  // chain starts off-grid. Dual quantization predicts grid integers, and
  // the grid value of 0 is exactly 0, so even without the re-zero filter
  // those zeros come back exact.
  std::vector<float> data(1000, 0.0f);
  data[0] = 0.7213f;
  Config cfg;
  cfg.error_bound = 1e-3;
  cfg.zero_mode = ZeroMode::kNone;
  Compressor comp(cfg);
  const auto recon = comp.decompress(comp.compress({data.data(), data.size()}));
  EXPECT_LE(std::fabs(recon[0] - data[0]), 1e-3);
  for (std::size_t i = 1; i < recon.size(); ++i) EXPECT_EQ(recon[i], 0.0f) << i;
}

TEST(Compressor, RezeroFilterReachesOnlyEscapes) {
  // Radius 2 admits deltas of -1..1 only, so the drop from grid value 3 to
  // 0 escapes: 0.0005 is stored verbatim. The filter re-zeros it (it is
  // under eb); without the filter it comes back bit-exact.
  const std::vector<float> data{0.002f, 0.004f, 0.006f, 0.0005f, 0.0f, -0.003f};
  for (const auto mode : {ZeroMode::kNone, ZeroMode::kRezero}) {
    Config cfg;
    cfg.error_bound = 1e-3;
    cfg.radius = 2;
    cfg.zero_mode = mode;
    const Compressor comp(cfg);
    const auto recon = comp.decompress(comp.compress({data.data(), data.size()}));
    EXPECT_EQ(recon[3], mode == ZeroMode::kRezero ? 0.0f : 0.0005f);
    EXPECT_EQ(recon[4], 0.0f);
    EXPECT_TRUE(within_bound({data.data(), data.size()}, {recon.data(), recon.size()}, 1e-3));
  }
}

TEST(Compressor, SparserDataCompressesBetter) {
  tensor::Rng rng(39);
  Config cfg;
  cfg.error_bound = 1e-3;
  Compressor comp(cfg);
  double prev_ratio = 0.0;
  for (double sparsity : {0.0, 0.5, 0.9}) {
    std::vector<float> data(50000);
    rng.fill_relu_like({data.data(), data.size()}, sparsity, 1.0f);
    const double ratio = comp.compress({data.data(), data.size()}).compression_ratio();
    EXPECT_GT(ratio, prev_ratio);
    prev_ratio = ratio;
  }
}

TEST(Compressor, LargerBoundHigherRatio) {
  tensor::Rng rng(40);
  std::vector<float> data(100000);
  rng.fill_relu_like({data.data(), data.size()}, 0.5, 1.0f);
  double prev = 0.0;
  for (double eb : {1e-5, 1e-4, 1e-3, 1e-2}) {
    Config cfg;
    cfg.error_bound = eb;
    Compressor comp(cfg);
    const double ratio = comp.compress({data.data(), data.size()}).compression_ratio();
    EXPECT_GT(ratio, prev) << "eb=" << eb;
    prev = ratio;
  }
  EXPECT_GT(prev, 4.0);  // 1e-2 on unit-scale data compresses well
}

TEST(Compressor, SmoothDataCompressesBetterThanNoise) {
  std::vector<float> smooth(65536), noise(65536);
  tensor::Rng rng(41);
  for (std::size_t i = 0; i < smooth.size(); ++i)
    smooth[i] = std::sin(static_cast<double>(i) * 0.01);
  rng.fill_uniform({noise.data(), noise.size()}, -1, 1);
  Config cfg;
  cfg.error_bound = 1e-3;
  Compressor comp(cfg);
  const double rs = comp.compress({smooth.data(), smooth.size()}).compression_ratio();
  const double rn = comp.compress({noise.data(), noise.size()}).compression_ratio();
  EXPECT_GT(rs, rn);
}

TEST(Compressor, RelativeBoundResolvesAgainstRange) {
  tensor::Rng rng(42);
  std::vector<float> data(10000);
  rng.fill_uniform({data.data(), data.size()}, -50.0f, 50.0f);
  Config cfg;
  cfg.error_bound = 1e-4;
  cfg.bound_mode = BoundMode::kRelative;
  Compressor comp(cfg);
  const auto buf = comp.compress({data.data(), data.size()});
  EXPECT_NEAR(buf.abs_error_bound, 1e-4 * 100.0, 2e-3);
  const auto recon = comp.decompress(buf);
  EXPECT_TRUE(within_bound({data.data(), data.size()}, {recon.data(), recon.size()},
                           buf.abs_error_bound));
}

TEST(Compressor, OutliersBeyondRadiusHandled) {
  // Huge jumps force the escape path; contract must still hold.
  std::vector<float> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = (i % 2) ? 1.0e6f : -1.0e6f;
  Config cfg;
  cfg.error_bound = 1e-6;
  Compressor comp(cfg);
  const auto recon = comp.decompress(comp.compress({data.data(), data.size()}));
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_FLOAT_EQ(recon[i], data[i]);
}

TEST(Compressor, EmptyInput) {
  Compressor comp;
  const auto buf = comp.compress({});
  EXPECT_EQ(buf.num_elements, 0u);
  const auto recon = comp.decompress(buf);
  EXPECT_TRUE(recon.empty());
}

TEST(Compressor, MultiBlockMatchesSingleBlock) {
  tensor::Rng rng(44);
  std::vector<float> data(200000);
  rng.fill_relu_like({data.data(), data.size()}, 0.5, 1.0f);
  Config small;
  small.error_bound = 1e-3;
  small.block_size = 1024;
  small.zero_mode = ZeroMode::kNone;
  Config big;
  big.error_bound = 1e-3;
  big.block_size = 1 << 20;
  big.zero_mode = ZeroMode::kNone;
  const auto ra = Compressor(small).decompress(Compressor(small).compress({data.data(), data.size()}));
  const auto rb = Compressor(big).decompress(Compressor(big).compress({data.data(), data.size()}));
  // Both satisfy the bound (block boundaries change predictions, not the contract).
  EXPECT_TRUE(within_bound({data.data(), data.size()}, {ra.data(), ra.size()}, 1e-3));
  EXPECT_TRUE(within_bound({data.data(), data.size()}, {rb.data(), rb.size()}, 1e-3));
}

TEST(Compressor, AllZerosUnderEachZeroMode) {
  const std::vector<float> zeros(10000, 0.0f);
  for (const ZeroMode mode : {ZeroMode::kNone, ZeroMode::kRezero}) {
    Config cfg;
    cfg.error_bound = 1e-3;
    cfg.zero_mode = mode;
    Compressor comp(cfg);
    const auto buf = comp.compress({zeros.data(), zeros.size()});
    const auto recon = comp.decompress(buf);
    ASSERT_EQ(recon.size(), zeros.size());
    for (std::size_t i = 0; i < recon.size(); ++i) {
      ASSERT_EQ(recon[i], 0.0f) << "mode " << static_cast<int>(mode) << " idx " << i;
    }
    // An all-zeros tensor must compress to nearly nothing in every mode
    // (worst case kNone: one bit per symbol plus header ≈ 29x at n=10000).
    EXPECT_GT(buf.compression_ratio(), 20.0);
  }
}

TEST(Compressor, BlockSizeSmallerThanInput) {
  tensor::Rng rng(47);
  std::vector<float> data(1000);
  rng.fill_relu_like({data.data(), data.size()}, 0.4, 1.0f);
  Config cfg;
  cfg.error_bound = 1e-3;
  cfg.block_size = 7;  // 143 tiny blocks, last one partial
  cfg.zero_mode = ZeroMode::kNone;
  Compressor comp(cfg);
  const auto buf = comp.compress({data.data(), data.size()});
  const auto recon = comp.decompress(buf);
  EXPECT_TRUE(within_bound({data.data(), data.size()}, {recon.data(), recon.size()}, 1e-3));
}

TEST(Compressor, BlockSizeLargerThanInput) {
  tensor::Rng rng(48);
  std::vector<float> data(5);
  rng.fill_uniform({data.data(), data.size()}, -1.0f, 1.0f);
  Config cfg;
  cfg.error_bound = 1e-3;
  cfg.block_size = 1u << 20;  // single partial block
  Compressor comp(cfg);
  const auto buf = comp.compress({data.data(), data.size()});
  const auto recon = comp.decompress(buf);
  EXPECT_TRUE(within_bound({data.data(), data.size()}, {recon.data(), recon.size()}, 1e-3));
}

TEST(Compressor, SingleElementEveryZeroMode) {
  for (const ZeroMode mode : {ZeroMode::kNone, ZeroMode::kRezero}) {
    Config cfg;
    cfg.error_bound = 1e-4;
    cfg.zero_mode = mode;
    Compressor comp(cfg);
    const std::vector<float> data{0.31337f};
    const auto recon = comp.decompress(comp.compress({data.data(), 1}));
    ASSERT_EQ(recon.size(), 1u);
    EXPECT_NEAR(recon[0], data[0], 1e-4 * 1.001);
  }
}

// --- Block-parallel path: the pool size never changes a byte ---------------

TEST(CompressorParallel, OutputByteIdenticalAcrossThreadCounts) {
  tensor::Rng rng(49);
  std::vector<float> data(300000);
  rng.fill_relu_like({data.data(), data.size()}, 0.5, 1.0f);
  Config cfg;
  cfg.error_bound = 1e-3;
  cfg.block_size = 8192;  // 37 blocks: enough to expose ordering bugs
  const Compressor comp(cfg);
  auto compress_on = [&](int pool) {
    const testutil::ScopedPoolSize scoped(pool);
    return comp.compress({data.data(), data.size()});
  };
  const auto serial = compress_on(1);
  for (const int pool : {2, 8}) {
    const auto parallel = compress_on(pool);
    EXPECT_EQ(parallel.bytes, serial.bytes) << "pool " << pool;
    EXPECT_EQ(parallel.num_elements, serial.num_elements);
  }
}

TEST(CompressorParallel, DecompressionIdenticalAcrossThreadCounts) {
  tensor::Rng rng(50);
  std::vector<float> data(300000);
  rng.fill_relu_like({data.data(), data.size()}, 0.5, 1.0f);
  Config cfg;
  cfg.error_bound = 1e-3;
  cfg.block_size = 8192;
  const Compressor comp(cfg);
  const auto buf = comp.compress({data.data(), data.size()});  // the machine's pool
  auto decompress_on = [&](int pool) {
    const testutil::ScopedPoolSize scoped(pool);
    return comp.decompress(buf);
  };
  const auto serial = decompress_on(1);
  for (const int pool : {2, 8}) {
    EXPECT_EQ(decompress_on(pool), serial) << "pool " << pool;
  }
}

TEST(Compressor, InvalidConfigThrows) {
  // A bound must be > 0 with a finite quantization step (2 * eb).
  for (const double bad : {0.0, -1e-3, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::max()}) {
    Config cfg;
    cfg.error_bound = bad;
    EXPECT_THROW(Compressor{cfg}, std::invalid_argument) << "error_bound " << bad;
  }
  Config cfg3;
  cfg3.block_size = 0;
  EXPECT_THROW(Compressor{cfg3}, std::invalid_argument);
}

TEST(Compressor, CorruptBufferThrowsInsteadOfCrashing) {
  tensor::Rng rng(52);
  std::vector<float> data(5000);
  rng.fill_relu_like({data.data(), data.size()}, 0.5, 1.0f);
  Compressor comp;
  const auto buf = comp.compress({data.data(), data.size()});
  std::vector<float> out(data.size());

  // Truncated mid-header.
  CompressedBuffer trunc;
  trunc.num_elements = buf.num_elements;
  trunc.bytes.assign(buf.bytes.begin(), buf.bytes.begin() + 50);
  EXPECT_THROW(comp.decompress(trunc, {out.data(), out.size()}), std::runtime_error);

  // table_bytes forged to ~2^64: an unchecked sum would wrap past the guard.
  CompressedBuffer forged;
  forged.num_elements = buf.num_elements;
  forged.bytes = buf.bytes;
  std::memset(forged.bytes.data() + 38, 0xFF, 8);  // Header::table_bytes offset
  EXPECT_THROW(comp.decompress(forged, {out.data(), out.size()}), std::runtime_error);

  // Payload shorter than the block index promises.
  CompressedBuffer short_payload;
  short_payload.num_elements = buf.num_elements;
  short_payload.bytes.assign(buf.bytes.begin(), buf.bytes.end() - 100);
  EXPECT_THROW(comp.decompress(short_payload, {out.data(), out.size()}),
               std::runtime_error);

  // num_quantized forged past num_elements (would move the output bounds)
  // or below it (a count only the retired run-length zero mode wrote).
  for (const std::uint64_t forged : {std::uint64_t{0x7F7F7F7F7F7F7F7F},
                                     std::uint64_t{buf.num_elements - 1}}) {
    CompressedBuffer count_forged;
    count_forged.num_elements = buf.num_elements;
    count_forged.bytes = buf.bytes;
    std::memcpy(count_forged.bytes.data() + 30, &forged, 8);  // Header::num_quantized
    EXPECT_THROW(comp.decompress(count_forged, {out.data(), out.size()}), std::runtime_error)
        << "num_quantized " << forged;
  }

  // Zero-mode byte forged: 0 (none) and 1 (re-zero) are the only modes; 2
  // was the retired run-length mode.
  ASSERT_EQ(buf.bytes[21], 1);  // Header::zero_mode
  for (const std::uint8_t mode : {2, 3, 255}) {
    CompressedBuffer mode_forged;
    mode_forged.num_elements = buf.num_elements;
    mode_forged.bytes = buf.bytes;
    mode_forged.bytes[21] = mode;
    EXPECT_THROW(comp.decompress(mode_forged, {out.data(), out.size()}), std::runtime_error)
        << "zero_mode " << int{mode};
  }

  // A side-stream length: no mode writes one, so any non-zero value is
  // corrupt, small or wrapping.
  for (const std::uint64_t forged : {std::uint64_t{1}, std::uint64_t{8}, ~std::uint64_t{0}}) {
    CompressedBuffer rle_forged;
    rle_forged.num_elements = buf.num_elements;
    rle_forged.bytes = buf.bytes;
    std::memcpy(rle_forged.bytes.data() + 46, &forged, 8);  // Header::rle_bytes
    EXPECT_THROW(comp.decompress(rle_forged, {out.data(), out.size()}), std::runtime_error)
        << "rle_bytes " << forged;
  }

  // Predictor byte forged: only id 1 (dual quantization) exists. Id 0 was
  // the float-chain predictor; a stream claiming it, or any other id, is a
  // corrupt header, not a stream to decode.
  ASSERT_EQ(buf.bytes[20], 1);  // Header::predictor
  for (const std::uint8_t id : {0, 2, 255}) {
    CompressedBuffer pred_forged;
    pred_forged.num_elements = buf.num_elements;
    pred_forged.bytes = buf.bytes;
    pred_forged.bytes[20] = id;
    EXPECT_THROW(comp.decompress(pred_forged, {out.data(), out.size()}), std::runtime_error)
        << "predictor " << int{id};
  }

  // abs_eb forged to inf (or NaN): the dequantizer would multiply codes by
  // an infinite step and emit NaNs instead of failing.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    CompressedBuffer eb_forged;
    eb_forged.num_elements = buf.num_elements;
    eb_forged.bytes = buf.bytes;
    std::memcpy(eb_forged.bytes.data() + 12, &bad, sizeof(bad));  // Header::abs_eb
    EXPECT_THROW(comp.decompress(eb_forged, {out.data(), out.size()}), std::runtime_error)
        << "abs_eb " << bad;
  }

  // Two escapes (a NaN and an infinity) in one block. An index that
  // promises fewer or more outliers than the symbol stream holds must
  // throw, not fill the difference with zeros or read past the outliers.
  std::vector<float> escapes(3000, 0.25f);
  escapes[10] = std::numeric_limits<float>::quiet_NaN();
  escapes[2000] = std::numeric_limits<float>::infinity();
  const auto esc_buf = comp.compress({escapes.data(), escapes.size()});
  std::uint64_t table_bytes = 0;
  std::memcpy(&table_bytes, esc_buf.bytes.data() + 38, 8);  // Header::table_bytes
  const std::size_t outlier_field = 62 + table_bytes + 16;  // block 0's triplet
  std::uint64_t outliers = 0;
  std::memcpy(&outliers, esc_buf.bytes.data() + outlier_field, 8);
  ASSERT_EQ(outliers, 2u);
  std::vector<float> esc_out(escapes.size());
  for (const std::uint64_t forged : {0, 1, 3}) {
    CompressedBuffer bad = esc_buf;
    std::memcpy(bad.bytes.data() + outlier_field, &forged, 8);
    if (forged > 2) bad.bytes.resize(bad.bytes.size() + sizeof(float));  // room for it
    EXPECT_THROW(comp.decompress(bad, {esc_out.data(), esc_out.size()}), std::runtime_error)
        << "outlier_count " << forged;
  }
}


// The pager's disk tier hands sz::decompress payloads that survived a trip
// through a spill file — the two sweeps below feed it every truncation
// point and a seeded spread of single-byte corruptions. The contract under
// ASan/UBSan is: throw or reconstruct, never crash or read out of bounds.
// (Silent wrong values from deep-payload bit flips are caught one layer up
// by the pager's spill checksum; these tests pin down the codec itself.)

TEST(Compressor, TruncatedSpillPayloadSweepNeverCrashes) {
  tensor::Rng rng(53);
  std::vector<float> data(4000);
  rng.fill_relu_like({data.data(), data.size()}, 0.5, 1.0f);
  Compressor comp;
  const auto buf = comp.compress({data.data(), data.size()});
  std::vector<float> out(data.size());

  std::size_t threw = 0;
  for (std::size_t cut = 0; cut < buf.bytes.size();
       cut += std::max<std::size_t>(1, buf.bytes.size() / 97)) {
    CompressedBuffer trunc;
    trunc.num_elements = buf.num_elements;
    trunc.bytes.assign(buf.bytes.begin(),
                       buf.bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    try {
      comp.decompress(trunc, {out.data(), out.size()});
    } catch (const std::runtime_error&) {
      ++threw;
    }
  }
  // Every cut inside the header/index region must throw; payload-region
  // cuts may zero-pad-decode. Either way, a healthy majority throws.
  EXPECT_GT(threw, 0u);
}

TEST(Compressor, ByteFlipSweepThrowsOrReconstructs) {
  tensor::Rng rng(54);
  std::vector<float> data(4000);
  rng.fill_relu_like({data.data(), data.size()}, 0.5, 1.0f);
  Compressor comp;
  const auto buf = comp.compress({data.data(), data.size()});
  std::vector<float> out(data.size());

  for (int trial = 0; trial < 64; ++trial) {
    CompressedBuffer bad;
    bad.num_elements = buf.num_elements;
    bad.bytes = buf.bytes;
    const std::size_t pos = rng.uniform_index(bad.bytes.size());
    bad.bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_index(8));
    try {
      comp.decompress(bad, {out.data(), out.size()});
      // Reconstructed without throwing: the flip landed somewhere benign
      // (payload bits). The values may be wrong — the pager checksum's
      // job — but the call must have stayed in bounds (ASan-verified).
    } catch (const std::runtime_error&) {
      // Loud failure: the guards caught it.
    }
  }
}

TEST(Compressor, DecompressSizeMismatchThrows) {
  std::vector<float> data(100, 1.0f);
  Compressor comp;
  const auto buf = comp.compress({data.data(), data.size()});
  std::vector<float> out(99);
  EXPECT_THROW(comp.decompress(buf, {out.data(), out.size()}), std::invalid_argument);
}

// The paper's Fig. 3 claim in miniature: the reconstruction error of
// SZ-compressed activation-like data is uniformly distributed in [-eb, eb].
TEST(Compressor, ErrorDistributionIsUniform) {
  tensor::Rng rng(45);
  std::vector<float> data(200000);
  rng.fill_relu_like({data.data(), data.size()}, 0.0, 1.0f);  // dense
  const double eb = 1e-4;
  Config cfg;
  cfg.error_bound = eb;
  cfg.zero_mode = ZeroMode::kNone;
  Compressor comp(cfg);
  const auto recon = comp.decompress(comp.compress({data.data(), data.size()}));
  const auto errors = pointwise_errors({data.data(), data.size()},
                                       {recon.data(), recon.size()});
  const auto d = stats::diagnose({errors.data(), errors.size()});
  EXPECT_TRUE(stats::looks_uniform(d, eb, 0.2))
      << "kurtosis=" << d.excess_kurtosis << " sd=" << d.stddev;
}

// --- Output byte identity -----------------------------------------------------
//
// FNV-1a over the compressed bytes and the reconstruction of a seeded config
// sweep, over sz / lossless / jpeg-act / none streaming containers and over
// the floats streaming_decode_all reconstructs from each. The sz values
// (sweep, container, decoded) were recomputed when dual quantization
// replaced the float-chain predictor; the lossless, jpeg-act and none
// values predate the word-at-a-time Huffman I/O and pin its bytes.

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

std::uint64_t compress_sweep_hash() {
  tensor::Rng rng(2024);
  std::uint64_t h = kFnvBasis;
  const std::uint32_t radii[] = {2, 16, 512, 32768};
  const std::uint32_t block_sizes[] = {64, 1000, 4096, 65536};
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(20000);
    std::vector<float> data(n);
    rng.fill_relu_like({data.data(), n}, rng.uniform(),
                       static_cast<float>(std::pow(10.0, 2.0 * rng.uniform() - 1.0)));
    if (trial % 3 == 0) {  // huge-magnitude escapes of both signs
      for (int k = 0; k < 5; ++k)
        data[rng.uniform_index(n)] = (k % 2 ? -1e30f : 1e30f);
    }
    Config cfg;
    cfg.error_bound = std::pow(10.0, -1.0 - 4.0 * rng.uniform());
    cfg.bound_mode = trial % 7 == 0 ? BoundMode::kRelative : BoundMode::kAbsolute;
    cfg.radius = radii[rng.uniform_index(4)];
    cfg.block_size = block_sizes[rng.uniform_index(4)];
    // The sweep once also drew a per-call worker cap here and ran a
    // run-length zero mode on every third trial. Keeping the draw and
    // skipping those trials leaves every other trial's data and config as
    // they were, so the pin below is the old sweep minus those trials.
    static_cast<void>(rng.uniform_index(4));
    if (trial % 3 == 2) continue;
    cfg.zero_mode = static_cast<ZeroMode>(trial % 3);
    const Compressor comp(cfg);
    const auto buf = comp.compress({data.data(), n});
    h = fnv1a(h, buf.bytes.data(), buf.bytes.size());
    const auto recon = comp.decompress(buf);
    h = fnv1a(h, recon.data(), recon.size() * sizeof(float));
  }
  return h;
}

std::vector<std::uint8_t> golden_container(const std::string& spec) {
  tensor::Rng rng(2025);
  std::vector<float> payload(3 * 4096 + 123);
  rng.fill_relu_like({payload.data(), payload.size()}, 0.35, 1.0f);
  return nn::streaming_encode_all(core::CodecRegistry::instance().create(spec), spec,
                                  payload.data(), payload.size(), 4096);
}

std::uint64_t container_hash(const std::string& spec) {
  const auto bytes = golden_container(spec);
  return fnv1a(kFnvBasis, bytes.data(), bytes.size());
}

// Hash of the floats streaming_decode_all reconstructs from the container.
std::uint64_t decoded_hash(const std::string& spec) {
  const auto bytes = golden_container(spec);
  const auto floats = nn::streaming_decode_all(
      [](const std::string& s) { return core::CodecRegistry::instance().create(s); },
      bytes.data(), bytes.size());
  return fnv1a(kFnvBasis, floats.data(), floats.size() * sizeof(float));
}

TEST(Compressor, OutputBytesMatchGoldenHashes) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden bytes are those of x86-64 builds";
#endif
  // The SZ grid arithmetic is built without FMA contraction, and the data
  // generators are contraction-invariant, so these pins hold for portable
  // and -march=native builds alike.
  EXPECT_EQ(compress_sweep_hash(), 0xa299f2fcb79ff399ULL);
  EXPECT_EQ(container_hash("sz:eb=1e-3"), 0xf515f55989628253ULL);
  EXPECT_EQ(container_hash("lossless"), 0x9f5c4c5fd485e6fcULL);
  EXPECT_EQ(container_hash("none"), 0x5ad6cc574401c714ULL);
  EXPECT_EQ(decoded_hash("sz:eb=1e-3"), 0x56645c9cb3c2366cULL);
  EXPECT_EQ(decoded_hash("lossless"), 0x606703009a7e263dULL);
  EXPECT_EQ(decoded_hash("none"), 0x606703009a7e263dULL);
#if !defined(__FMA__)
  // jpeg-act's DCT is ordinary float code: contracted multiply-adds round
  // differently, so its pins are those of the portable build only.
  EXPECT_EQ(container_hash("jpeg-act:quality=50"), 0x3458281a4d31c710ULL);
  EXPECT_EQ(decoded_hash("jpeg-act:quality=50"), 0x3a6008e5db2a15cfULL);
#endif
}

TEST(Compressor, NonFiniteValuesRoundTripBitExactly) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<float>> inputs = {
      {0.5f, nan, 0.25f, 1.0f},
      {0.5f, inf, 0.25f, -inf, -inf, 1.0f, 0.0f},
      {nan, nan, 0.75f, 0.0f, 0.125f, inf, 0.3f}};
  // Relative mode takes its range over the finite values only, so an inf
  // element neither makes the bound infinite nor NaNs the rest.
  for (const auto bound : {BoundMode::kAbsolute, BoundMode::kRelative}) {
    for (const auto& data : inputs) {
      for (const auto mode : {ZeroMode::kNone, ZeroMode::kRezero}) {
        Config cfg;
        cfg.error_bound = 1e-3;
        cfg.bound_mode = bound;
        cfg.zero_mode = mode;
        const Compressor comp(cfg);
        const auto buf = comp.compress({data.data(), data.size()});
        const double eb = buf.abs_error_bound;
        ASSERT_TRUE(std::isfinite(eb)) << "bound mode " << static_cast<int>(bound);
        const auto recon = comp.decompress(buf);
        ASSERT_EQ(recon.size(), data.size());
        for (std::size_t i = 0; i < data.size(); ++i) {
          if (std::isfinite(data[i])) {
            EXPECT_LE(std::fabs(static_cast<double>(recon[i]) - data[i]), eb)
                << "element " << i << " mode " << static_cast<int>(mode) << " bound mode "
                << static_cast<int>(bound);
          } else {
            EXPECT_EQ(std::memcmp(&recon[i], &data[i], sizeof(float)), 0)
                << "element " << i << " mode " << static_cast<int>(mode) << " bound mode "
                << static_cast<int>(bound);
          }
        }
      }
    }
  }
}

TEST(Compressor, RadiusOutsideLimitsRejected) {
  Config too_big;
  too_big.radius = kMaxRadius + 1;
  EXPECT_THROW(Compressor{too_big}, std::invalid_argument);
  Config too_small;
  too_small.radius = 1;
  EXPECT_THROW(Compressor{too_small}, std::invalid_argument);

  // A stream whose header radius disagrees with its table, or exceeds the
  // cap, is rejected before the table sizes anything from it.
  std::vector<float> data(1000, 0.5f);
  Config cfg;
  cfg.radius = 512;
  const Compressor comp(cfg);
  const auto buf = comp.compress({data.data(), data.size()});
  std::vector<float> out(data.size());
  for (const std::uint32_t forged : {1024u, kMaxRadius + 1, 1u << 27}) {
    CompressedBuffer bad = buf;
    std::memcpy(bad.bytes.data() + 22, &forged, sizeof(forged));  // Header::radius
    EXPECT_THROW(comp.decompress(bad, {out.data(), out.size()}), std::runtime_error)
        << forged;
  }
}

TEST(Metrics, PsnrPerfectReconstruction) {
  std::vector<float> a{1, 2, 3}, b{1, 2, 3};
  EXPECT_DOUBLE_EQ(psnr({a.data(), 3}, {b.data(), 3}), 999.0);
}

TEST(Metrics, WithinBoundDetectsViolation) {
  std::vector<float> a{0.0f}, b{0.2f};
  EXPECT_FALSE(within_bound({a.data(), 1}, {b.data(), 1}, 0.1));
  EXPECT_TRUE(within_bound({a.data(), 1}, {b.data(), 1}, 0.3));
}

}  // namespace
}  // namespace ebct::sz
