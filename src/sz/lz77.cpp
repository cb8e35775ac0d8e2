#include "sz/lz77.hpp"

#include <cstring>
#include <stdexcept>

#include "sz/bitstream.hpp"
#include "sz/huffman.hpp"
#include "tensor/bytes.hpp"

namespace ebct::sz {

namespace {

// Token alphabet: 0..255 literals, 256 = end-of-block, 257.. = match lengths
// bucketed as in deflate (here simplified: length stored as varint after a
// single MATCH symbol, distance as varint — simpler than deflate's extra-bit
// tables but with the same asymptotics).
constexpr std::uint32_t kEob = 256;
constexpr std::uint32_t kMatch = 257;
constexpr std::uint32_t kAlphabet = 258;

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 255 + kMinMatch;
constexpr std::size_t kWindow = 1 << 16;
constexpr std::size_t kHashBits = 15;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

struct Token {
  std::uint32_t symbol;  // literal byte, kEob or kMatch
  std::uint32_t length = 0;
  std::uint32_t distance = 0;
};

}  // namespace

std::vector<std::uint8_t> lz77_compress(std::span<const std::uint8_t> input) {
  // Pass 1: tokenize with a hash-head + chain matcher.
  std::vector<Token> tokens;
  tokens.reserve(input.size() / 2 + 16);
  std::vector<std::int64_t> head(1u << kHashBits, -1);
  std::vector<std::int64_t> prev(input.size(), -1);

  std::size_t i = 0;
  while (i < input.size()) {
    std::size_t best_len = 0, best_dist = 0;
    if (i + kMinMatch <= input.size()) {
      const std::uint32_t h = hash4(&input[i]);
      std::int64_t cand = head[h];
      int chain = 32;  // bounded chain walk keeps compression O(n)
      while (cand >= 0 && chain-- > 0 &&
             i - static_cast<std::size_t>(cand) <= kWindow) {
        const std::size_t c = static_cast<std::size_t>(cand);
        std::size_t len = 0;
        const std::size_t max_len = std::min(kMaxMatch, input.size() - i);
        while (len < max_len && input[c + len] == input[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - c;
          if (len == max_len) break;
        }
        cand = prev[c];
      }
      head[h] = static_cast<std::int64_t>(i);
      prev[i] = cand;  // note: approximate chain (head before update)
    }
    if (best_len >= kMinMatch) {
      tokens.push_back({kMatch, static_cast<std::uint32_t>(best_len),
                        static_cast<std::uint32_t>(best_dist)});
      // Insert hash entries for the skipped positions so later matches can
      // reference them.
      const std::size_t end = std::min(i + best_len, input.size() - kMinMatch);
      for (std::size_t j = i + 1; j < end; ++j) {
        const std::uint32_t h = hash4(&input[j]);
        prev[j] = head[h];
        head[h] = static_cast<std::int64_t>(j);
      }
      i += best_len;
    } else {
      tokens.push_back({input[i]});
      ++i;
    }
  }
  tokens.push_back({kEob});

  // Pass 2: Huffman-code the symbols; lengths/distances ride as varints.
  std::vector<std::uint64_t> freqs(kAlphabet, 0);
  for (const Token& t : tokens) ++freqs[t.symbol];
  HuffmanCodec codec;
  codec.build(freqs);
  const auto table = codec.serialize_table();

  // Symbols go through one Huffman stream; match lengths/distances ride in a
  // side varint stream (simpler than deflate's extra-bit tables, same
  // asymptotics).
  std::vector<std::uint32_t> symbols;
  symbols.reserve(tokens.size());
  BitWriter side;
  for (const Token& t : tokens) {
    symbols.push_back(t.symbol);
    if (t.symbol == kMatch) {
      side.put_varint(t.length - kMinMatch);
      side.put_varint(t.distance);
    }
  }
  const auto sym_bytes = codec.encode(symbols);
  const auto side_bytes = side.finish();

  std::vector<std::uint8_t> out;
  auto put_u64 = [&out](std::uint64_t v) { tensor::append_bytes(out, &v, 8); };
  put_u64(input.size());
  put_u64(tokens.size());
  put_u64(table.size());
  put_u64(sym_bytes.size());
  put_u64(side_bytes.size());
  out.insert(out.end(), table.begin(), table.end());
  out.insert(out.end(), sym_bytes.begin(), sym_bytes.end());
  out.insert(out.end(), side_bytes.begin(), side_bytes.end());
  return out;
}

std::vector<std::uint8_t> lz77_decompress(std::span<const std::uint8_t> input) {
  if (input.size() < 40) throw std::runtime_error("lz77: truncated header");
  const std::uint8_t* p = input.data();
  auto get_u64 = [&p]() {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  };
  const std::uint64_t raw_size = get_u64();
  const std::uint64_t token_count = get_u64();
  const std::uint64_t table_size = get_u64();
  const std::uint64_t sym_size = get_u64();
  const std::uint64_t side_size = get_u64();
  if (static_cast<std::size_t>(40 + table_size + sym_size + side_size) > input.size())
    throw std::runtime_error("lz77: truncated body");

  HuffmanCodec codec;
  codec.deserialize_table({p, static_cast<std::size_t>(table_size)}, kAlphabet);
  p += table_size;
  const auto symbols = codec.decode({p, static_cast<std::size_t>(sym_size)},
                                    static_cast<std::size_t>(token_count));
  p += sym_size;
  BitReader side({p, static_cast<std::size_t>(side_size)});

  std::vector<std::uint8_t> out;
  out.reserve(raw_size);
  for (std::uint32_t sym : symbols) {
    if (sym < 256) {
      out.push_back(static_cast<std::uint8_t>(sym));
    } else if (sym == kEob) {
      break;
    } else {  // kMatch
      const std::size_t length = static_cast<std::size_t>(side.get_varint()) + kMinMatch;
      const std::size_t distance = static_cast<std::size_t>(side.get_varint());
      if (distance == 0 || distance > out.size())
        throw std::runtime_error("lz77: bad distance");
      // Byte-by-byte copy handles overlapping matches (run-length idiom).
      const std::size_t start = out.size() - distance;
      for (std::size_t k = 0; k < length; ++k) out.push_back(out[start + k]);
    }
  }
  if (out.size() != raw_size) throw std::runtime_error("lz77: size mismatch");
  return out;
}

}  // namespace ebct::sz
