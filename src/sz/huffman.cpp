#include "sz/huffman.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sz/bitstream.hpp"

namespace ebct::sz {

namespace {

/// Huffman tree depths of the leaves `freqs` (all > 0). Node ids: leaf i is
/// i, the j-th merge creates k + j. `depth` receives every node's depth
/// (leaves first); returns the deepest leaf.
///
/// This is the two-queue construction. Leaves sorted by (freq, id) form one
/// queue; merged nodes form the other in creation order, which is also
/// (freq, id) order because merge sums never decrease. Taking the smaller
/// front by (freq, id) therefore pops exactly what a min-heap of
/// (freq, id) pairs would, so the tree matches the heap builder's.
unsigned tree_depths(std::span<const std::uint64_t> freqs, std::vector<std::uint32_t>& depth) {
  const std::size_t k = freqs.size();
  if (k <= 1) {
    depth.assign(k, 1);
    return static_cast<unsigned>(k);
  }
  // Leaves in (freq, id) order: a stable LSD radix sort on the frequency,
  // one pass per byte in use, keeps equal frequencies in id order.
  std::vector<std::uint32_t> order(k), scratch(k);
  for (std::uint32_t i = 0; i < k; ++i) order[i] = i;
  const std::uint64_t max_freq = *std::max_element(freqs.begin(), freqs.end());
  for (unsigned shift = 0; shift < 64 && (max_freq >> shift) != 0; shift += 8) {
    std::size_t start[257] = {};
    for (const std::uint32_t id : order) ++start[((freqs[id] >> shift) & 0xff) + 1];
    for (std::size_t d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (const std::uint32_t id : order) scratch[start[(freqs[id] >> shift) & 0xff]++] = id;
    order.swap(scratch);
  }

  // depth[] first holds each node's parent; the root is the last node.
  depth.assign(2 * k - 1, 0);
  std::vector<std::uint64_t> merged;  // frequencies of nodes k, k+1, ...
  merged.reserve(k - 1);
  std::size_t leaf = 0, next = 0;
  auto pop = [&](std::uint64_t& f) -> std::size_t {
    // On equal frequency the leaf wins: its id is below every merged id.
    if (leaf < k && (next == merged.size() || freqs[order[leaf]] <= merged[next])) {
      f = freqs[order[leaf]];
      return order[leaf++];
    }
    f = merged[next];
    return k + next++;
  };
  for (std::size_t j = 0; j + 1 < k; ++j) {
    std::uint64_t fa = 0, fb = 0;
    const std::size_t a = pop(fa);
    const std::size_t b = pop(fb);
    depth[a] = depth[b] = static_cast<std::uint32_t>(k + j);
    merged.push_back(fa + fb);
  }
  // A parent's id exceeds its children's, so one reverse pass turns each
  // parent link into a depth before any child reads it.
  depth[2 * k - 2] = 0;
  unsigned max_depth = 0;
  for (std::size_t n = 2 * k - 2; n-- > 0;) {
    depth[n] = depth[depth[n]] + 1;
    if (n < k) max_depth = std::max(max_depth, depth[n]);
  }
  return max_depth;
}

}  // namespace

void HuffmanCodec::build(std::span<const std::uint64_t> freqs) {
  std::vector<std::uint32_t> symbols;
  std::vector<std::uint64_t> counts;
  for (std::uint32_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] > 0) {
      symbols.push_back(s);
      counts.push_back(freqs[s]);
    }
  }
  build_sparse(symbols, counts, freqs.size());
}

void HuffmanCodec::build_sparse(std::span<const std::uint32_t> symbols,
                                std::span<const std::uint64_t> freqs, std::size_t alphabet) {
  if (symbols.size() != freqs.size())
    throw std::invalid_argument("HuffmanCodec::build_sparse: symbols/freqs size mismatch");
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    if (symbols[i] >= alphabet || (i > 0 && symbols[i] <= symbols[i - 1]) || freqs[i] == 0)
      throw std::invalid_argument(
          "HuffmanCodec::build_sparse: symbols must ascend within the alphabet, counts > 0");
  }
  std::vector<std::uint64_t> f(freqs.begin(), freqs.end());
  std::vector<std::uint32_t> depth;
  unsigned max_depth = tree_depths(f, depth);
  // Flatten extreme skew until the canonical code fits in kMaxCodeLen bits.
  while (max_depth > kMaxCodeLen) {
    for (auto& v : f) v = (v + 1) / 2;
    max_depth = tree_depths(f, depth);
  }
  coded_.assign(symbols.begin(), symbols.end());
  lengths_.assign(alphabet, 0);
  for (std::size_t i = 0; i < coded_.size(); ++i)
    lengths_[coded_[i]] = static_cast<std::uint8_t>(depth[i]);
  assign_canonical();
}

void HuffmanCodec::assign_canonical() {
  unsigned max_len = 0;
  for (const std::uint32_t s : coded_) max_len = std::max<unsigned>(max_len, lengths_[s]);
  count_.assign(max_len + 1, 0);
  for (const std::uint32_t s : coded_) ++count_[lengths_[s]];

  first_code_.assign(max_len + 1, 0);
  offset_.assign(max_len + 1, 0);
  std::uint32_t code = 0;
  std::uint32_t off = 0;
  for (unsigned len = 1; len <= max_len; ++len) {
    first_code_[len] = code;
    offset_[len] = off;
    code = (code + count_[len]) << 1;
    off += count_[len];
  }
  // Symbols sorted by (length, symbol) get consecutive canonical codes.
  codes_ = std::make_unique_for_overwrite<std::uint32_t[]>(lengths_.size());
  std::vector<std::uint32_t> next = first_code_;
  sorted_symbols_.assign(off, 0);
  for (const std::uint32_t s : coded_) {
    const unsigned len = lengths_[s];
    sorted_symbols_[offset_[len] + (next[len] - first_code_[len])] = s;
    codes_[s] = next[len]++;
  }

  // Decode LUT: every lut_bits_ window whose prefix is a code of length
  // l <= lut_bits_ maps straight to (symbol, l); windows left at len 0
  // belong to longer codes and fall through to the canonical scan.
  lut_bits_ = std::min<unsigned>(kLutBits, max_len);
  lut_.assign(lut_bits_ > 0 ? (std::size_t{1} << lut_bits_) : 0, LutEntry{});
  for (const std::uint32_t s : coded_) {
    const unsigned len = lengths_[s];
    if (len > lut_bits_) continue;
    const std::size_t base = std::size_t{codes_[s]} << (lut_bits_ - len);
    const std::size_t span = std::size_t{1} << (lut_bits_ - len);
    for (std::size_t w = 0; w < span; ++w)
      lut_[base + w] = {s, static_cast<std::uint8_t>(len)};
  }
}

std::vector<std::uint8_t> HuffmanCodec::encode(std::span<const std::uint32_t> symbols) const {
  BitWriter w;
  for (std::uint32_t s : symbols) {
    const unsigned len = code_length(s);
    if (len == 0) throw std::logic_error("HuffmanCodec::encode: symbol has no code");
    w.put(codes_[s], len);
  }
  return w.finish();
}

std::vector<std::uint32_t> HuffmanCodec::decode(std::span<const std::uint8_t> bytes,
                                                std::size_t count) const {
  std::vector<std::uint32_t> out;
  out.reserve(count);
  if (count > 0 && count_.empty())
    throw std::runtime_error("HuffmanCodec::decode: no code table");
  BitReader r(bytes);
  const unsigned max_len = static_cast<unsigned>(count_.size()) - 1;
  for (std::size_t i = 0; i < count; ++i) {
    // Fast path: one lut_bits_ peek resolves every code of that length or
    // shorter with a single table load.
    if (lut_bits_ > 0) {
      const LutEntry e = lut_[r.peek(lut_bits_)];
      if (e.len != 0) {
        r.skip(e.len);
        out.push_back(e.symbol);
        continue;
      }
    }
    // Slow path (codes longer than lut_bits_, or an empty table): peek the
    // maximal window once and scan the canonical first-code ranges.
    const std::uint32_t window = r.peek(max_len);
    unsigned len = lut_bits_ + 1;
    for (; len <= max_len; ++len) {
      const std::uint32_t code = window >> (max_len - len);
      if (count_[len] > 0 && code >= first_code_[len] &&
          code - first_code_[len] < count_[len]) {
        out.push_back(sorted_symbols_[offset_[len] + (code - first_code_[len])]);
        r.skip(len);
        break;
      }
    }
    if (len > max_len) throw std::runtime_error("HuffmanCodec::decode: corrupt stream");
  }
  return out;
}

std::vector<std::uint8_t> HuffmanCodec::serialize_table() const {
  // Varint alphabet size, then the run-length-encoded lengths (value, run)
  // of every symbol. Runs are maximal, so the stretch before, between and
  // after coded symbols is one zero run, and contiguous coded symbols of
  // equal length share a run.
  BitWriter w;
  w.put_varint(lengths_.size());
  std::size_t pos = 0;  // first symbol not yet emitted
  for (std::size_t i = 0; i < coded_.size();) {
    const std::uint32_t s = coded_[i];
    if (s > pos) {
      w.put_varint(0);
      w.put_varint(s - pos);
    }
    std::size_t j = i + 1;
    while (j < coded_.size() && coded_[j] == coded_[j - 1] + 1 &&
           lengths_[coded_[j]] == lengths_[s])
      ++j;
    w.put_varint(lengths_[s]);
    w.put_varint(j - i);
    pos = std::size_t{coded_[j - 1]} + 1;
    i = j;
  }
  if (pos < lengths_.size()) {
    w.put_varint(0);
    w.put_varint(lengths_.size() - pos);
  }
  return w.finish();
}

void HuffmanCodec::deserialize_table(std::span<const std::uint8_t> bytes, std::size_t alphabet) {
  BitReader r(bytes);
  // The alphabet sizes every table below; the caller knows what it must
  // be, so a forged one never reaches an allocation.
  if (r.get_varint() != alphabet)
    throw std::runtime_error("Huffman table: unexpected alphabet size");
  lengths_.assign(alphabet, 0);
  coded_.clear();
  // Kraft inequality: sum of 2^-len over coded symbols must not exceed 1,
  // or the lengths are not a prefix code and canonical code assignment
  // (and the decode-LUT fill) would run past its tables. build() always
  // satisfies this; serialized bytes are disk/attacker-controlled.
  std::uint64_t kraft = 0;  // in units of 2^-kMaxCodeLen
  std::size_t i = 0;
  while (i < alphabet) {
    const std::uint64_t raw_len = r.get_varint();
    // The decoder's peek window and canonical shifts assume lengths fit in
    // 32 bits; build() guarantees that, so anything longer is corruption.
    if (raw_len > kMaxCodeLen) throw std::runtime_error("Huffman table: code length > 32");
    const auto len = static_cast<std::uint8_t>(raw_len);
    const std::uint64_t run = r.get_varint();
    // serialize_table() never emits an empty run; an exhausted reader
    // yields one forever, so it must not loop.
    if (run == 0 || run > alphabet - i)
      throw std::runtime_error("Huffman table: corrupt run length");
    if (len > 0) {
      // kraft <= 2^kMaxCodeLen holds on entry, so the room cannot wrap.
      const std::uint64_t room = ((std::uint64_t{1} << kMaxCodeLen) - kraft) >> (kMaxCodeLen - len);
      if (run > room) throw std::runtime_error("Huffman table: not a prefix code");
      kraft += run << (kMaxCodeLen - len);
      for (std::size_t k = 0; k < run; ++k) {
        lengths_[i + k] = len;
        coded_.push_back(static_cast<std::uint32_t>(i + k));
      }
    }
    i += static_cast<std::size_t>(run);
  }
  assign_canonical();
}

double HuffmanCodec::entropy_bits(std::span<const std::uint64_t> freqs) {
  std::uint64_t total = 0;
  for (auto f : freqs) total += f;
  if (total == 0) return 0.0;
  double bits = 0.0;
  for (auto f : freqs) {
    if (f == 0) continue;
    const double p = static_cast<double>(f) / static_cast<double>(total);
    bits += -static_cast<double>(f) * std::log2(p);
  }
  return bits;
}

}  // namespace ebct::sz
