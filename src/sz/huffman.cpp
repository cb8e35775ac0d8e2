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
  alphabet_ = alphabet;
  coded_.assign(symbols.begin(), symbols.end());
  coded_len_.resize(coded_.size());
  for (std::size_t i = 0; i < coded_.size(); ++i)
    coded_len_[i] = static_cast<std::uint8_t>(depth[i]);
  assign_encode();
}

unsigned HuffmanCodec::code_length(std::uint32_t symbol) const {
  const auto it = std::lower_bound(coded_.begin(), coded_.end(), symbol);
  return it != coded_.end() && *it == symbol ? coded_len_[it - coded_.begin()] : 0;
}

void HuffmanCodec::assign_lengths() {
  unsigned max_len = 0;
  for (const std::uint8_t len : coded_len_) max_len = std::max<unsigned>(max_len, len);
  count_.assign(max_len + 1, 0);
  for (const std::uint8_t len : coded_len_) ++count_[len];
  first_code_.assign(max_len + 1, 0);
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= max_len; ++len) {
    first_code_[len] = code;
    code = (code + count_[len]) << 1;
  }
}

void HuffmanCodec::assign_encode() {
  assign_lengths();
  lut_.clear();
  lut_bits_ = 0;  // decode() on a table built here fails closed
  // Symbols sorted by (length, symbol) get consecutive canonical codes;
  // coded_ ascends, so each length's codes go out in symbol order.
  std::vector<std::uint32_t> next = first_code_;
  enc_base_ = coded_.empty() ? 0 : coded_.front();
  enc_.assign(coded_.empty() ? 0 : coded_.back() - enc_base_ + 1, Code{});
  for (std::size_t i = 0; i < coded_.size(); ++i) {
    const unsigned len = coded_len_[i];
    enc_[coded_[i] - enc_base_] = {next[len]++, len};
  }
}

void HuffmanCodec::assign_decode() {
  assign_lengths();
  enc_.clear();  // encode() on a parsed table fails closed
  const unsigned max_len = static_cast<unsigned>(count_.size()) - 1;
  offset_.assign(max_len + 1, 0);
  std::uint32_t off = 0;
  for (unsigned len = 1; len <= max_len; ++len) {
    offset_[len] = off;
    off += count_[len];
  }
  // Symbols sorted by (length, symbol) get consecutive canonical codes.
  std::vector<std::uint32_t> next = first_code_;
  sorted_symbols_.assign(off, 0);
  for (std::size_t i = 0; i < coded_.size(); ++i) {
    const unsigned len = coded_len_[i];
    sorted_symbols_[offset_[len] + (next[len]++ - first_code_[len])] = coded_[i];
  }

  // Decode LUT: every lut_bits_ window whose prefix is a code of length
  // l <= lut_bits_ maps straight to (symbol, l); windows left at len 0
  // belong to longer codes and fall through to the canonical scan.
  lut_bits_ = std::min<unsigned>(kLutBits, max_len);
  lut_.assign(lut_bits_ > 0 ? (std::size_t{1} << lut_bits_) : 0, LutEntry{});
  std::uint32_t k = 0;  // index into sorted_symbols_: codes in canonical order
  for (unsigned len = 1; len <= lut_bits_; ++len) {
    for (std::uint32_t j = 0; j < count_[len]; ++j, ++k) {
      const std::size_t base = std::size_t{first_code_[len] + j} << (lut_bits_ - len);
      const std::size_t span = std::size_t{1} << (lut_bits_ - len);
      for (std::size_t w = 0; w < span; ++w)
        lut_[base + w] = {sorted_symbols_[k], static_cast<std::uint8_t>(len)};
    }
  }
}

std::vector<std::uint8_t> HuffmanCodec::encode(std::span<const std::uint32_t> symbols) const {
  // The bytes are BitWriter's, but the state lives in locals: a BitWriter
  // member would be reloaded after every byte store, which may alias it.
  // The word at `dst` is always stored and `dst` advances once it is full,
  // so the buffer holds every full word plus one.
  const std::size_t max_len = count_.empty() ? 0 : count_.size() - 1;
  std::vector<std::uint8_t> out((symbols.size() * max_len + 31) / 32 * 4 + 4);
  std::uint8_t* dst = out.data();
  std::uint64_t acc = 0;
  unsigned fill = 0;  // live bits in acc, < 32 between symbols
  const Code* table = enc_.data();
  for (const std::uint32_t s : symbols) {
    const std::size_t i = s - std::size_t{enc_base_};
    if (s < enc_base_ || i >= enc_.size() || table[i].len == 0)
      throw std::logic_error("HuffmanCodec::encode: symbol has no code");
    acc = (acc << table[i].len) | table[i].bits;
    fill += table[i].len;
    const bool full = fill >= 32;
    fill -= full ? 32 : 0;
    detail::store_be32(dst, static_cast<std::uint32_t>(acc >> fill));
    dst += full ? 4 : 0;
  }
  detail::store_be32(dst, static_cast<std::uint32_t>(acc << (32 - fill)));  // zero-padded tail
  out.resize(static_cast<std::size_t>(dst - out.data()) + (fill + 7) / 8);
  return out;
}

HuffmanCodec::LutEntry HuffmanCodec::decode_slow(std::uint64_t w) const {
  const unsigned max_len = static_cast<unsigned>(count_.size()) - 1;
  for (unsigned len = lut_bits_ + 1; len <= max_len; ++len) {
    const auto code = static_cast<std::uint32_t>(w >> (64 - len));
    if (count_[len] > 0 && code >= first_code_[len] && code - first_code_[len] < count_[len])
      return {sorted_symbols_[offset_[len] + (code - first_code_[len])],
              static_cast<std::uint8_t>(len)};
  }
  throw std::runtime_error("HuffmanCodec::decode: corrupt stream");
}

std::vector<std::uint32_t> HuffmanCodec::decode(std::span<const std::uint8_t> bytes,
                                                std::size_t count) const {
  if (count == 0) return {};
  if (lut_bits_ == 0) throw std::runtime_error("HuffmanCodec::decode: no code table");
  std::vector<std::uint32_t> out(count);
  BitReader r(bytes);
  const LutEntry* lut = lut_.data();
  const unsigned top = 64 - lut_bits_;
  // One refill stages at least 56 bits, enough for this many codes of the
  // longest length: the table loads, not the refills, set the pace.
  const std::size_t per_refill = 56 / (count_.size() - 1);
  for (std::size_t i = 0; i < count;) {
    r.refill();
    const std::size_t end = std::min(count, i + per_refill);
    for (; i < end; ++i) {
      const std::uint64_t w = r.window();
      LutEntry e = lut[w >> top];
      if (e.len == 0) e = decode_slow(w);
      out[i] = e.symbol;
      r.skip(e.len);
    }
  }
  return out;
}

std::vector<std::uint8_t> HuffmanCodec::serialize_table() const {
  // Varint alphabet size, then the run-length-encoded lengths (value, run)
  // of every symbol. Runs are maximal, so the stretch before, between and
  // after coded symbols is one zero run, and contiguous coded symbols of
  // equal length share a run.
  BitWriter w;
  w.put_varint(alphabet_);
  std::size_t pos = 0;  // first symbol not yet emitted
  for (std::size_t i = 0; i < coded_.size();) {
    const std::uint32_t s = coded_[i];
    if (s > pos) {
      w.put_varint(0);
      w.put_varint(s - pos);
    }
    std::size_t j = i + 1;
    while (j < coded_.size() && coded_[j] == coded_[j - 1] + 1 && coded_len_[j] == coded_len_[i])
      ++j;
    w.put_varint(coded_len_[i]);
    w.put_varint(j - i);
    pos = std::size_t{coded_[j - 1]} + 1;
    i = j;
  }
  if (pos < alphabet_) {
    w.put_varint(0);
    w.put_varint(alphabet_ - pos);
  }
  return w.finish();
}

void HuffmanCodec::deserialize_table(std::span<const std::uint8_t> bytes, std::size_t alphabet) {
  BitReader r(bytes);
  // The alphabet sizes every table below; the caller knows what it must
  // be, so a forged one never reaches an allocation.
  if (r.get_varint() != alphabet)
    throw std::runtime_error("Huffman table: unexpected alphabet size");
  alphabet_ = alphabet;
  coded_.clear();
  coded_len_.clear();
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
        coded_.push_back(static_cast<std::uint32_t>(i + k));
        coded_len_.push_back(len);
      }
    }
    i += static_cast<std::size_t>(run);
  }
  assign_decode();
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
