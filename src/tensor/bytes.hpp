#pragma once

/// \file bytes.hpp
/// Byte-vector serialisation helpers shared by the on-disk and on-wire
/// formats (EBCS containers, serve frames).
///
/// append_bytes is deliberately the resize+memcpy form rather than
/// vector::insert: GCC 12's -Wstringop-overflow/-Wrestrict false-positives
/// on the insert form once it inlines into serializers.

#include <cstdint>
#include <cstring>
#include <vector>

namespace ebct::tensor {

inline void append_bytes(std::vector<std::uint8_t>& dst, const void* src, std::size_t n) {
  if (n == 0) return;
  const std::size_t old = dst.size();
  dst.resize(old + n);
  std::memcpy(dst.data() + old, src, n);
}

// Little-endian fixed-width integers, independent of the host byte order.

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}
inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}
inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}
inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}
inline std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}
inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
  return v;
}

}  // namespace ebct::tensor
