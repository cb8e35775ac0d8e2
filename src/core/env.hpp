#pragma once

/// \file env.hpp
/// Strict parsers for size/count/number options and EBCT_* environment
/// variables.
/// Dependency-free so every layer (tensor/, obs/, core/, serve/) reads its
/// variables through one contract: a set-but-malformed value throws
/// std::invalid_argument naming the variable, and an empty value means
/// unset.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace ebct::core {

/// Strict parse of a size or count option (an env var or a CLI flag value):
/// decimal digits only, fully consumed, no overflow. A malformed value must
/// fail loudly, not silently parse to something else: strtoull alone would
/// wrap "-1" to 2^64-1 (for a budget, *unlimited*) and accept "+5" or " 5".
/// Throws std::invalid_argument naming `name`.
inline std::size_t parse_size(const char* name, const char* value) {
  bool digits_only = value[0] != '\0';
  for (const char* c = value; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') digits_only = false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (!digits_only || *end != '\0' || errno != 0) {
    throw std::invalid_argument(std::string(name) + ": expected a non-negative integer, got '" +
                                value + "'");
  }
  return static_cast<std::size_t>(v);
}

/// Strict parse of a real-valued option (a CLI value, a codec parameter):
/// the whole string must parse to a finite number — no leading space, no
/// trailing junk, no inf/nan, no overflow or underflow. Throws
/// std::invalid_argument naming `name`.
inline double parse_double(const std::string& name, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(value.c_str(), &end);
  if (value.empty() || std::isspace(static_cast<unsigned char>(value[0])) != 0 ||
      end != value.c_str() + value.size() || errno != 0 || !std::isfinite(d)) {
    throw std::invalid_argument(name + ": expected a finite number, got '" + value + "'");
  }
  return d;
}

/// Size env var: `fallback` when unset or empty, else parse_size.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return parse_size(name, v);
}

/// Count env var that must be positive when set (a pool size, a ring
/// capacity): like env_size, but an explicit 0 throws too. `fallback` must
/// be positive.
inline std::size_t env_count(const char* name, std::size_t fallback) {
  const std::size_t n = env_size(name, fallback);
  if (n == 0) {
    throw std::invalid_argument(std::string(name) + ": expected a positive integer, got '0'");
  }
  return n;
}

/// Boolean env var: only "0" and "1" are accepted — "true", "yes" or a typo
/// silently meaning "off" would be the same failure mode parse_size guards
/// against.
inline bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  if (v[0] == '1' && v[1] == '\0') return true;
  if (v[0] == '0' && v[1] == '\0') return false;
  throw std::invalid_argument(std::string(name) + ": expected 0 or 1, got '" + v + "'");
}

}  // namespace ebct::core
