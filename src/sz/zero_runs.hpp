#pragma once

/// \file zero_runs.hpp
/// The exact-zero side stream of the lossless codec. A span of floats becomes (a) varint run lengths that alternate
/// zero run, non-zero run, starting with a zero run that may be empty and
/// always ending on a non-zero run (0 after a final zero run), and (b) the
/// non-zero values packed in order. -0.0 counts as a zero.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sz/bitstream.hpp"

namespace ebct::sz {

/// Write `data`'s run lengths to `runs` and its non-zero values to
/// `packed` (replacing its contents).
inline void split_zero_runs(std::span<const float> data, BitWriter& runs,
                            std::vector<float>& packed) {
  const std::size_t n = data.size();
  packed.resize(n);
  // Branch-free over the elements: ReLU zeros fall at random, so a branch
  // on each element's zero-ness would mispredict about once per run.
  // `ends` collects, a chunk at a time, the index where each run stops; a
  // store whose slot does not advance is overwritten by the next one.
  constexpr std::size_t kChunk = 1024;
  std::array<std::size_t, kChunk> ends;
  std::size_t start = 0, nruns = 0, np = 0;
  bool in_zero_run = true;
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t m = std::min(kChunk, n - base);
    std::size_t k = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const float v = data[base + i];
      const bool zero = v == 0.0f;
      ends[k] = base + i;
      k += zero != in_zero_run;
      in_zero_run = zero;
      packed[np] = v;
      np += !zero;
    }
    for (std::size_t j = 0; j < k; ++j) {
      runs.put_varint(ends[j] - start);
      start = ends[j];
    }
    nruns += k;
  }
  packed.resize(np);
  if (n == 0) return;
  runs.put_varint(n - start);
  if (nruns % 2 == 0) runs.put_varint(0);  // the final zero run's empty partner
}

/// Inverse of split_zero_runs: fill `out` from the run stream and the
/// packed values. Throws std::runtime_error, naming `who`, when the runs
/// stop before `out` is full or claim more non-zero values than `packed`
/// holds.
inline void join_zero_runs(std::span<const std::uint8_t> runs, std::span<const float> packed,
                           std::span<float> out, const char* who) {
  BitReader r(runs);
  const std::size_t n = out.size();
  float* const dst = out.data();
  std::size_t oi = 0, pi = 0;
  // Runs of ReLU data are short. A run of up to kShort elements is written
  // as exactly kShort of them whenever the buffers have room, so the copy
  // loop's trip count, and its exit branch, do not depend on the data; the
  // elements past the run are rewritten by the runs that follow.
  constexpr std::size_t kShort = 8;
  while (oi < n) {
    const auto zeros = static_cast<std::size_t>(std::min<std::uint64_t>(r.get_varint(), n - oi));
    std::fill_n(dst + oi, zeros <= kShort && n - oi >= kShort ? kShort : zeros, 0.0f);
    oi += zeros;
    if (oi == n) break;
    const std::uint64_t nonzeros = r.get_varint();
    // A valid stream never emits a (0, 0) pair while elements remain; an
    // exhausted (or forged) run stream yields exactly that forever.
    if (zeros == 0 && nonzeros == 0)
      throw std::runtime_error(std::string(who) + ": empty run pair before numel reached");
    const auto take = static_cast<std::size_t>(std::min<std::uint64_t>(nonzeros, n - oi));
    if (take > packed.size() - pi)
      throw std::runtime_error(std::string(who) + ": nonzero runs exceed packed count");
    const bool short_copy = take <= kShort && n - oi >= kShort && packed.size() - pi >= kShort;
    std::copy_n(packed.data() + pi, short_copy ? kShort : take, dst + oi);
    oi += take;
    pi += take;
  }
}

}  // namespace ebct::sz
