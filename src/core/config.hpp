#pragma once

/// \file config.hpp
/// Framework-wide constants and tunables of the adaptive compression scheme,
/// named after the symbols in the paper.

#include <cstddef>
#include <string>

#include "sz/compressor.hpp"

namespace ebct::core {

struct FrameworkConfig {
  /// Activation codec spec, resolved through the CodecRegistry
  /// (core/codec_registry.hpp): "<name>[:<params>]", e.g. "sz",
  /// "sz:eb=1e-3", "lossless", "jpeg-act:quality=50", or a per-layer
  /// "policy:*conv*=sz;*=lossless". One sentinel is handled by the
  /// session rather than the registry: "none" — raw activations, no pager
  /// (the stock-framework baseline).
  /// Env override: EBCT_CODEC replaces any registry spec with another
  /// registry spec (or "none" to force the raw baseline). It never
  /// overrides a configured "none", which selects a store topology, not a
  /// codec. Unset codec parameters inherit the fields below
  /// (bootstrap_error_bound, zero_mode).
  std::string codec = "sz";

  /// Empirical coefficient `a` in sigma ≈ a * L̄ * sqrt(N*R) * eb (Eq. 6).
  /// The paper calibrates 0.32 (≈ 1/3 = stddev of U(-1,1) at N=1).
  double coefficient_a = 0.32;

  /// Acceptable gradient-error scale as a fraction of the mean |momentum|
  /// (Eq. 8). The paper selects 1% after the Fig. 9 sweep.
  double sigma_fraction = 0.01;

  /// Active factor W: semi-online parameters (L̄, R, M̄) are re-collected
  /// every W iterations (§4.1; paper default 1000).
  std::size_t active_factor_w = 1000;

  /// Safety clamps on the derived absolute error bound.
  double min_error_bound = 1e-7;
  double max_error_bound = 1e-1;

  /// Error bound used for a layer before its first statistics collection.
  double bootstrap_error_bound = 1e-4;

  /// Zero handling in the compressor (§4.4; the paper uses the re-zero
  /// decompression filter).
  sz::ZeroMode zero_mode = sz::ZeroMode::kRezero;

  /// Pipeline compression off the critical path: stash() enqueues the raw
  /// activation and returns, the encode runs as a task on the shared
  /// work-stealing pool while the next layer's forward computes (the
  /// paper's overlap of encode with compute, ported to the CPU substrate).
  bool async_compression = false;

  /// Bounded in-flight window for the async path; 2 = double buffering. The
  /// forward pass blocks once this many raw activations await encode, so
  /// memory stays budgeted even when compute outruns the compressor.
  std::size_t async_queue_depth = 2;

  /// Hard RAM budget (bytes) over the activation pager's resident tiers
  /// (raw + compressed). 0 = unlimited. When set, the pager evicts
  /// least-soon-needed pages to the disk spill tier and also claims the
  /// layers' byte-exact saved-for-backward state, so the whole stash obeys
  /// one budget. Training is byte-identical at any budget (see
  /// memory/pager.hpp). Env override: EBCT_MEMORY_BUDGET_BYTES.
  std::size_t memory_budget_bytes = 0;

  /// Directory for the pager's spill file; empty = the system temp
  /// directory. Env override: EBCT_SPILL_DIR.
  std::string spill_dir;

  /// Backward-pass prefetch window: while layer k+1's gradient computes,
  /// the pager fetches (disk read + decompress, on the pool) up to this
  /// many upcoming activations. Env override: EBCT_PREFETCH_DEPTH.
  std::size_t prefetch_depth = 2;

  /// Write-behind spill queue: when the pager must evict under a RAM
  /// budget, the disk write is issued as a pool task and compute continues;
  /// the budget accounting counts not-yet-written blobs as still resident
  /// and a fixed window of four in-flight writes (memory/pager.cpp) caps
  /// the in-flight bytes, so the budget is never exceeded. Eviction choice and counters
  /// are identical to the synchronous path. Default-on since the PR 10
  /// soak (tests/test_pager.cpp WriteBehindSoak: many iterations at tight
  /// budgets plus injected write failures, bitwise equal to synchronous
  /// and leak-free); the env stays as the opt-out. Env override:
  /// EBCT_WRITE_BEHIND (strictly "0" or "1").
  bool write_behind = true;
};

}  // namespace ebct::core
