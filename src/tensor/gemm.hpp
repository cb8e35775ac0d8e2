#pragma once

/// \file gemm.hpp
/// Blocking geometry, kernel dispatch and diagnostics for the blocked GEMM
/// engine (gemm.cpp). The public entry points (gemm / gemm_at / gemm_bt)
/// live in ops.hpp; this header exposes the scheduling plan so tests and
/// the perf-smoke harness can assert the engine's decisions — most
/// importantly that conv-shaped problems (small m, large n) take the
/// parallel 2D-tiled path instead of silently running serial — and the
/// SIMD level the micro-kernel dispatches to.
///
/// The micro-kernel exists once per SIMD level: a portable C++ kernel
/// (auto-vectorised at the build's baseline flags) and, on x86-64, AVX2+FMA
/// and AVX-512 kernels written with intrinsics under per-function target
/// attributes, so the default portable build still runs at the host's full
/// SIMD width. The level is chosen once per process from the CPU's feature
/// flags (the best one it supports). Results are bitwise identical across
/// thread counts within one level; across levels they may differ in the
/// last bits (the portable kernel rounds each multiply and add, the x86
/// kernels fuse them).

#include <cstddef>

namespace ebct::tensor {

/// SIMD level of the GEMM micro-kernel, in increasing width.
enum class GemmIsa : int { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kNumGemmIsas = 3;

/// BLIS-style cache blocking, shared by every kernel. One (Mc x Nc) tile of
/// C is one parallel task; inside a task the k dimension is swept in Kc
/// slabs through packed panels, and the level's Mr x Nr register-blocked
/// micro-kernel (gemm_kernel_shape) does the flops. Every kernel's Mr
/// divides kMc and its Nr divides kNc.
struct GemmBlocking {
  static constexpr std::size_t kMc = 96;   ///< C-tile rows
  static constexpr std::size_t kNc = 160;  ///< C-tile cols
  static constexpr std::size_t kKc = 256;  ///< packed-panel depth (L1/L2 resident)
};

/// Register tile of one level's micro-kernel: Mr accumulator rows by Nr
/// columns, sized so the accumulators fit the register file (portable 4x16;
/// AVX2 6x16 in 12 of 16 ymm; AVX-512 12x32 in 24 of 32 zmm).
struct GemmKernelShape {
  std::size_t mr = 0;
  std::size_t nr = 0;
};
GemmKernelShape gemm_kernel_shape(GemmIsa isa);

/// "portable", "avx2" or "avx512".
const char* gemm_isa_name(GemmIsa isa);

/// Whether this binary carries the level's kernel AND the CPU runs it.
/// kPortable is always supported.
bool gemm_isa_supported(GemmIsa isa);

/// The level every GEMM in the process dispatches to: the best supported
/// one, unless a ScopedGemmIsa is pinning another.
GemmIsa gemm_isa();

/// Test and benchmark hook: pins the dispatched level for the scope's
/// lifetime and restores the previous one on exit. Process-wide, so it must
/// not overlap GEMMs running on other threads. Throws std::invalid_argument
/// for a level gemm_isa_supported() rejects.
class ScopedGemmIsa {
 public:
  explicit ScopedGemmIsa(GemmIsa isa);
  ~ScopedGemmIsa();
  ScopedGemmIsa(const ScopedGemmIsa&) = delete;
  ScopedGemmIsa& operator=(const ScopedGemmIsa&) = delete;

 private:
  GemmIsa prev_;
};

/// Scheduling decision the engine makes for a given problem shape.
struct GemmStats {
  std::size_t tiles = 0;      ///< tasks in the 2D (m/Mc) x (n/Nc) decomposition
  bool parallel = false;      ///< whether the tile loop forks onto the pool
};

/// Number of parallel tasks the engine creates for an (m, k, n) problem,
/// and whether the work-based grain admits them to the pool. Pure function
/// of the shape (it IS the driver's decision, not a mirror of it) — used by
/// the perf-smoke CTest target to catch serial-fallback regressions without
/// timing anything.
GemmStats gemm_plan(std::size_t m, std::size_t k, std::size_t n);

}  // namespace ebct::tensor
