#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "tensor/alloc.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GEMM_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace ebct::tensor {

namespace {

using B = GemmBlocking;

inline std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }
inline std::size_t round_up(std::size_t a, std::size_t b) { return ceil_div(a, b) * b; }

/// One micro-tile: the Mr x Nr product of an A panel (`ap`, Mr floats per k
/// step) and a B panel (`bp`, Nr floats per k step) over `kc` steps, with
/// the accumulators in registers from a zero start. Its top-left rows x cols
/// corner is then stored to C (row stride ldc) when `first`, else added to
/// it. Every column lane performs the same operations, so a C element's
/// value depends on its A row, B column and k alone — not on where the
/// element sits in the tile or how wide the problem is.
using TileFn = void (*)(const float* ap, const float* bp, std::size_t kc, float* c,
                        std::size_t ldc, std::size_t rows, std::size_t cols, bool first);

struct Kernel {
  std::size_t mr;
  std::size_t nr;
  TileFn tile;
};

/// Writes the rows x cols corner of a row-major accumulator block with NR
/// columns to C.
template <std::size_t NR>
inline void store_tile(const float* acc, float* c, std::size_t ldc, std::size_t rows,
                       std::size_t cols, bool first) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc + r * NR;
    if (first) {
      for (std::size_t cc = 0; cc < cols; ++cc) crow[cc] = arow[cc];
    } else {
      for (std::size_t cc = 0; cc < cols; ++cc) crow[cc] += arow[cc];
    }
  }
}

/// Portable kernel: plain C++ the compiler vectorises at the build's
/// baseline flags (SSE2 on x86-64), 4x16 so the accumulators stay close to
/// the 16 xmm registers.
void portable_tile(const float* ap, const float* bp, std::size_t kc, float* c,
                   std::size_t ldc, std::size_t rows, std::size_t cols, bool first) {
  constexpr std::size_t MR = 4, NR = 16;
  float acc[MR * NR] = {};
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* brow = bp + kk * NR;
    const float* arow = ap + kk * MR;
    for (std::size_t r = 0; r < MR; ++r) {
      const float av = arow[r];
      float* crow = acc + r * NR;
#pragma omp simd
      for (std::size_t c2 = 0; c2 < NR; ++c2) crow[c2] += av * brow[c2];
    }
  }
  store_tile<NR>(acc, c, ldc, rows, cols, first);
}

#ifdef GEMM_X86_KERNELS

// The x86 kernels name every accumulator as its own variable (via the
// ROW macros) rather than indexing an array: compilers then keep them all
// in registers across the k loop, where an array can be demoted to the
// stack and cost a store per FMA.

/// AVX2+FMA kernel, 6x16: 12 ymm accumulators, 2 for the B row and 1 for
/// the broadcast A value — 15 of the 16 ymm registers, no spills.
__attribute__((target("avx2,fma"))) void avx2_tile(const float* ap, const float* bp,
                                                    std::size_t kc, float* c,
                                                    std::size_t ldc, std::size_t rows,
                                                    std::size_t cols, bool first) {
  constexpr std::size_t MR = 6, NR = 16;
#define ROWS(X) X(0) X(1) X(2) X(3) X(4) X(5)
#define DECL(r) __m256 c##r##0 = _mm256_setzero_ps(), c##r##1 = _mm256_setzero_ps();
#define STEP(r)                               \
  a = _mm256_broadcast_ss(ap + r);            \
  c##r##0 = _mm256_fmadd_ps(a, b0, c##r##0);  \
  c##r##1 = _mm256_fmadd_ps(a, b1, c##r##1);
#define SAVE(r)                                \
  _mm256_store_ps(buf + r * NR, c##r##0);      \
  _mm256_store_ps(buf + r * NR + 8, c##r##1);
  ROWS(DECL)
  for (std::size_t kk = 0; kk < kc; ++kk, ap += MR, bp += NR) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    __m256 a;
    ROWS(STEP)
  }
  alignas(32) float buf[MR * NR];
  ROWS(SAVE)
#undef ROWS
#undef DECL
#undef STEP
#undef SAVE
  store_tile<NR>(buf, c, ldc, rows, cols, first);
}

/// AVX-512 kernel, 12x32: 24 zmm accumulators plus 2 for the B row and 1
/// for the broadcast — 27 of the 32 zmm registers.
__attribute__((target("avx512f"))) void avx512_tile(const float* ap, const float* bp,
                                                     std::size_t kc, float* c,
                                                     std::size_t ldc, std::size_t rows,
                                                     std::size_t cols, bool first) {
  constexpr std::size_t MR = 12, NR = 32;
#define ROWS(X) X(0) X(1) X(2) X(3) X(4) X(5) X(6) X(7) X(8) X(9) X(10) X(11)
#define DECL(r) __m512 c##r##_0 = _mm512_setzero_ps(), c##r##_1 = _mm512_setzero_ps();
#define STEP(r)                                  \
  a = _mm512_set1_ps(ap[r]);                     \
  c##r##_0 = _mm512_fmadd_ps(a, b0, c##r##_0);   \
  c##r##_1 = _mm512_fmadd_ps(a, b1, c##r##_1);
#define SAVE(r)                                  \
  _mm512_store_ps(buf + r * NR, c##r##_0);       \
  _mm512_store_ps(buf + r * NR + 16, c##r##_1);
  ROWS(DECL)
  for (std::size_t kk = 0; kk < kc; ++kk, ap += MR, bp += NR) {
    const __m512 b0 = _mm512_loadu_ps(bp);
    const __m512 b1 = _mm512_loadu_ps(bp + 16);
    __m512 a;
    ROWS(STEP)
  }
  alignas(64) float buf[MR * NR];
  ROWS(SAVE)
#undef ROWS
#undef DECL
#undef STEP
#undef SAVE
  store_tile<NR>(buf, c, ldc, rows, cols, first);
}

#endif  // GEMM_X86_KERNELS

constexpr Kernel kKernels[kNumGemmIsas] = {
    {4, 16, portable_tile},
#ifdef GEMM_X86_KERNELS
    {6, 16, avx2_tile},
    {12, 32, avx512_tile},
#else
    {6, 16, nullptr},
    {12, 32, nullptr},
#endif
};
static_assert([] {
  for (const Kernel& k : kKernels)
    if (B::kMc % k.mr != 0 || B::kNc % k.nr != 0) return false;
  return true;
}(), "every kernel's Mr must divide kMc and its Nr kNc");

bool cpu_runs(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kPortable:
      return true;
#ifdef GEMM_X86_KERNELS
    case GemmIsa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case GemmIsa::kAvx512:
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

GemmIsa best_supported() {
  for (int l = kNumGemmIsas - 1; l > 0; --l)
    if (gemm_isa_supported(static_cast<GemmIsa>(l))) return static_cast<GemmIsa>(l);
  return GemmIsa::kPortable;
}

/// The dispatched level, chosen on first use.
std::atomic<int>& active_isa() {
  static std::atomic<int> isa{static_cast<int>(best_supported())};
  return isa;
}

/// Pack an mc x kc block of A (element (i, kk) at a[i*rs + kk*cs]) into
/// Mr-row panels: panel p holds rows [p*Mr, p*Mr+Mr) stored kk-major so
/// the micro-kernel streams it linearly. Short panels are zero-padded, which
/// keeps the kernel branch-free and — because the padded lanes multiply into
/// accumulator rows that are never stored — bitwise-neutral.
void pack_a(const float* a, std::size_t rs, std::size_t cs, std::size_t mc,
            std::size_t kc, std::size_t mr, float* dst) {
  for (std::size_t ir = 0; ir < mc; ir += mr) {
    const std::size_t rows = std::min(mr, mc - ir);
    for (std::size_t kk = 0; kk < kc; ++kk) {
      for (std::size_t r = 0; r < rows; ++r) *dst++ = a[(ir + r) * rs + kk * cs];
      for (std::size_t r = rows; r < mr; ++r) *dst++ = 0.0f;
    }
  }
}

/// Pack a kc x nc block of B (element (kk, j) at b[kk*rs + j*cs]) into
/// Nr-column panels, kk-major, zero-padded on the right.
void pack_b(const float* b, std::size_t rs, std::size_t cs, std::size_t kc,
            std::size_t nc, std::size_t nr, float* dst) {
  for (std::size_t jr = 0; jr < nc; jr += nr) {
    const std::size_t cols = std::min(nr, nc - jr);
    if (cols == nr && cs == 1) {
      for (std::size_t kk = 0; kk < kc; ++kk) {
        std::memcpy(dst, b + kk * rs + jr, nr * sizeof(float));
        dst += nr;
      }
      continue;
    }
    for (std::size_t kk = 0; kk < kc; ++kk) {
      for (std::size_t c = 0; c < cols; ++c) *dst++ = b[kk * rs + (jr + c) * cs];
      for (std::size_t c = cols; c < nr; ++c) *dst++ = 0.0f;
    }
  }
}

/// One (i0, j0) tile of C: sweep k in kKc slabs, packing the B panel for
/// each slab into this thread's scratch arena and pairing it with the slab's
/// pre-packed A panels, then run the micro-kernel grid. Accumulation order
/// is a pure function of the shape — tiles never share C elements and the k
/// sweep is sequential — so outputs are bitwise identical at every thread
/// count.
void compute_tile(const Kernel& kern, const float* apanels, const float* b, std::size_t b_rs,
                  std::size_t b_cs, float* c, std::size_t k, std::size_t n, bool accumulate,
                  std::size_t i0, std::size_t mc, std::size_t j0, std::size_t nc) {
  const std::size_t mr = kern.mr, nr = kern.nr;
  const std::size_t mcp = round_up(mc, mr);  // the block's rows, padded to Mr
  ScratchBuffer bpack(ceil_div(nc, nr) * nr * B::kKc);
  // Row block i0 / kMc starts at i0 * k: every block above it is kMc rows.
  const float* ablock = apanels + i0 * k;

  for (std::size_t p0 = 0; p0 < k; p0 += B::kKc) {
    const std::size_t kc = std::min(B::kKc, k - p0);
    const bool first = p0 == 0 && !accumulate;
    const float* apack = ablock + mcp * p0;
    pack_b(b + p0 * b_rs + j0 * b_cs, b_rs, b_cs, kc, nc, nr, bpack.data());

    for (std::size_t jr = 0; jr < nc; jr += nr) {
      const std::size_t cols = std::min(nr, nc - jr);
      const float* bp = bpack.data() + (jr / nr) * nr * kc;
      for (std::size_t ir = 0; ir < mc; ir += mr) {
        const float* ap = apack + (ir / mr) * mr * kc;
        kern.tile(ap, bp, kc, c + (i0 + ir) * n + j0 + jr, n, std::min(mr, mc - ir), cols,
                  first);
      }
    }
  }
}

/// The C-tile grid on a pre-packed A; B[k,n] is described by (row, col)
/// element strides, so its packer absorbs the layout difference and the
/// tile kernel is identical for every transposition variant.
void run_tiles(const Kernel& kern, const float* apanels, std::size_t m, std::size_t k,
               const float* b, std::size_t b_rs, std::size_t b_cs, float* c, std::size_t n,
               bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    return;
  }
  const std::size_t mt = ceil_div(m, B::kMc);
  const std::size_t nt = ceil_div(n, B::kNc);
  const std::size_t tiles = mt * nt;
  // Per-tile cost in element-ops; the work-based grain (not the tile count)
  // decides whether the 2D tile grid forks. Must stay in sync with
  // gemm_plan() below, which exposes this decision to tests. Each C-tile
  // becomes one task in the shared work-stealing pool, so when this GEMM
  // runs inside a batch task the tiles are stolen by whichever threads the
  // batch level left idle.
  const std::size_t tile_work =
      2 * std::min(B::kMc, m) * std::min(B::kNc, n) * k;
  parallel_for(tiles, tile_work, [&](std::size_t t) {
    const std::size_t i0 = (t / nt) * B::kMc;
    const std::size_t j0 = (t % nt) * B::kNc;
    compute_tile(kern, apanels, b, b_rs, b_cs, c, k, n, accumulate, i0,
                 std::min(B::kMc, m - i0), j0, std::min(B::kNc, n - j0));
  });
}

/// Shared driver for all three transposition variants: A[m,k] is stored
/// row-major or transposed, B[k,n] is described by (row, col) element
/// strides. A is packed once for the whole call, then the tile grid runs
/// on it.
void gemm_driver(const float* a, bool a_transposed, const float* b, std::size_t b_rs,
                 std::size_t b_cs, float* c, std::size_t m, std::size_t k, std::size_t n,
                 bool accumulate) {
  if (m == 0 || n == 0) return;
  const PackedA pa(a, m, k, a_transposed);
  run_tiles(kKernels[static_cast<int>(pa.isa())], pa.panels(), m, k, b, b_rs, b_cs, c, n,
            accumulate);
}

}  // namespace

GemmKernelShape gemm_kernel_shape(GemmIsa isa) {
  const Kernel& k = kKernels[static_cast<int>(isa)];
  return {k.mr, k.nr};
}

const char* gemm_isa_name(GemmIsa isa) {
  static const char* const names[kNumGemmIsas] = {"portable", "avx2", "avx512"};
  return names[static_cast<int>(isa)];
}

bool gemm_isa_supported(GemmIsa isa) {
  const int l = static_cast<int>(isa);
  return l >= 0 && l < kNumGemmIsas && kKernels[l].tile != nullptr && cpu_runs(isa);
}

GemmIsa gemm_isa() {
  return static_cast<GemmIsa>(active_isa().load(std::memory_order_relaxed));
}

ScopedGemmIsa::ScopedGemmIsa(GemmIsa isa) : prev_(gemm_isa()) {
  if (!gemm_isa_supported(isa))
    throw std::invalid_argument("ScopedGemmIsa: GEMM level not supported on this host");
  active_isa().store(static_cast<int>(isa), std::memory_order_relaxed);
}

ScopedGemmIsa::~ScopedGemmIsa() {
  active_isa().store(static_cast<int>(prev_), std::memory_order_relaxed);
}

PackedA::PackedA(const float* a, std::size_t m, std::size_t k, bool transposed)
    : isa_(gemm_isa()),
      m_(m),
      k_(k),
      buf_(round_up(m, kKernels[static_cast<int>(isa_)].mr) * k),
      panels_(buf_.data()) {
  // Element (i, kk) of A sits at a[i*rs + kk*cs]. The packed block of rows
  // [i0, i0+mc) and slab [p0, p0+kc) sits at i0*k + mcp*p0: the row blocks
  // above it are kMc rows by k, its earlier slabs mcp (mc padded to Mr) by
  // kKc. Blocks are disjoint, so they pack as independent tasks.
  const std::size_t rs = transposed ? 1 : k, cs = transposed ? m : 1;
  const std::size_t mr = kKernels[static_cast<int>(isa_)].mr;
  const std::size_t mt = ceil_div(m, B::kMc), ks = ceil_div(k, B::kKc);
  float* panels = panels_;
  parallel_for(mt * ks, std::min(B::kMc, m) * std::min(B::kKc, k), [&](std::size_t blk) {
    const std::size_t i0 = (blk / ks) * B::kMc, p0 = (blk % ks) * B::kKc;
    const std::size_t mc = std::min(B::kMc, m - i0);
    pack_a(a + i0 * rs + p0 * cs, rs, cs, mc, std::min(B::kKc, k - p0), mr,
           panels + i0 * k + round_up(mc, mr) * p0);
  });
}

void gemm_packed(const PackedA& a, const float* b, float* c, std::size_t n, bool accumulate) {
  run_tiles(kKernels[static_cast<int>(a.isa())], a.panels(), a.rows(), a.depth(), b, n, 1, c,
            n, accumulate);
}

GemmStats gemm_plan(std::size_t m, std::size_t k, std::size_t n) {
  GemmStats s;
  if (m == 0 || n == 0 || k == 0) return s;
  s.tiles = ceil_div(m, B::kMc) * ceil_div(n, B::kNc);
  s.parallel =
      parallel_worthwhile(s.tiles, 2 * std::min(B::kMc, m) * std::min(B::kNc, n) * k);
  return s;
}

void gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
          std::size_t n, bool accumulate) {
  gemm_driver(a, /*a_transposed=*/false, b, n, 1, c, m, k, n, accumulate);
}

void gemm_at(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
             std::size_t n, bool accumulate) {
  // A is stored [k, m]: element (i, kk) lives at a[kk*m + i].
  gemm_driver(a, /*a_transposed=*/true, b, n, 1, c, m, k, n, accumulate);
}

void gemm_bt(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
             std::size_t n, bool accumulate) {
  // B is stored [n, k]: element (kk, j) lives at b[j*k + kk].
  gemm_driver(a, /*a_transposed=*/false, b, 1, k, c, m, k, n, accumulate);
}

}  // namespace ebct::tensor
