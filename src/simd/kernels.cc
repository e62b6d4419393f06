#include "simd/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

// LATEST_SIMD_X86 gates every intrinsic body. The scalar tier is the only
// one compiled on other targets or under -DLATEST_DISABLE_SIMD=ON, and it
// is the reference all vector tiers are cross-checked against
// (tests/simd_kernels_test.cc, tests/batch_crosscheck_test.cc).
#if defined(__x86_64__) && !defined(LATEST_SIMD_DISABLED)
#define LATEST_SIMD_X86 1
#include <immintrin.h>
#else
#define LATEST_SIMD_X86 0
#endif

#if LATEST_SIMD_X86
#define LATEST_TARGET_AVX2 __attribute__((target("avx2,popcnt")))
#endif

namespace latest::simd {

namespace {

// --- Scalar reference implementations --------------------------------------

uint64_t RectContainCountScalar(const geo::Point* locs, size_t n,
                                const geo::Rect& r) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) count += r.Contains(locs[i]) ? 1 : 0;
  return count;
}

// Mirrors geo::Grid::CellOf exactly (same subtract/divide/truncate/clamp
// sequence) so histogram batch inserts land in the same cells as the
// scalar insert path.
uint32_t CellIdScalar(const geo::Point& p, const geo::Rect& bounds,
                      double cell_w, double cell_h, uint32_t cols,
                      uint32_t rows) {
  auto clamp_idx = [](double v, uint32_t n) {
    if (v < 0) return 0u;
    const auto i = static_cast<int64_t>(v);
    if (i >= static_cast<int64_t>(n)) return n - 1;
    return static_cast<uint32_t>(i);
  };
  const uint32_t col = clamp_idx((p.x - bounds.min_x) / cell_w, cols);
  const uint32_t row = clamp_idx((p.y - bounds.min_y) / cell_h, rows);
  return row * cols + col;
}

void HistogramCellIdsStridedScalar(const geo::Point* first, size_t stride,
                                   size_t n, const geo::Rect& bounds,
                                   double cell_w, double cell_h, uint32_t cols,
                                   uint32_t rows, uint32_t* cells) {
  const auto* base = reinterpret_cast<const unsigned char*>(first);
  for (size_t i = 0; i < n; ++i) {
    const auto& p = *reinterpret_cast<const geo::Point*>(base + i * stride);
    cells[i] = CellIdScalar(p, bounds, cell_w, cell_h, cols, rows);
  }
}

#if LATEST_SIMD_X86

// --- SSE2 tier (x86-64 baseline, no target attribute needed) ---------------
//
// SSE2 carries the 2-lane double compares the rect kernel needs and
// 4-lane 32-bit compare-equal for keyword probing; it lacks 32-bit lane
// multiplies, so the histogram kernel stays scalar at this tier.

uint64_t RectContainCountSSE2(const geo::Point* locs, size_t n,
                              const geo::Rect& r) {
  const __m128d lo = _mm_setr_pd(r.min_x, r.min_y);
  const __m128d hi = _mm_setr_pd(r.max_x, r.max_y);
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const __m128d v = _mm_loadu_pd(reinterpret_cast<const double*>(locs + i));
    const int m = _mm_movemask_pd(
        _mm_and_pd(_mm_cmpge_pd(v, lo), _mm_cmplt_pd(v, hi)));
    count += (m == 3) ? 1 : 0;
  }
  return count;
}

// --- AVX2 tier --------------------------------------------------------------

// Points are stored AoS ({x, y} pairs), so one 256-bit load covers two
// points [x0, y0, x1, y1]. Comparing against [min_x, min_y, min_x, min_y]
// and [max_x, max_y, max_x, max_y] and folding the 4-bit movemask with
// t = m & (m >> 1) leaves point verdicts at bits 0 and 2 — no
// deinterleave needed on the containment path. _CMP_GE_OQ / _CMP_LT_OQ
// are ordered (false on NaN), matching Rect::Contains exactly.
LATEST_TARGET_AVX2 inline uint64_t RectNibble4(const geo::Point* locs,
                                               __m256d lo, __m256d hi) {
  const __m256d v0 =
      _mm256_loadu_pd(reinterpret_cast<const double*>(locs));
  const __m256d v1 =
      _mm256_loadu_pd(reinterpret_cast<const double*>(locs + 2));
  const unsigned m0 = static_cast<unsigned>(_mm256_movemask_pd(_mm256_and_pd(
      _mm256_cmp_pd(v0, lo, _CMP_GE_OQ), _mm256_cmp_pd(v0, hi, _CMP_LT_OQ))));
  const unsigned m1 = static_cast<unsigned>(_mm256_movemask_pd(_mm256_and_pd(
      _mm256_cmp_pd(v1, lo, _CMP_GE_OQ), _mm256_cmp_pd(v1, hi, _CMP_LT_OQ))));
  const unsigned t0 = m0 & (m0 >> 1);  // Point bits at 0 and 2.
  const unsigned t1 = m1 & (m1 >> 1);
  return (t0 & 1u) | ((t0 >> 1) & 2u) | (((t1 & 1u) | ((t1 >> 1) & 2u)) << 2);
}

LATEST_TARGET_AVX2 uint64_t RectContainCountAVX2(const geo::Point* locs,
                                                 size_t n,
                                                 const geo::Rect& r) {
  const __m256d lo = _mm256_setr_pd(r.min_x, r.min_y, r.min_x, r.min_y);
  const __m256d hi = _mm256_setr_pd(r.max_x, r.max_y, r.max_x, r.max_y);
  uint64_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    count += static_cast<uint64_t>(
        __builtin_popcountll(RectNibble4(locs + i, lo, hi)));
  }
  for (; i < n; ++i) count += r.Contains(locs[i]) ? 1 : 0;
  return count;
}

// Bit-identical to CellIdScalar: the subtract and _mm256_div_pd are the
// same IEEE operations in the same order, and the double-domain clamp
// v' = min(max(v, 0), n - 1) truncates to the same index as the scalar
// int64 clamp for every v < 2^63 (v < 0 -> 0; v in [n-1, n) and v >= n
// both land on n - 1; in-range v truncates unchanged). n - 1 is exact in
// a double and fits int32 (the dispatch wrapper bounds cols/rows). Each
// point is a 128-bit load at its own strided address, pairs fused into
// 256-bit lanes.
LATEST_TARGET_AVX2 void HistogramCellIdsStridedAVX2(
    const geo::Point* first, size_t stride, size_t n, const geo::Rect& bounds,
    double cell_w, double cell_h, uint32_t cols, uint32_t rows,
    uint32_t* cells) {
  const auto* base = reinterpret_cast<const unsigned char*>(first);
  const __m256d origin =
      _mm256_setr_pd(bounds.min_x, bounds.min_y, bounds.min_x, bounds.min_y);
  const __m256d inv_wh = _mm256_setr_pd(cell_w, cell_h, cell_w, cell_h);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d col_max = _mm256_set1_pd(static_cast<double>(cols - 1));
  const __m256d row_max = _mm256_set1_pd(static_cast<double>(rows - 1));
  const __m128i cols_v = _mm_set1_epi32(static_cast<int>(cols));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const unsigned char* q = base + i * stride;
    const __m128d p0 = _mm_loadu_pd(reinterpret_cast<const double*>(q));
    const __m128d p1 =
        _mm_loadu_pd(reinterpret_cast<const double*>(q + stride));
    const __m128d p2 =
        _mm_loadu_pd(reinterpret_cast<const double*>(q + 2 * stride));
    const __m128d p3 =
        _mm_loadu_pd(reinterpret_cast<const double*>(q + 3 * stride));
    const __m256d v0 = _mm256_set_m128d(p1, p0);
    const __m256d v1 = _mm256_set_m128d(p3, p2);
    const __m256d s0 = _mm256_div_pd(_mm256_sub_pd(v0, origin), inv_wh);
    const __m256d s1 = _mm256_div_pd(_mm256_sub_pd(v1, origin), inv_wh);
    // Deinterleave: lanes come out in point order [0, 2, 1, 3].
    __m256d xs = _mm256_unpacklo_pd(s0, s1);
    __m256d ys = _mm256_unpackhi_pd(s0, s1);
    xs = _mm256_min_pd(_mm256_max_pd(xs, zero), col_max);
    ys = _mm256_min_pd(_mm256_max_pd(ys, zero), row_max);
    const __m128i col_i = _mm256_cvttpd_epi32(xs);
    const __m128i row_i = _mm256_cvttpd_epi32(ys);
    __m128i cell = _mm_add_epi32(_mm_mullo_epi32(row_i, cols_v), col_i);
    cell = _mm_shuffle_epi32(cell, _MM_SHUFFLE(3, 1, 2, 0));  // [0,2,1,3]->[0..3]
    _mm_storeu_si128(reinterpret_cast<__m128i*>(cells + i), cell);
  }
  for (; i < n; ++i) {
    const auto& p = *reinterpret_cast<const geo::Point*>(base + i * stride);
    cells[i] = CellIdScalar(p, bounds, cell_w, cell_h, cols, rows);
  }
}

#endif  // LATEST_SIMD_X86

// --- Tier selection ---------------------------------------------------------

bool ParseTierName(const char* s, KernelTier* out) {
  if (std::strcmp(s, "scalar") == 0 || std::strcmp(s, "0") == 0) {
    *out = KernelTier::kScalar;
  } else if (std::strcmp(s, "sse2") == 0 || std::strcmp(s, "1") == 0) {
    *out = KernelTier::kSSE2;
  } else if (std::strcmp(s, "avx2") == 0 || std::strcmp(s, "2") == 0) {
    *out = KernelTier::kAVX2;
  } else {
    return false;
  }
  return true;
}

std::atomic<int>& ActiveTierSlot() {
  static std::atomic<int> slot{[] {
    KernelTier tier = HighestSupportedTier();
    if (const char* env = std::getenv("LATEST_SIMD_TIER")) {
      KernelTier requested;
      if (ParseTierName(env, &requested) && requested < tier) tier = requested;
    }
    return static_cast<int>(tier);
  }()};
  return slot;
}

}  // namespace

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kSSE2:
      return "sse2";
    case KernelTier::kAVX2:
      return "avx2";
  }
  return "unknown";
}

KernelTier HighestSupportedTier() {
#if LATEST_SIMD_X86
  static const KernelTier highest =
      (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt"))
          ? KernelTier::kAVX2
          : KernelTier::kSSE2;
  return highest;
#else
  return KernelTier::kScalar;
#endif
}

KernelTier ActiveTier() {
  return static_cast<KernelTier>(
      ActiveTierSlot().load(std::memory_order_relaxed));
}

bool SetActiveTier(KernelTier tier) {
  if (tier > HighestSupportedTier()) return false;
  ActiveTierSlot().store(static_cast<int>(tier), std::memory_order_relaxed);
  return true;
}

// --- Dispatch wrappers ------------------------------------------------------

uint64_t RectContainCount(const geo::Point* locs, size_t n,
                          const geo::Rect& r) {
#if LATEST_SIMD_X86
  switch (ActiveTier()) {
    case KernelTier::kAVX2:
      return RectContainCountAVX2(locs, n, r);
    case KernelTier::kSSE2:
      return RectContainCountSSE2(locs, n, r);
    case KernelTier::kScalar:
      break;
  }
#endif
  return RectContainCountScalar(locs, n, r);
}

void HistogramCellIdsStrided(const geo::Point* first, size_t stride, size_t n,
                             const geo::Rect& bounds, double cell_w,
                             double cell_h, uint32_t cols, uint32_t rows,
                             uint32_t* cells) {
#if LATEST_SIMD_X86
  // The vector clamp converts through int32 lanes; absurdly large grids
  // (never built in practice) take the scalar path instead.
  if (ActiveTier() == KernelTier::kAVX2 && cols <= (1u << 30) &&
      rows <= (1u << 30)) {
    HistogramCellIdsStridedAVX2(first, stride, n, bounds, cell_w, cell_h, cols,
                                rows, cells);
    return;
  }
#endif
  HistogramCellIdsStridedScalar(first, stride, n, bounds, cell_w, cell_h, cols,
                                rows, cells);
}

size_t LowerBoundTimestamp(const stream::Timestamp* ts, size_t n,
                           stream::Timestamp cutoff) {
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (ts[mid] < cutoff) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace latest::simd
