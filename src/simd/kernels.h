// Runtime-dispatched SIMD kernels over the columnar window store's raw
// arrays.
//
// The window store lays the window out as slice-partitioned SoA columns
// so hot loops can be vectorized; this layer supplies the three loops
// that have a production caller: rect counting for the grid batch scan,
// the sorted-column cutoff resolve, and histogram cell ids for batched
// ingest. Each kernel has
// a scalar implementation and, where it pays, SSE2 and AVX2 ones selected
// at runtime from one process-global tier. Every implementation is
// bit-identical: kernels either produce integers (counts, cell ids,
// verdicts) or reuse the exact floating-point operation sequence of the
// scalar path (same subtract/divide/compare ordering), so switching tiers
// can never change a count, an estimate, or a persisted state CRC.
//
// Dispatch: the active tier starts at the highest the CPU supports,
// optionally lowered by the LATEST_SIMD_TIER environment variable
// ("scalar", "sse2", "avx2" — requests above hardware support clamp
// down), and can be forced per-process with SetActiveTier (tests iterate
// it to cross-check tiers). Builds with LATEST_SIMD_DISABLED (or non-x86
// targets) compile the scalar tier only.

#ifndef LATEST_SIMD_KERNELS_H_
#define LATEST_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "geo/point.h"
#include "geo/rect.h"
#include "stream/object.h"

namespace latest::simd {

/// Instruction-set tier a kernel call executes at. Ordered: a tier is
/// usable iff it is <= HighestSupportedTier().
enum class KernelTier : int {
  kScalar = 0,
  kSSE2 = 1,
  kAVX2 = 2,
};

/// Short stable name ("scalar", "sse2", "avx2").
const char* KernelTierName(KernelTier tier);

/// Best tier this build + CPU can execute.
KernelTier HighestSupportedTier();

/// Tier kernels currently dispatch to.
KernelTier ActiveTier();

/// Forces the dispatch tier; false (and no change) when the tier exceeds
/// hardware/build support. Not synchronized against concurrent kernel
/// calls: set it at startup or between test sections, not mid-scan.
bool SetActiveTier(KernelTier tier);

// --- Spatial kernels -------------------------------------------------------

/// Number of the n points that r.Contains (closed-open, false on NaN).
uint64_t RectContainCount(const geo::Point* locs, size_t n,
                          const geo::Rect& r);

/// Vectorized 2-D histogram cell ids: cells[i] = the uniform-grid cell of
/// the i-th point, bit-identical to geo::Grid::CellOf (same divide,
/// truncate, and border-clamp sequence). The i-th point is read at
/// `first + i * stride` bytes, so callers can map locations embedded in
/// larger records (e.g. a GeoTextObject array) without first copying them
/// into a dense buffer; `stride` must keep every read in bounds, and
/// sizeof(geo::Point) reads a dense array. `cell_w`/`cell_h` must be the
/// grid's exact cell extents (Grid::cell_width()/cell_height()).
void HistogramCellIdsStrided(const geo::Point* first, size_t stride, size_t n,
                             const geo::Rect& bounds, double cell_w,
                             double cell_h, uint32_t cols, uint32_t rows,
                             uint32_t* cells);

// --- Timestamp kernels -----------------------------------------------------

/// First index with ts[i] >= cutoff in a non-decreasing timestamp column
/// (n when none). The store's slices and per-cell row lists are in arrival
/// order, so this resolves a window cutoff to a live-range start.
size_t LowerBoundTimestamp(const stream::Timestamp* ts, size_t n,
                           stream::Timestamp cutoff);

}  // namespace latest::simd

#endif  // LATEST_SIMD_KERNELS_H_
