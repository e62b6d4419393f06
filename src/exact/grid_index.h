// Full spatial Grid index over the window: references columnar store rows.
//
// This is (a) the "Grid" full index of Table I, answering queries exactly
// by scanning candidate cells, and (b) the spatial backend of the exact
// evaluator that produces the "system log" ground-truth selectivities.
// Cells hold dense uint32 row references into a shared WindowStore; scans
// resolve rows through a per-scan store Reader, so they are cache-linear
// over plain arrays and copy no objects. Rows arrive in timestamp order;
// window expiry advances an amortized-O(1) per-cell head offset.

#ifndef LATEST_EXACT_GRID_INDEX_H_
#define LATEST_EXACT_GRID_INDEX_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "exact/row_scan.h"
#include "geo/grid.h"
#include "stream/query.h"
#include "stream/window_store.h"

namespace latest::exact {

/// Windowed exact spatial grid index over a shared columnar store.
class GridIndex {
 public:
  using Row = stream::WindowStore::Row;

  /// store: the columnar window store rows refer into (borrowed, must
  /// outlive the index). bounds: spatial domain. cols/rows: resolution.
  GridIndex(const stream::WindowStore* store, const geo::Rect& bounds,
            uint32_t cols, uint32_t rows);

  /// Indexes a store row (append order = non-decreasing timestamps).
  void Insert(Row row);

  /// Same, with the row's location supplied by the caller (the evaluator
  /// already holds it at append time), skipping the store lookup.
  void Insert(Row row, const geo::Point& loc);

  /// Removes all rows with timestamp < cutoff.
  void EvictBefore(stream::Timestamp cutoff);

  /// Exact number of window objects matching the query. `cutoff` is the
  /// lower window bound NOW - T; objects older than it are ignored (and
  /// lazily evicted).
  uint64_t CountMatches(const stream::Query& q, stream::Timestamp cutoff);

  /// Batched exact evaluation of K pure-spatial queries (no keyword
  /// predicate): one pass over the union of the queries' candidate cell
  /// ranges, evicting and gathering each cell's columns once and sweeping
  /// them with the SIMD kernels for every covering query. counts[i]
  /// receives the match count of *queries[i] under cutoffs[i],
  /// bit-identical to CountMatches(*queries[i], cutoffs[i]) at every
  /// kernel tier.
  void CountMatchesBatch(const stream::Query* const* queries,
                         const stream::Timestamp* cutoffs, size_t k,
                         uint64_t* counts);

  /// Number of rows currently indexed (including not-yet-evicted ones).
  uint64_t size() const { return size_; }

  const geo::Grid& grid() const { return grid_; }

  /// Drops all rows.
  void Clear();

 private:
  /// One grid cell: row refs in arrival order; [head, rows.size()) live.
  struct Cell {
    std::vector<Row> rows;
    uint32_t head = 0;
    /// Cached timestamp of rows[head], or kUnknownTs when not yet read.
    /// Never stale-high: set only from an actual read, and heads only
    /// advance, so `head_ts >= cutoff` proves the whole cell is live
    /// without touching the store.
    stream::Timestamp head_ts = kUnknownTs;

    size_t live() const { return rows.size() - head; }
  };

  static constexpr stream::Timestamp kUnknownTs =
      std::numeric_limits<stream::Timestamp>::min();

  /// Advances one cell's head past expired rows; returns evictions.
  uint64_t EvictCell(Cell* cell, const stream::WindowStore::Reader& reader,
                     stream::Timestamp cutoff);

  /// Scan of the query's candidate cells rows [row_lo, row_hi] x cols
  /// [col_lo, col_hi]; returns {matches, evicted} without touching size_.
  /// Cells strictly inside the candidate range are fully covered by the
  /// query range and count in O(1) without reading locations.
  std::pair<uint64_t, uint64_t> ScanRows(const stream::Query& q,
                                         stream::Timestamp cutoff,
                                         uint32_t row_lo, uint32_t row_hi,
                                         uint32_t col_lo, uint32_t col_hi);

  /// One batch query's candidate cell box + cutoff (see grid_index.cc).
  struct BatchPlan;

  /// Reusable per-scan state of one BatchScanRows call: the gathered SoA,
  /// the per-cell [start, end) SoA offsets (only covered cells are ever
  /// written or read, so they are never cleared), and the row-bucketing
  /// arrays of the gather phase. Kept as a member so steady state
  /// allocates nothing.
  struct BatchScanScratch {
    GatheredRows rows;
    std::vector<uint32_t> off_lo;
    std::vector<uint32_t> off_hi;
    std::vector<uint32_t> row_start;
    std::vector<uint32_t> row_items;
    std::vector<uint32_t> cursor;
  };

  /// Batch counterpart of ScanRows over the batch's candidate rows
  /// [row_lo, row_hi], in two phases.
  /// Gather: plans (col_lo-sorted by the caller) are bucketed by grid
  /// row, their col ranges merged into covered-column intervals, and
  /// every covered cell is evicted at the batch-minimum cutoff and its
  /// live columns appended to one SoA in row-major cell order, recording
  /// per-cell [start, end) offsets. Count: cells a plan's box covers
  /// within one grid row are then contiguous in the SoA, so each
  /// (plan, grid row) strip is swept with a single kernel call — and the
  /// strip's fully-interior middle counts wholesale from the offsets
  /// alone. Returns evictions.
  uint64_t BatchScanRows(const std::vector<BatchPlan>& plans,
                         stream::Timestamp min_cutoff, uint32_t row_lo,
                         uint32_t row_hi, bool want_ts,
                         uint64_t* counts, BatchScanScratch* scratch);

  const stream::WindowStore* store_;
  geo::Grid grid_;
  std::vector<Cell> cells_;
  uint64_t size_ = 0;
  BatchScanScratch batch_scratch_;
};

}  // namespace latest::exact

#endif  // LATEST_EXACT_GRID_INDEX_H_
