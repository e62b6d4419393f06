// Shared row-resolution helpers for the exact backends' scan loops.
//
// Grid cells, quadtree leaves, and inverted posting lists all store dense
// WindowStore rows in arrival order and scan them the same way: resolve
// the containing ColumnSlab once per run of same-slice rows, then test
// the RC-DVQ predicate against the slab columns. That loop used to be
// copy-pasted into all three backends; RowScanner is the one
// implementation. GatheredRows is the grid batch scan's contiguous
// scratch that the SIMD kernels sweep.

#ifndef LATEST_EXACT_ROW_SCAN_H_
#define LATEST_EXACT_ROW_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stream/query.h"
#include "stream/window_store.h"

namespace latest::exact {

/// Cached-slab accessor over arrival-ordered row sequences. Not
/// thread-safe; create one per scan (like WindowStore::Reader, whose
/// slice cache it layers a slab cache on top of).
class RowScanner {
 public:
  using Row = stream::WindowStore::Row;

  explicit RowScanner(const stream::WindowStore::Reader& reader)
      : reader_(reader) {}

  const geo::Point& loc(Row row) {
    Resolve(row);
    return slab_.locs[row - slab_.base];
  }

  /// Full RC-DVQ predicate against one live row (window membership is the
  /// caller's concern).
  bool MatchesQuery(Row row, const stream::Query& q) {
    Resolve(row);
    const Row k = row - slab_.base;
    if (q.HasRange() && !q.range->Contains(slab_.locs[k])) return false;
    if (q.HasKeywords()) {
      const stream::KeywordSpan span = slab_.spans[k];
      if (!stream::KeywordSetsIntersect(slab_.arena->Data(span), span.len,
                                        q.keywords.data(),
                                        q.keywords.size())) {
        return false;
      }
    }
    return true;
  }

 private:
  void Resolve(Row row) {
    if (!slab_.contains(row)) slab_ = reader_.slab(row);
  }

  const stream::WindowStore::Reader& reader_;
  stream::WindowStore::ColumnSlab slab_;
};

/// Contiguous per-batch scratch columns gathered from row sequences, the
/// unit the SIMD kernels sweep. One grid batch pass concatenates many
/// cells into this single SoA (each cell's run stays arrival-ordered) and
/// sweeps contiguous multi-cell ranges with one kernel call. Capacity
/// persists across Clear(), so steady state allocates nothing.
struct GatheredRows {
  using Row = stream::WindowStore::Row;

  std::vector<stream::Timestamp> ts;
  std::vector<geo::Point> locs;

  void Clear() {
    ts.clear();
    locs.clear();
  }

  size_t size() const { return locs.size(); }

  /// Appends the locations (and timestamps when `want_ts`) of `n`
  /// arrival-ordered rows. Batches whose queries all share the window
  /// cutoff skip the timestamp column entirely: eviction at that cutoff
  /// already proves every gathered row live, and skipping the load+store
  /// halves the gather cost of the sweep.
  void Append(const stream::WindowStore::Reader& reader, const Row* rows,
              size_t n, bool want_ts) {
    stream::WindowStore::ColumnSlab slab;
    for (size_t i = 0; i < n; ++i) {
      const Row row = rows[i];
      if (!slab.contains(row)) slab = reader.slab(row);
      const Row k = row - slab.base;
      if (want_ts) ts.push_back(slab.timestamps[k]);
      locs.push_back(slab.locs[k]);
    }
  }
};

}  // namespace latest::exact

#endif  // LATEST_EXACT_ROW_SCAN_H_
