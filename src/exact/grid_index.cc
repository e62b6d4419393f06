#include "exact/grid_index.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "simd/kernels.h"

namespace latest::exact {

namespace {

/// Evicted prefixes are erased (compacted away) once the dead prefix is
/// this long and at least half the buffer, keeping per-cell memory
/// proportional to live rows without per-eviction copying.
constexpr uint32_t kMinHeadForCompaction = 32;

}  // namespace

GridIndex::GridIndex(const stream::WindowStore* store, const geo::Rect& bounds,
                     uint32_t cols, uint32_t rows)
    : store_(store), grid_(bounds, cols, rows), cells_(grid_.num_cells()) {}

void GridIndex::Insert(Row row) {
  const stream::WindowStore::Reader reader(*store_);
  Insert(row, reader.loc(row));
}

void GridIndex::Insert(Row row, const geo::Point& loc) {
  cells_[grid_.CellOf(loc)].rows.push_back(row);
  ++size_;
}

uint64_t GridIndex::EvictCell(Cell* cell,
                              const stream::WindowStore::Reader& reader,
                              stream::Timestamp cutoff) {
  const size_t end = cell->rows.size();
  if (cell->head >= end) return 0;
  // Steady-state fast path: the cached head timestamp proves the whole
  // cell live without a store read (rows arrive in timestamp order).
  if (cell->head_ts != kUnknownTs && cell->head_ts >= cutoff) return 0;
  const Row first_live = store_->first_live_row();
  uint64_t evicted = 0;
  uint32_t head = cell->head;
  cell->head_ts = kUnknownTs;
  while (head < end) {
    const Row row = cell->rows[head];
    // Rows below the store's first live row belong to dropped slices:
    // discard them without dereferencing (they expired before the drop).
    if (row >= first_live) {
      const stream::Timestamp ts = reader.timestamp(row);
      if (ts >= cutoff) {
        cell->head_ts = ts;
        break;
      }
    }
    ++head;
    ++evicted;
  }
  cell->head = head;
  if (head >= kMinHeadForCompaction && head >= cell->rows.size() / 2) {
    cell->rows.erase(cell->rows.begin(), cell->rows.begin() + head);
    cell->head = 0;
  }
  return evicted;
}

void GridIndex::EvictBefore(stream::Timestamp cutoff) {
  const stream::WindowStore::Reader reader(*store_);
  for (Cell& cell : cells_) {
    size_ -= EvictCell(&cell, reader, cutoff);
  }
}

std::pair<uint64_t, uint64_t> GridIndex::ScanRows(
    const stream::Query& q, stream::Timestamp cutoff, uint32_t row_lo,
    uint32_t row_hi, uint32_t col_lo, uint32_t col_hi) {
  const stream::WindowStore::Reader reader(*store_);
  const bool check_range = q.HasRange();
  const bool check_kw = q.HasKeywords();
  uint64_t count = 0;
  uint64_t evicted = 0;
  RowScanner scan(reader);
  for (uint32_t row = row_lo; row <= row_hi; ++row) {
    // A cell strictly inside the candidate cell range is fully covered by
    // the query range: any non-clamped point the same floor arithmetic
    // mapped strictly between the range's edge cells lies strictly between
    // the range's edges, and clamped outliers only land in grid-border
    // cells, which are never strictly interior. Rows surviving EvictCell
    // all have ts >= cutoff (arrival order), so such cells count in O(1)
    // with no location reads.
    const bool row_interior = check_range && !check_kw &&
                              row > row_lo && row < row_hi;
    for (uint32_t col = col_lo; col <= col_hi; ++col) {
      Cell& cell = cells_[row * grid_.cols() + col];
      evicted += EvictCell(&cell, reader, cutoff);
      if (row_interior && col > col_lo && col < col_hi) {
        count += cell.live();
        continue;
      }
      const size_t n = cell.rows.size();
      for (size_t i = cell.head; i < n; ++i) {
        if (scan.MatchesQuery(cell.rows[i], q)) ++count;
      }
    }
  }
  return {count, evicted};
}

uint64_t GridIndex::CountMatches(const stream::Query& q,
                                 stream::Timestamp cutoff) {
  uint32_t col_lo = 0;
  uint32_t row_lo = 0;
  uint32_t col_hi = grid_.cols() - 1;
  uint32_t row_hi = grid_.rows() - 1;
  if (q.HasRange()) {
    if (!grid_.CellRange(*q.range, &col_lo, &row_lo, &col_hi, &row_hi)) {
      return 0;
    }
  }
  const auto [count, evicted] =
      ScanRows(q, cutoff, row_lo, row_hi, col_lo, col_hi);
  size_ -= evicted;
  return count;
}

/// One batch query's evaluation plan: its candidate cell box (full grid
/// when the query has no range), its window cutoff, and where its count
/// lands in the output array.
struct GridIndex::BatchPlan {
  const stream::Query* q = nullptr;
  stream::Timestamp cutoff = 0;
  uint32_t col_lo = 0;
  uint32_t row_lo = 0;
  uint32_t col_hi = 0;
  uint32_t row_hi = 0;
  uint32_t out_idx = 0;
  bool has_range = false;
};

uint64_t GridIndex::BatchScanRows(const std::vector<BatchPlan>& plans,
                                  stream::Timestamp min_cutoff,
                                  uint32_t row_lo, uint32_t row_hi,
                                  bool want_ts,
                                  uint64_t* counts,
                                  BatchScanScratch* scratch) {
  const stream::WindowStore::Reader reader(*store_);
  uint64_t evicted = 0;
  GatheredRows* gathered = &scratch->rows;
  gathered->Clear();
  if (scratch->off_lo.size() < grid_.num_cells()) {
    scratch->off_lo.resize(grid_.num_cells());
    scratch->off_hi.resize(grid_.num_cells());
  }
  uint32_t* const off_lo = scratch->off_lo.data();
  uint32_t* const off_hi = scratch->off_hi.data();

  // --- Gather phase. Plans are first bucketed by grid row (counting
  // sort, preserving the caller's col_lo order within each row), so the
  // per-row work is proportional to the plans actually covering that row.
  // Merging their col ranges on the fly yields the row's covered-column
  // intervals; every covered cell is evicted once and its live columns
  // appended to the SoA once, however many plans share it. Total gather
  // work is the union of the plan boxes, and within one grid row the
  // cells of any plan's box land contiguously in the SoA.
  const uint32_t band_rows = row_hi - row_lo + 1;
  std::vector<uint32_t>& row_start = scratch->row_start;
  row_start.assign(band_rows + 1, 0);
  for (const BatchPlan& plan : plans) {
    if (plan.row_lo > row_hi || plan.row_hi < row_lo) continue;
    const uint32_t p_lo = std::max(plan.row_lo, row_lo);
    const uint32_t p_hi = std::min(plan.row_hi, row_hi);
    for (uint32_t row = p_lo; row <= p_hi; ++row) {
      ++row_start[row - row_lo + 1];
    }
  }
  for (uint32_t r = 0; r < band_rows; ++r) row_start[r + 1] += row_start[r];
  std::vector<uint32_t>& row_items = scratch->row_items;
  row_items.resize(row_start[band_rows]);
  {
    std::vector<uint32_t>& cursor = scratch->cursor;
    cursor.assign(row_start.begin(), row_start.end() - 1);
    for (uint32_t i = 0; i < plans.size(); ++i) {
      const BatchPlan& plan = plans[i];
      if (plan.row_lo > row_hi || plan.row_hi < row_lo) continue;
      const uint32_t p_lo = std::max(plan.row_lo, row_lo);
      const uint32_t p_hi = std::min(plan.row_hi, row_hi);
      for (uint32_t row = p_lo; row <= p_hi; ++row) {
        row_items[cursor[row - row_lo]++] = i;
      }
    }
  }
  for (uint32_t row = row_lo; row <= row_hi; ++row) {
    const uint32_t item_lo = row_start[row - row_lo];
    const uint32_t item_hi = row_start[row - row_lo + 1];
    if (item_lo == item_hi) continue;
    const size_t base = static_cast<size_t>(row) * grid_.cols();
    // Sweep this row's plans (col_lo-ordered) as merged col intervals.
    uint32_t cur_lo = plans[row_items[item_lo]].col_lo;
    uint32_t cur_hi = plans[row_items[item_lo]].col_hi;
    for (uint32_t it = item_lo + 1; it <= item_hi; ++it) {
      const bool flush =
          it == item_hi || plans[row_items[it]].col_lo > cur_hi + 1;
      if (!flush) {
        cur_hi = std::max(cur_hi, plans[row_items[it]].col_hi);
        continue;
      }
      for (uint32_t col = cur_lo; col <= cur_hi; ++col) {
        const size_t idx = base + col;
        Cell& cell = cells_[idx];
        // Evicting at the batch-minimum cutoff leaves every row any plan
        // may count; plans with stricter cutoffs skip the stale prefix
        // via a lower bound over the (arrival-ordered) timestamps.
        evicted += EvictCell(&cell, reader, min_cutoff);
        const size_t n = cell.live();
        off_lo[idx] = static_cast<uint32_t>(gathered->size());
        if (n > 0) {
          gathered->Append(reader, cell.rows.data() + cell.head, n, want_ts);
        }
        off_hi[idx] = static_cast<uint32_t>(gathered->size());
      }
      if (it < item_hi) {
        cur_lo = plans[row_items[it]].col_lo;
        cur_hi = plans[row_items[it]].col_hi;
      }
    }
  }

  // --- Count phase. Per (plan, grid row), the plan's covered cells form
  // one contiguous SoA range [off_lo[first cell], off_hi[last cell]), so
  // a uniform-cutoff strip is one kernel sweep — split around its
  // fully-interior middle, which counts from the offsets alone. Only
  // stricter-than-minimum cutoffs fall back to per-cell ranges (each
  // cell's run is arrival-ordered; a strip as a whole is not).
  const geo::Point* locs = gathered->locs.data();
  for (const BatchPlan& plan : plans) {
    if (plan.row_hi < row_lo || plan.row_lo > row_hi) continue;
    const uint32_t p_row_lo = std::max(plan.row_lo, row_lo);
    const uint32_t p_row_hi = std::min(plan.row_hi, row_hi);
    uint64_t c = 0;
    for (uint32_t row = p_row_lo; row <= p_row_hi; ++row) {
      const size_t base = static_cast<size_t>(row) * grid_.cols();
      const uint32_t lo = off_lo[base + plan.col_lo];
      const uint32_t hi = off_hi[base + plan.col_hi];
      if (lo >= hi) continue;
      if (plan.cutoff > min_cutoff) {
        const stream::Timestamp* ts = gathered->ts.data();
        for (uint32_t col = plan.col_lo; col <= plan.col_hi; ++col) {
          const uint32_t clo = off_lo[base + col];
          const uint32_t chi = off_hi[base + col];
          if (clo >= chi) continue;
          const uint32_t start =
              clo + static_cast<uint32_t>(simd::LowerBoundTimestamp(
                        ts + clo, chi - clo, plan.cutoff));
          if (!plan.has_range ||
              (row > plan.row_lo && row < plan.row_hi &&
               col > plan.col_lo && col < plan.col_hi)) {
            c += chi - start;
          } else {
            c += simd::RectContainCount(locs + start, chi - start,
                                        *plan.q->range);
          }
        }
      } else if (!plan.has_range) {
        c += hi - lo;
      } else if (row > plan.row_lo && row < plan.row_hi &&
                 plan.col_hi > plan.col_lo + 1) {
        // Interior row: only the strip's first and last cells need point
        // tests; everything between is strictly inside the query rect.
        const uint32_t mid_lo = off_hi[base + plan.col_lo];
        const uint32_t mid_hi = off_lo[base + plan.col_hi];
        c += simd::RectContainCount(locs + lo, mid_lo - lo, *plan.q->range);
        c += mid_hi - mid_lo;
        c += simd::RectContainCount(locs + mid_hi, hi - mid_hi,
                                    *plan.q->range);
      } else {
        c += simd::RectContainCount(locs + lo, hi - lo, *plan.q->range);
      }
    }
    counts[plan.out_idx] += c;
  }
  return evicted;
}

void GridIndex::CountMatchesBatch(const stream::Query* const* queries,
                                  const stream::Timestamp* cutoffs, size_t k,
                                  uint64_t* counts) {
  if (k == 0) return;
  std::vector<BatchPlan> plans;
  plans.reserve(k);
  stream::Timestamp min_cutoff = std::numeric_limits<stream::Timestamp>::max();
  uint32_t u_row_lo = 0;
  uint32_t u_row_hi = 0;
  for (size_t i = 0; i < k; ++i) {
    counts[i] = 0;
    BatchPlan plan;
    plan.q = queries[i];
    plan.cutoff = cutoffs[i];
    plan.out_idx = static_cast<uint32_t>(i);
    assert(!queries[i]->HasKeywords());
    plan.has_range = queries[i]->HasRange();
    plan.col_hi = grid_.cols() - 1;
    plan.row_hi = grid_.rows() - 1;
    if (plan.has_range &&
        !grid_.CellRange(*queries[i]->range, &plan.col_lo, &plan.row_lo,
                         &plan.col_hi, &plan.row_hi)) {
      continue;  // Range misses the grid: zero matches, skip the scan.
    }
    if (plans.empty()) {
      u_row_lo = plan.row_lo;
      u_row_hi = plan.row_hi;
    } else {
      u_row_lo = std::min(u_row_lo, plan.row_lo);
      u_row_hi = std::max(u_row_hi, plan.row_hi);
    }
    min_cutoff = std::min(min_cutoff, plan.cutoff);
    plans.push_back(plan);
  }
  if (plans.empty()) return;
  bool want_ts = false;
  for (const BatchPlan& plan : plans) {
    // Timestamps are only consulted to lower-bound past a stricter-than-
    // batch-minimum cutoff; a uniform-cutoff batch never reads them.
    want_ts |= plan.cutoff > min_cutoff;
  }
  // The interval sweep in BatchScanRows admits plans in column order.
  std::sort(plans.begin(), plans.end(),
            [](const BatchPlan& a, const BatchPlan& b) {
              return a.col_lo < b.col_lo;
            });
  size_ -= BatchScanRows(plans, min_cutoff, u_row_lo, u_row_hi, want_ts,
                         counts, &batch_scratch_);
}

void GridIndex::Clear() {
  for (Cell& cell : cells_) {
    cell.rows.clear();
    cell.head = 0;
    cell.head_ts = kUnknownTs;
  }
  size_ = 0;
}

}  // namespace latest::exact
