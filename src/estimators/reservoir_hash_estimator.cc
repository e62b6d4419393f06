#include "estimators/reservoir_hash_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace latest::estimators {

namespace {

uint32_t GridSide(uint32_t cells) {
  auto side = static_cast<uint32_t>(std::sqrt(static_cast<double>(cells)));
  while ((side + 1) * (side + 1) <= cells) ++side;
  return std::max(1u, side);
}

}  // namespace

ReservoirHashEstimator::ReservoirHashEstimator(const EstimatorConfig& config)
    : WindowedEstimatorBase(config.window.num_slices),
      grid_(config.bounds, GridSide(config.rsh_grid_cells),
            GridSide(config.rsh_grid_cells)),
      capacity_per_slice_(std::max(
          1u, config.reservoir_capacity / config.window.num_slices)),
      slices_(config.window.num_slices),
      rng_(config.seed) {}

void ReservoirHashEstimator::MapInsert(Slice* slice, uint32_t cell,
                                       uint32_t index) const {
  slice->by_cell[cell].push_back(index);
}

void ReservoirHashEstimator::MapRemove(Slice* slice, uint32_t cell,
                                       uint32_t index) const {
  auto it = slice->by_cell.find(cell);
  assert(it != slice->by_cell.end());
  auto& indexes = it->second;
  const auto pos = std::find(indexes.begin(), indexes.end(), index);
  assert(pos != indexes.end());
  *pos = indexes.back();  // Swap-remove: order within a cell is irrelevant.
  indexes.pop_back();
  if (indexes.empty()) slice->by_cell.erase(it);
}

void ReservoirHashEstimator::ReserveSlice(Slice* slice) const {
  slice->sample.Reserve(capacity_per_slice_);
  slice->sample_cells.reserve(capacity_per_slice_);
  // At most one map entry per sampled slot.
  slice->by_cell.reserve(capacity_per_slice_);
}

void ReservoirHashEstimator::InsertImpl(const stream::GeoTextObject& obj) {
  Slice& slice = slices_.Current();
  ++slice.seen;
  const uint32_t cell = grid_.CellOf(obj.loc);
  if (slice.sample.size() < capacity_per_slice_) {
    if (slice.sample.empty()) ReserveSlice(&slice);
    const auto index = static_cast<uint32_t>(slice.sample.size());
    slice.sample.PushBack(obj);
    slice.sample_cells.push_back(cell);
    MapInsert(&slice, cell, index);
    return;
  }
  const uint64_t j = rng_.NextBounded(slice.seen);
  if (j < capacity_per_slice_) {
    const auto index = static_cast<uint32_t>(j);
    MapRemove(&slice, slice.sample_cells[index], index);
    slice.sample.Replace(index, obj);
    slice.sample_cells[index] = cell;
    MapInsert(&slice, cell, index);
  }
}

void ReservoirHashEstimator::RotateImpl() { slices_.Rotate(); }

uint64_t ReservoirHashEstimator::SpatialSliceMatches(
    const Slice& slice, const stream::Query& q) const {
  uint32_t col_lo;
  uint32_t row_lo;
  uint32_t col_hi;
  uint32_t row_hi;
  if (!grid_.CellRange(*q.range, &col_lo, &row_lo, &col_hi, &row_hi)) {
    return 0;
  }
  const uint64_t range_cells = static_cast<uint64_t>(col_hi - col_lo + 1) *
                               (row_hi - row_lo + 1);
  uint64_t matches = 0;
  if (range_cells <= slice.by_cell.size()) {
    // Few candidate cells: probe each one in the map.
    for (uint32_t row = row_lo; row <= row_hi; ++row) {
      for (uint32_t col = col_lo; col <= col_hi; ++col) {
        const auto it = slice.by_cell.find(row * grid_.cols() + col);
        if (it == slice.by_cell.end()) continue;
        for (const uint32_t index : it->second) {
          if (slice.sample.Matches(q, index)) ++matches;
        }
      }
    }
  } else {
    // Huge range: iterating occupied cells is cheaper.
    for (const auto& [cell, indexes] : slice.by_cell) {
      const auto [col, row] = grid_.CellCoords(cell);
      if (col < col_lo || col > col_hi || row < row_lo || row > row_hi) {
        continue;
      }
      for (const uint32_t index : indexes) {
        if (slice.sample.Matches(q, index)) ++matches;
      }
    }
  }
  return matches;
}

double ReservoirHashEstimator::Estimate(const stream::Query& q) const {
  double estimate = 0.0;
  slices_.ForEach([&](const Slice& slice) {
    if (slice.sample.empty()) return;
    uint64_t matches = 0;
    if (q.HasRange()) {
      matches = SpatialSliceMatches(slice, q);
    } else {
      const size_t n = slice.sample.size();
      for (size_t i = 0; i < n; ++i) {
        if (slice.sample.Matches(q, i)) ++matches;
      }
    }
    estimate += static_cast<double>(matches) /
                static_cast<double>(slice.sample.size()) *
                static_cast<double>(slice.seen);
  });
  return estimate;
}

uint64_t ReservoirHashEstimator::SampleSize() const {
  uint64_t total = 0;
  slices_.ForEach([&](const Slice& slice) { total += slice.sample.size(); });
  return total;
}

size_t ReservoirHashEstimator::MemoryBytes() const {
  size_t bytes = 0;
  slices_.ForEach([&](const Slice& slice) {
    bytes += sizeof(Slice) + slice.sample.MemoryBytes() +
             slice.sample_cells.capacity() * sizeof(uint32_t);
    for (const auto& [cell, indexes] : slice.by_cell) {
      (void)cell;
      bytes += sizeof(uint32_t) + indexes.capacity() * sizeof(uint32_t) +
               sizeof(void*) * 2;  // Bucket overhead approximation.
    }
  });
  return bytes;
}

void ReservoirHashEstimator::SaveStateImpl(util::BinaryWriter* writer) const {
  // by_cell is rebuilt from sample_cells on load: match counting per cell
  // is order-independent, so the rebuilt map estimates identically.
  slices_.Save(writer, [](const Slice& slice, util::BinaryWriter* w) {
    slice.sample.Save(w);
    w->WriteU64(slice.sample_cells.size());
    w->WriteBytes(slice.sample_cells.data(),
                  slice.sample_cells.size() * sizeof(uint32_t));
    w->WriteU64(slice.seen);
  });
  rng_.Save(writer);
}

bool ReservoirHashEstimator::LoadStateImpl(util::BinaryReader* reader) {
  const bool ok =
      slices_.Load(reader, [this](Slice* slice, util::BinaryReader* r) {
        if (!slice->sample.Load(r)) return false;
        uint64_t num_cells;
        if (!r->ReadU64(&num_cells) || num_cells != slice->sample.size() ||
            r->remaining() < num_cells * sizeof(uint32_t)) {
          return false;
        }
        slice->sample_cells.resize(num_cells);
        if (!r->ReadBytes(slice->sample_cells.data(),
                          num_cells * sizeof(uint32_t)) ||
            !r->ReadU64(&slice->seen)) {
          return false;
        }
        slice->by_cell.clear();
        slice->by_cell.reserve(capacity_per_slice_);
        for (uint32_t i = 0; i < slice->sample_cells.size(); ++i) {
          MapInsert(slice, slice->sample_cells[i], i);
        }
        return true;
      });
  return ok && rng_.Load(reader);
}

}  // namespace latest::estimators
