#include "estimators/histogram2d_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "simd/kernels.h"

namespace latest::estimators {

namespace {

// Side length of the square grid for a cell budget (largest square <=
// budget).
uint32_t GridSide(uint32_t cells) {
  auto side = static_cast<uint32_t>(std::sqrt(static_cast<double>(cells)));
  while ((side + 1) * (side + 1) <= cells) ++side;
  return std::max(1u, side);
}

}  // namespace

Histogram2dEstimator::Histogram2dEstimator(const EstimatorConfig& config)
    : WindowedEstimatorBase(config.window.num_slices),
      grid_(config.bounds, GridSide(config.histogram_cells),
            GridSide(config.histogram_cells)),
      num_slices_(config.window.num_slices),
      slice_counts_(static_cast<size_t>(config.window.num_slices) *
                    grid_.num_cells()),
      live_counts_(grid_.num_cells()) {}

void Histogram2dEstimator::InsertImpl(const stream::GeoTextObject& obj) {
  const uint32_t cell = grid_.CellOf(obj.loc);
  ++slice_counts_[static_cast<size_t>(head_slice_) * grid_.num_cells() + cell];
  ++live_counts_[cell];
}

void Histogram2dEstimator::InsertBatchImpl(const stream::GeoTextObject* objs,
                                           size_t n) {
  if (n == 0) return;
  batch_cells_.resize(n);
  // The strided kernel reads locations straight out of the object records
  // (no densifying copy pass) and reproduces CellOf bit-for-bit given the
  // grid's own cell extents, so batch and scalar inserts build identical
  // histograms.
  simd::HistogramCellIdsStrided(&objs[0].loc, sizeof(stream::GeoTextObject), n,
                                grid_.bounds(), grid_.cell_width(),
                                grid_.cell_height(), grid_.cols(), grid_.rows(),
                                batch_cells_.data());
  uint64_t* slice =
      &slice_counts_[static_cast<size_t>(head_slice_) * grid_.num_cells()];
  for (size_t i = 0; i < n; ++i) {
    const uint32_t cell = batch_cells_[i];
    ++slice[cell];
    ++live_counts_[cell];
  }
}

void Histogram2dEstimator::RotateImpl() {
  // The next ring position holds the oldest slice; subtract and reuse it.
  head_slice_ = (head_slice_ + 1) % num_slices_;
  uint64_t* oldest =
      &slice_counts_[static_cast<size_t>(head_slice_) * grid_.num_cells()];
  for (uint32_t c = 0; c < grid_.num_cells(); ++c) {
    assert(live_counts_[c] >= oldest[c]);
    live_counts_[c] -= oldest[c];
    oldest[c] = 0;
  }
}

double Histogram2dEstimator::Estimate(const stream::Query& q) const {
  if (!q.HasRange()) {
    // Pure keyword query: no textual statistics; fall back to everything.
    return static_cast<double>(seen_population());
  }
  uint32_t col_lo;
  uint32_t row_lo;
  uint32_t col_hi;
  uint32_t row_hi;
  if (!grid_.CellRange(*q.range, &col_lo, &row_lo, &col_hi, &row_hi)) {
    return 0.0;
  }
  double estimate = 0.0;
  for (uint32_t row = row_lo; row <= row_hi; ++row) {
    for (uint32_t col = col_lo; col <= col_hi; ++col) {
      const uint32_t cell = row * grid_.cols() + col;
      const uint64_t count = live_counts_[cell];
      if (count == 0) continue;
      // Uniformity assumption inside the cell.
      const double fraction = grid_.CellRect(cell).OverlapFraction(*q.range);
      estimate += static_cast<double>(count) * fraction;
    }
  }
  return estimate;
}

size_t Histogram2dEstimator::MemoryBytes() const {
  return slice_counts_.size() * sizeof(uint64_t) +
         live_counts_.size() * sizeof(uint64_t);
}

void Histogram2dEstimator::SaveStateImpl(util::BinaryWriter* writer) const {
  writer->WriteU64(slice_counts_.size());
  writer->WriteBytes(slice_counts_.data(),
                     slice_counts_.size() * sizeof(uint64_t));
  writer->WriteBytes(live_counts_.data(),
                     live_counts_.size() * sizeof(uint64_t));
  writer->WriteU32(head_slice_);
}

bool Histogram2dEstimator::LoadStateImpl(util::BinaryReader* reader) {
  uint64_t num_counts;
  if (!reader->ReadU64(&num_counts) || num_counts != slice_counts_.size()) {
    return false;
  }
  return reader->ReadBytes(slice_counts_.data(),
                           slice_counts_.size() * sizeof(uint64_t)) &&
         reader->ReadBytes(live_counts_.data(),
                           live_counts_.size() * sizeof(uint64_t)) &&
         reader->ReadU32(&head_slice_) && head_slice_ < num_slices_;
}

}  // namespace latest::estimators
