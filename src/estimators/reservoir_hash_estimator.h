// Hybrid reservoir sampling hashmap estimator (RSH in the paper).
//
// The same windowed Algorithm R sample as RSL, but each slice additionally
// indexes its sampled objects by 2-D grid cell (Figure 1(b)). Spatial and
// hybrid queries then touch only the sample members inside candidate
// cells, cutting the iteration overhead of a flat reservoir list; pure
// keyword queries scan the full sample exactly like RSL. RSH is the
// paper's default estimator.

#ifndef LATEST_ESTIMATORS_RESERVOIR_HASH_ESTIMATOR_H_
#define LATEST_ESTIMATORS_RESERVOIR_HASH_ESTIMATOR_H_

#include <unordered_map>
#include <vector>

#include "estimators/sample_columns.h"
#include "estimators/windowed_estimator_base.h"
#include "geo/grid.h"
#include "util/rng.h"

namespace latest::estimators {

/// RSH: the grid-indexed reservoir estimator.
class ReservoirHashEstimator : public WindowedEstimatorBase {
 public:
  explicit ReservoirHashEstimator(const EstimatorConfig& config);

  EstimatorKind kind() const override { return EstimatorKind::kRsh; }
  double Estimate(const stream::Query& q) const override;
  size_t MemoryBytes() const override;

  /// Total objects currently sampled across all slices (testing hook).
  uint64_t SampleSize() const;

  const geo::Grid& grid() const { return grid_; }

 protected:
  void InsertImpl(const stream::GeoTextObject& obj) override;
  void RotateImpl() override;
  void SaveStateImpl(util::BinaryWriter* writer) const override;
  bool LoadStateImpl(util::BinaryReader* reader) override;

 private:
  /// One slice: a columnar reservoir plus a cell -> sample-index map.
  struct Slice {
    SampleColumns sample;
    std::vector<uint32_t> sample_cells;  // Parallel to `sample`.
    std::unordered_map<uint32_t, std::vector<uint32_t>> by_cell;
    uint64_t seen = 0;
  };

  /// Pre-sizes a fresh slice's sample columns and cell map to the
  /// reservoir capacity, so warm-up never rehashes or reallocates.
  void ReserveSlice(Slice* slice) const;

  void MapInsert(Slice* slice, uint32_t cell, uint32_t index) const;
  void MapRemove(Slice* slice, uint32_t cell, uint32_t index) const;
  /// Matches within one slice for a query with a spatial range.
  uint64_t SpatialSliceMatches(const Slice& slice,
                               const stream::Query& q) const;

  geo::Grid grid_;
  uint32_t capacity_per_slice_;
  stream::SliceRing<Slice> slices_;
  util::Rng rng_;
};

}  // namespace latest::estimators

#endif  // LATEST_ESTIMATORS_RESERVOIR_HASH_ESTIMATOR_H_
