// Two-dimensional equi-width histogram estimator (H4096 in the paper).
//
// Divides the spatial domain into a regular grid of equal cells, storing
// per-cell object counts only (Figure 1(a)). Range counts assume uniform
// density within partially covered cells (fractional overlap). The
// structure keeps *purely spatial* statistics, so keyword predicates are
// ignored: pure keyword queries fall back to the whole seen population and
// hybrid queries return the spatial-only count — reproducing the paper's
// observation that H4096 excels on pure spatial workloads and degrades
// sharply when keyword predicates flow.
//
// Window expiry: per-cell counts are kept per time slice; the oldest slice
// is subtracted from the live counts on rotation.

#ifndef LATEST_ESTIMATORS_HISTOGRAM2D_ESTIMATOR_H_
#define LATEST_ESTIMATORS_HISTOGRAM2D_ESTIMATOR_H_

#include <vector>

#include "estimators/windowed_estimator_base.h"
#include "geo/grid.h"

namespace latest::estimators {

/// H4096: the 2-D histogram estimator.
class Histogram2dEstimator : public WindowedEstimatorBase {
 public:
  explicit Histogram2dEstimator(const EstimatorConfig& config);

  EstimatorKind kind() const override { return EstimatorKind::kH4096; }
  double Estimate(const stream::Query& q) const override;
  size_t MemoryBytes() const override;

  const geo::Grid& grid() const { return grid_; }

  /// Live window count of one cell (testing hook).
  uint64_t CellCount(uint32_t cell) const { return live_counts_[cell]; }

 protected:
  void InsertImpl(const stream::GeoTextObject& obj) override;
  void InsertBatchImpl(const stream::GeoTextObject* objs, size_t n) override;
  void RotateImpl() override;
  void SaveStateImpl(util::BinaryWriter* writer) const override;
  bool LoadStateImpl(util::BinaryReader* reader) override;

 private:
  geo::Grid grid_;
  uint32_t num_slices_;
  // Ring of per-slice cell counts: slice_counts_[slice * cells + cell].
  std::vector<uint64_t> slice_counts_;
  uint32_t head_slice_ = 0;  // Ring position of the newest slice.
  // Sum over live slices, maintained incrementally.
  std::vector<uint64_t> live_counts_;
  // Batch-insert scratch (kernel-computed cell ids), reused across
  // batches. Locations are read in place via the strided kernel.
  std::vector<uint32_t> batch_cells_;
};

}  // namespace latest::estimators

#endif  // LATEST_ESTIMATORS_HISTOGRAM2D_ESTIMATOR_H_
