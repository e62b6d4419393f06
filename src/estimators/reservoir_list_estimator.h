// Reservoir sampling list estimator (RSL in the paper).
//
// Algorithm R (Vitter, TOMS 1985): keep a fixed-capacity uniform sample of
// the stream; estimate selectivity as the matching sample fraction scaled
// by the population. Because the sample holds actual objects with all
// attributes, RSL supports spatial, keyword, and hybrid predicates alike —
// which is why the paper finds it (and its hybrid sibling RSH) the
// accuracy winner on keyword-bearing workloads.
//
// Window expiry: the total capacity N is divided evenly across the window
// time slices; each slice runs its own Algorithm R reservoir over the
// objects that arrived during that slice. Per-slice uniform samples with
// per-slice scale-up give an unbiased stratified estimate over the window,
// and expiring a slice simply drops its reservoir.

#ifndef LATEST_ESTIMATORS_RESERVOIR_LIST_ESTIMATOR_H_
#define LATEST_ESTIMATORS_RESERVOIR_LIST_ESTIMATOR_H_

#include "estimators/sample_columns.h"
#include "estimators/windowed_estimator_base.h"
#include "util/rng.h"

namespace latest::estimators {

/// One slice's reservoir: a uniform sample of the slice's arrivals, held
/// as SoA columns (see SampleColumns).
struct SliceReservoir {
  SampleColumns sample;
  uint64_t seen = 0;
};

/// RSL: the reservoir sampling list estimator.
class ReservoirListEstimator : public WindowedEstimatorBase {
 public:
  explicit ReservoirListEstimator(const EstimatorConfig& config);

  EstimatorKind kind() const override { return EstimatorKind::kRsl; }
  double Estimate(const stream::Query& q) const override;
  size_t MemoryBytes() const override;

  /// Total objects currently sampled across all slices (testing hook).
  uint64_t SampleSize() const;

  uint32_t capacity_per_slice() const { return capacity_per_slice_; }

 protected:
  void InsertImpl(const stream::GeoTextObject& obj) override;
  void RotateImpl() override;
  void SaveStateImpl(util::BinaryWriter* writer) const override;
  bool LoadStateImpl(util::BinaryReader* reader) override;

 private:
  uint32_t capacity_per_slice_;
  stream::SliceRing<SliceReservoir> slices_;
  util::Rng rng_;
};

}  // namespace latest::estimators

#endif  // LATEST_ESTIMATORS_RESERVOIR_LIST_ESTIMATOR_H_
