// Count-Min sketch spatio-textual estimator (CMS) — a portfolio
// extension beyond the paper's six members.
//
// Section IV notes that "system administrators can select a different
// set of estimators that fit their needs"; this member demonstrates the
// extension path. It summarizes the window with three bounded-memory
// decayed structures:
//
//   * a coarse per-cell count grid            -> pure spatial queries,
//   * a Count-Min sketch over keyword ids     -> pure keyword queries,
//   * a Count-Min sketch over (cell, keyword) -> hybrid queries.
//
// Count-Min estimates never undercount (within the decay approximation)
// but collide upward, so CMS trades a little accuracy for O(1) updates
// and microsecond estimates at a few hundred KiB — a classic sketch
// profile distinct from every paper member. Disabled by default in
// LatestConfig so the paper-reproduction experiments keep the original
// six-member portfolio.

#ifndef LATEST_ESTIMATORS_CM_SKETCH_ESTIMATOR_H_
#define LATEST_ESTIMATORS_CM_SKETCH_ESTIMATOR_H_

#include <vector>

#include "estimators/windowed_estimator_base.h"
#include "geo/grid.h"

namespace latest::estimators {

/// Bounded-memory Count-Min sketch over 64-bit keys with decayed counts.
class CountMinSketch {
 public:
  /// depth: hash rows. width: counters per row. seed: hash family.
  CountMinSketch(uint32_t depth, uint32_t width, uint64_t seed);

  /// Adds `weight` to the key's counters.
  void Add(uint64_t key, double weight = 1.0);

  /// Point estimate: the minimum counter across rows (upper bound on the
  /// decayed true count).
  double Estimate(uint64_t key) const;

  /// Multiplies every counter by `factor` (window decay).
  void Decay(double factor);

  size_t MemoryBytes() const { return counters_.size() * sizeof(double); }

  /// Persists the counter matrix (depth/width/seed written for
  /// validation).
  void Save(util::BinaryWriter* writer) const;

  /// Restores a state persisted by Save; shape and seed must match. False
  /// on mismatch or truncation.
  bool Load(util::BinaryReader* reader);

 private:
  size_t Index(uint32_t row, uint64_t key) const;

  uint32_t depth_;
  uint32_t width_;
  uint64_t seed_;
  std::vector<double> counters_;  // depth_ x width_, row-major.
};

/// CMS: the sketch-based estimator.
class CmSketchEstimator : public WindowedEstimatorBase {
 public:
  explicit CmSketchEstimator(const EstimatorConfig& config);

  EstimatorKind kind() const override { return EstimatorKind::kCmSketch; }
  double Estimate(const stream::Query& q) const override;
  size_t MemoryBytes() const override;

  const geo::Grid& grid() const { return grid_; }

 protected:
  void InsertImpl(const stream::GeoTextObject& obj) override;
  void RotateImpl() override;
  void SaveStateImpl(util::BinaryWriter* writer) const override;
  bool LoadStateImpl(util::BinaryReader* reader) override;

 private:
  /// P(object carries at least one query keyword), via sketch counts
  /// under keyword independence.
  double KeywordProbability(const std::vector<stream::KeywordId>& keywords,
                            double population) const;
  uint64_t PairKey(uint32_t cell, stream::KeywordId kw) const;

  geo::Grid grid_;
  double decay_factor_;
  std::vector<double> cell_counts_;  // Decayed, one per grid cell.
  double decayed_population_ = 0.0;
  CountMinSketch keyword_sketch_;
  CountMinSketch pair_sketch_;
};

}  // namespace latest::estimators

#endif  // LATEST_ESTIMATORS_CM_SKETCH_ESTIMATOR_H_
