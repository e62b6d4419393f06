// Workload-driven feed-forward neural network estimator (FFN in the
// paper).
//
// Instead of maintaining a data synopsis, the FFN learns the mapping from
// query features to selectivity from (query, true selectivity) pairs
// produced by the system log — the classic workload-driven approach
// (Lakshmi & Zhou, VLDB 1998; WEKA MultilayerPerceptron configuration of
// Section VI-A: learning rate 0.3, momentum 0.2, sigmoid activations).
// The network predicts the *selectivity fraction* of the window, which is
// scaled back by the seen population.
//
// Stream maintenance is nearly free (a decayed keyword-popularity counter
// feeds one input feature); all learning happens in OnFeedback, online
// plus periodic replay epochs over a bounded buffer.

#ifndef LATEST_ESTIMATORS_FFN_ESTIMATOR_H_
#define LATEST_ESTIMATORS_FFN_ESTIMATOR_H_

#include <vector>

#include "estimators/windowed_estimator_base.h"
#include "geo/grid.h"
#include "ml/mlp.h"

namespace latest::estimators {

/// FFN: the workload-driven neural estimator.
class FfnEstimator : public WindowedEstimatorBase {
 public:
  explicit FfnEstimator(const EstimatorConfig& config);

  EstimatorKind kind() const override { return EstimatorKind::kFfn; }
  double Estimate(const stream::Query& q) const override;
  void OnFeedback(const stream::Query& q, double estimate,
                  uint64_t actual) override;
  size_t MemoryBytes() const override;


  /// The feature vector the network sees for q (testing hook).
  std::vector<double> Featurize(const stream::Query& q) const;

 protected:
  void InsertImpl(const stream::GeoTextObject& obj) override;
  void RotateImpl() override;
  void SaveStateImpl(util::BinaryWriter* writer) const override;
  bool LoadStateImpl(util::BinaryReader* reader) override;

 private:
  /// Number of network inputs produced by Featurize.
  static constexpr uint32_t kNumFeatures = 9;
  /// Online steps between replay epochs.
  static constexpr uint32_t kReplayEvery = 256;

  /// Side of the coarse density grid backing the spatial prior feature.
  static constexpr uint32_t kPriorGridSide = 16;

  /// Crude spatial prior from the decayed density grid: expected count of
  /// a range under the coarse histogram.
  double SpatialPriorCount(const geo::Rect& range) const;

  /// Expected fraction of window objects matching at least one query
  /// keyword, from the hashed bucket counters (keyword independence).
  double KeywordPriorProbability(
      const std::vector<stream::KeywordId>& keywords) const;

  geo::Rect bounds_;
  double decay_factor_;
  uint32_t replay_capacity_;
  ml::Mlp network_;
  /// Keyword popularity is tracked through *hashed buckets*, not exact
  /// per-keyword counters: a workload-driven model sees query parameters,
  /// not a synopsis, so its popularity signal is deliberately coarse
  /// (bucket collisions blur rare keywords into their neighbours).
  std::vector<double> keyword_buckets_;
  uint64_t keyword_hash_seed_;
  double keyword_objects_ = 0.0;  // Decayed object count (normalizer).
  geo::Grid prior_grid_;
  std::vector<double> prior_counts_;  // Decayed, kPriorGridSide^2 cells.

  struct ReplayRecord {
    std::vector<double> features;
    double target;
  };
  std::vector<ReplayRecord> replay_;
  size_t replay_head_ = 0;
  uint64_t num_feedback_ = 0;
};

}  // namespace latest::estimators

#endif  // LATEST_ESTIMATORS_FFN_ESTIMATOR_H_
