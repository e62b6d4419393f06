// Data-driven sum-product network estimator (SPN in the paper; Poon &
// Domingos, 2012).
//
// A compact SPN over the joint distribution of (x, y, keyword): a sum node
// mixes K cluster components; each component is a product node over
// independent leaf distributions — an x histogram, a y histogram, and a
// hashed keyword-bucket categorical. Cluster responsibilities come from
// online k-means over locations; a per-window sample buffer periodically
// re-fits the cluster centers (the model-update cost the paper calls out
// as SPN's weakness in streaming settings).
//
// A query's probability is sum_k w_k * P_k(x in Rx) * P_k(y in Ry) *
// P_k(kw hits W), dropping factors for absent predicates; the estimate is
// that probability times the seen population. Window expiry uses
// geometric decay of all leaf masses per slice rotation.

#ifndef LATEST_ESTIMATORS_SPN_ESTIMATOR_H_
#define LATEST_ESTIMATORS_SPN_ESTIMATOR_H_

#include <vector>

#include "estimators/windowed_estimator_base.h"
#include "util/rng.h"

namespace latest::estimators {

/// SPN: the data-driven sum-product network estimator.
class SpnEstimator : public WindowedEstimatorBase {
 public:
  explicit SpnEstimator(const EstimatorConfig& config);

  EstimatorKind kind() const override { return EstimatorKind::kSpn; }
  double Estimate(const stream::Query& q) const override;
  size_t MemoryBytes() const override;

  uint32_t num_clusters() const {
    return static_cast<uint32_t>(clusters_.size());
  }

  /// Mixture weight of one cluster (testing hook).
  double ClusterWeight(uint32_t k) const { return clusters_[k].weight; }

 protected:
  void InsertImpl(const stream::GeoTextObject& obj) override;
  void RotateImpl() override;
  void SaveStateImpl(util::BinaryWriter* writer) const override;
  bool LoadStateImpl(util::BinaryReader* reader) override;

 private:
  struct Cluster {
    geo::Point center;
    double weight = 0.0;               // Decayed object count.
    std::vector<double> x_bins;        // Decayed histogram masses.
    std::vector<double> y_bins;
    std::vector<double> keyword_buckets;
  };

  uint32_t NearestCluster(const geo::Point& p) const;
  /// Probability mass of a 1-D histogram within [lo, hi] (domain-relative).
  double IntervalMass(const std::vector<double>& bins, double weight,
                      double domain_lo, double domain_hi, double lo,
                      double hi) const;
  double KeywordMissProbability(
      const Cluster& cluster,
      const std::vector<stream::KeywordId>& keywords) const;
  /// K-means recentering passes over the window sample buffer.
  void RefitCenters();

  geo::Rect bounds_;
  uint32_t bins_;
  uint32_t keyword_buckets_;
  double decay_factor_;
  uint32_t sample_capacity_per_slice_;
  uint64_t hash_seed_;
  util::Rng rng_;

  std::vector<Cluster> clusters_;
  double total_weight_ = 0.0;

  /// Per-slice location samples for center refits.
  struct SliceSample {
    std::vector<geo::Point> points;
    uint64_t seen = 0;
  };
  stream::SliceRing<SliceSample> samples_;
};

}  // namespace latest::estimators

#endif  // LATEST_ESTIMATORS_SPN_ESTIMATOR_H_
