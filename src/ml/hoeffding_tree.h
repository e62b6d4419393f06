// Hoeffding tree / Very Fast Decision Tree (VFDT), the incremental
// learning model at the heart of LATEST (Section V-B).
//
// The VFDT (Domingos & Hulten, KDD 2000) builds a decision tree over a
// stream by reading each training record at most once. A leaf accumulates
// sufficient statistics; every `grace_period` records it evaluates
// candidate splits by information gain and splits when the gain margin
// between the best and second-best attribute exceeds the Hoeffding bound
//
//     epsilon = sqrt(R^2 * ln(1/delta) / (2 n)),   R = log2(num_classes),
//
// or when the bound falls below the tie threshold. Categorical attributes
// split multiway; numeric attributes split binary on a threshold evaluated
// through per-class Gaussian observers. Leaf prediction is majority class
// (the paper's WEKA configuration).

#ifndef LATEST_ML_HOEFFDING_TREE_H_
#define LATEST_ML_HOEFFDING_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/feature.h"
#include "ml/gaussian_estimator.h"
#include "util/serialization.h"
#include "util/status.h"

namespace latest::ml {

/// Tuning knobs of the Hoeffding tree. Defaults follow the WEKA
/// HoeffdingTree defaults used by the paper.
struct HoeffdingTreeConfig {
  /// Records a leaf accumulates between split attempts.
  uint32_t grace_period = 200;

  /// One minus the confidence that the chosen split is the true best
  /// (the delta of the Hoeffding bound).
  double split_confidence = 1e-7;

  /// Split anyway when the Hoeffding bound is below this (tie breaking).
  double tie_threshold = 0.05;

  /// Candidate thresholds evaluated per numeric attribute.
  uint32_t numeric_split_candidates = 10;

  /// Hard cap on tree depth (safety net; never reached in practice).
  uint32_t max_depth = 32;

  util::Status Validate() const;
};

/// Incremental decision-tree classifier over a mixed feature schema.
class HoeffdingTree {
 public:
  HoeffdingTree(const FeatureSchema& schema, const HoeffdingTreeConfig& config);
  ~HoeffdingTree();

  /// Non-copyable (owns a node tree).
  HoeffdingTree(const HoeffdingTree&) = delete;
  HoeffdingTree& operator=(const HoeffdingTree&) = delete;

  /// Consumes one labeled record (constant amortized time).
  void Train(const TrainingExample& example);

  /// Majority-class prediction at the reached leaf.
  uint32_t Predict(const FeatureVector& features) const;

  /// Class distribution (relative frequencies) at the reached leaf. Sums
  /// to 1 once the leaf has seen data; uniform before.
  std::vector<double> PredictDistribution(const FeatureVector& features) const;

  /// Total records trained on.
  uint64_t num_trained() const { return num_trained_; }

  /// Number of leaves (1 for a stump).
  uint64_t num_leaves() const { return num_leaves_; }

  /// Number of internal split nodes.
  uint64_t num_splits() const { return num_splits_; }

  /// Maximum depth of any leaf.
  uint32_t depth() const { return depth_; }

  const FeatureSchema& schema() const { return schema_; }
  const HoeffdingTreeConfig& config() const { return config_; }

  /// Discards the model; the Section V-D retraining trigger re-grows the
  /// tree from subsequent records.
  void Reset();

  /// Persists the full tree (structure + sufficient statistics) so a
  /// restarted process resumes with the learned model.
  void Serialize(util::BinaryWriter* writer) const;

  /// Restores a tree persisted by Serialize into this instance; the
  /// schema must match the one it was saved with. On failure the tree is
  /// reset and an error is returned.
  util::Status Restore(util::BinaryReader* reader);

 private:
  struct Node;

  /// Statistics a leaf keeps to evaluate candidate splits.
  struct LeafStats {
    std::vector<uint64_t> class_counts;
    // Per categorical attribute: counts[attr][value * num_classes + cls].
    std::vector<std::vector<uint64_t>> categorical_counts;
    // Per numeric attribute, per class: a Gaussian observer.
    std::vector<std::vector<GaussianEstimator>> numeric_observers;
    uint64_t seen = 0;
    uint64_t seen_at_last_attempt = 0;
  };

  struct SplitCandidate {
    double gain = -1.0;
    bool is_numeric = false;
    uint32_t attribute = 0;
    double threshold = 0.0;  // Numeric splits only.
  };

  Node* ReachLeaf(const FeatureVector& features) const;
  void SerializeNode(const Node& node, util::BinaryWriter* writer) const;
  bool RestoreNode(Node* node, util::BinaryReader* reader, uint32_t depth);
  void InitLeafStats(Node* node);
  void UpdateLeafStats(Node* node, const TrainingExample& example);
  void AttemptSplit(Node* node);
  SplitCandidate BestCategoricalSplit(const LeafStats& stats,
                                      uint32_t attr) const;
  SplitCandidate BestNumericSplit(const LeafStats& stats, uint32_t attr) const;
  void ApplySplit(Node* node, const SplitCandidate& split);

  FeatureSchema schema_;
  HoeffdingTreeConfig config_;
  std::unique_ptr<Node> root_;
  uint64_t num_trained_ = 0;
  uint64_t num_leaves_ = 1;
  uint64_t num_splits_ = 0;
  uint32_t depth_ = 0;
};

/// Shannon entropy (bits) of a class-count histogram.
double Entropy(const std::vector<double>& counts);

/// The Hoeffding bound for range R, confidence delta, and n observations.
double HoeffdingBound(double range, double delta, uint64_t n);

}  // namespace latest::ml

#endif  // LATEST_ML_HOEFFDING_TREE_H_
