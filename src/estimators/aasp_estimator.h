// Augmented adaptive space partitioning (AASP) tree estimator
// (Wang et al., VLDB 2014; spatial core from Hershberger et al.,
// Algorithmica 2006).
//
// Following the paper's description — "KMV synopses of distinct elements
// of the stream and a set of adaptive space partition (ASP) trees" — the
// structure is a keyword-hash-partitioned *forest*: each object is routed
// by its first keyword into one of `aasp_partitions` ASP trees. An ASP
// tree is a compressed 4-ary quadtree where each node carries a counter
// and every data point is counted by exactly one node (the leaf reached at
// insertion time, Figure 1(c)); leaves split when their live count exceeds
// a density threshold controlled by `aasp_split_value`. Nodes additionally
// keep bounded Space-Saving keyword counters (local spatial-textual
// correlations) and the forest keeps per-slice KMV synopses of distinct
// keywords.
//
// Because predicates are tightly coupled to the partitioning, *every*
// query type aggregates across all partitions — the reason AASP is the
// slowest estimator of the portfolio and loses spatial resolution (each
// partition tree is a factor-P coarser summary), reproducing the paper's
// finding that the tightly coupled design underperforms on pure
// predicates.
//
// Window expiry: per-node per-slice counters (exact); keyword counters and
// the per-slice KMV ring decay/rotate alongside.

#ifndef LATEST_ESTIMATORS_AASP_ESTIMATOR_H_
#define LATEST_ESTIMATORS_AASP_ESTIMATOR_H_

#include <memory>
#include <vector>

#include "estimators/kmv_synopsis.h"
#include "estimators/space_saving.h"
#include "estimators/windowed_estimator_base.h"

namespace latest::estimators {

/// AASP: the augmented adaptive space partitioning forest estimator.
class AaspEstimator : public WindowedEstimatorBase {
 public:
  explicit AaspEstimator(const EstimatorConfig& config);
  ~AaspEstimator() override;

  EstimatorKind kind() const override { return EstimatorKind::kAasp; }
  double Estimate(const stream::Query& q) const override;
  size_t MemoryBytes() const override;

  /// Total tree nodes across all partitions (testing / memory hook).
  uint32_t num_nodes() const;

  /// Number of partition trees.
  uint32_t num_partitions() const {
    return static_cast<uint32_t>(partitions_.size());
  }

  /// Estimated distinct keywords in the window (KMV merge; testing hook).
  double EstimateDistinctKeywords() const;

  /// The live-count split threshold currently in force.
  uint64_t SplitThreshold() const;

 protected:
  void InsertImpl(const stream::GeoTextObject& obj) override;
  void RotateImpl() override;
  void SaveStateImpl(util::BinaryWriter* writer) const override;
  bool LoadStateImpl(util::BinaryReader* reader) override;

 private:
  struct Node;

  /// One ASP tree plus its node budget accounting.
  struct Partition {
    std::unique_ptr<Node> root;
    uint32_t num_nodes = 1;
  };

  /// Partition index an object's keyword set routes to.
  uint32_t PartitionOf(const std::vector<stream::KeywordId>& keywords) const;
  void SplitLeaf(Partition* partition, Node* node);
  int QuadrantOf(const Node& node, const geo::Point& p) const;
  /// Advances the ring head in every node; returns subtree live count and
  /// collapses empty subtrees.
  uint64_t RotateNode(Partition* partition, Node* node);
  double EstimateSpatial(const Node& node, const geo::Rect& range) const;
  double EstimateHybrid(const Node& node, const stream::Query& q) const;
  /// P(object carries at least one keyword of W), from global statistics.
  double GlobalKeywordProbability(
      const std::vector<stream::KeywordId>& keywords) const;
  /// Same, from one node's local counters (global fallback per keyword).
  double NodeKeywordProbability(
      const Node& node, const std::vector<stream::KeywordId>& keywords) const;
  /// Local-only variant: untracked keywords contribute nothing. Pure
  /// keyword queries aggregate this over all trees.
  double NodeKeywordProbabilityLocal(
      const Node& node, const std::vector<stream::KeywordId>& keywords) const;
  double EstimateKeywordOnly(const Node& node,
                             const std::vector<stream::KeywordId>& kw) const;
  /// Estimated per-keyword count for keywords the global counter dropped
  /// (cached; recomputed after rotations and periodically on insert).
  double UntrackedKeywordCount() const;
  size_t NodeMemoryBytes(const Node& node) const;
  std::unique_ptr<Node> MakeRoot() const;
  /// Recursive node persistence. Cells are not serialized: LoadNode
  /// re-derives each child cell from its parent with the same quadrant
  /// arithmetic SplitLeaf uses, so the geometry is bit-identical.
  void SaveNode(const Node& node, util::BinaryWriter* writer) const;
  bool LoadNode(Partition* partition, Node* node, util::BinaryReader* reader);

  geo::Rect bounds_;
  uint32_t num_slices_;
  double split_value_;
  uint32_t max_nodes_;
  uint32_t max_depth_;
  uint32_t node_keyword_capacity_;
  double decay_factor_;
  uint64_t partition_hash_seed_;

  std::vector<Partition> partitions_;
  uint32_t head_slice_ = 0;

  /// Global (whole-domain) keyword statistics for hybrid fallback.
  SpaceSavingCounter global_keywords_;
  double global_keyword_objects_ = 0.0;  // Decayed count of inserted objects.

  /// Per-slice KMV synopses of distinct keywords.
  std::vector<KmvSynopsis> slice_kmv_;

  /// Cached untracked-keyword count (KMV merges are too expensive to run
  /// per estimated keyword factor).
  mutable double cached_untracked_count_ = 0.0;
  mutable bool untracked_cache_valid_ = false;
  uint64_t inserts_since_cache_ = 0;
};

}  // namespace latest::estimators

#endif  // LATEST_ESTIMATORS_AASP_ESTIMATOR_H_
