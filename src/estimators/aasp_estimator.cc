#include "estimators/aasp_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/hashing.h"

namespace latest::estimators {

namespace {

constexpr uint64_t kMinSplitCount = 32;
constexpr uint32_t kMaxDepth = 16;

}  // namespace

struct AaspEstimator::Node {
  Node(const geo::Rect& cell_arg, uint32_t depth_arg, uint32_t num_slices,
       uint32_t keyword_capacity)
      : cell(cell_arg),
        depth(depth_arg),
        slice_counts(num_slices, 0),
        keywords(keyword_capacity) {}

  geo::Rect cell;
  uint32_t depth;
  std::vector<uint64_t> slice_counts;  // Ring indexed by the forest head.
  uint64_t live_count = 0;
  double decayed_count = 0.0;  // Normalizer for decayed keyword counters.
  SpaceSavingCounter keywords;
  std::unique_ptr<Node> children[4];
  bool is_leaf = true;
};

std::unique_ptr<AaspEstimator::Node> AaspEstimator::MakeRoot() const {
  return std::make_unique<Node>(bounds_, 0, num_slices_,
                                node_keyword_capacity_);
}

AaspEstimator::AaspEstimator(const EstimatorConfig& config)
    : WindowedEstimatorBase(config.window.num_slices),
      bounds_(config.bounds),
      num_slices_(config.window.num_slices),
      split_value_(config.aasp_split_value),
      max_nodes_(std::max(5u * std::max(1u, config.aasp_partitions),
                          config.aasp_max_nodes)),
      max_depth_(kMaxDepth),
      node_keyword_capacity_(config.aasp_node_keywords),
      decay_factor_(static_cast<double>(config.window.num_slices - 1) /
                    std::max(1u, config.window.num_slices)),
      partition_hash_seed_(config.seed ^ 0x0F0F0F0F0F0F0F0FULL),
      global_keywords_(config.aasp_root_keywords) {
  const uint32_t p = std::max(1u, config.aasp_partitions);
  partitions_.resize(p);
  for (auto& partition : partitions_) {
    partition.root = MakeRoot();
    partition.num_nodes = 1;
  }
  slice_kmv_.reserve(num_slices_);
  for (uint32_t i = 0; i < num_slices_; ++i) {
    slice_kmv_.emplace_back(config.aasp_kmv_size, config.seed);
  }
}

AaspEstimator::~AaspEstimator() = default;

uint32_t AaspEstimator::num_nodes() const {
  uint32_t total = 0;
  for (const auto& partition : partitions_) total += partition.num_nodes;
  return total;
}

uint64_t AaspEstimator::SplitThreshold() const {
  const uint32_t target_leaves = std::max(1u, max_nodes_ / 2);
  const double threshold = 2.0 * split_value_ *
                           static_cast<double>(seen_population()) /
                           static_cast<double>(target_leaves);
  return std::max<uint64_t>(kMinSplitCount,
                            static_cast<uint64_t>(threshold));
}

uint32_t AaspEstimator::PartitionOf(
    const std::vector<stream::KeywordId>& keywords) const {
  if (keywords.empty() || partitions_.size() == 1) return 0;
  return static_cast<uint32_t>(
      util::SeededHash(keywords.front(), partition_hash_seed_) %
      partitions_.size());
}

int AaspEstimator::QuadrantOf(const Node& node, const geo::Point& p) const {
  const geo::Point c = node.cell.Center();
  return (p.x >= c.x ? 1 : 0) + (p.y >= c.y ? 2 : 0);
}

void AaspEstimator::SplitLeaf(Partition* partition, Node* node) {
  const geo::Point c = node->cell.Center();
  const geo::Rect& b = node->cell;
  const geo::Rect quads[4] = {
      {b.min_x, b.min_y, c.x, c.y},
      {c.x, b.min_y, b.max_x, c.y},
      {b.min_x, c.y, c.x, b.max_y},
      {c.x, c.y, b.max_x, b.max_y},
  };
  for (int i = 0; i < 4; ++i) {
    node->children[i] = std::make_unique<Node>(
        quads[i], node->depth + 1, num_slices_, node_keyword_capacity_);
  }
  node->is_leaf = false;
  partition->num_nodes += 4;
  // Counts are NOT redistributed: in the streaming ASP tree every point is
  // counted by exactly one node, and this node keeps the points it
  // absorbed while it was a leaf.
}

void AaspEstimator::InsertImpl(const stream::GeoTextObject& obj) {
  Partition& partition = partitions_[PartitionOf(obj.keywords)];
  Node* node = partition.root.get();
  while (!node->is_leaf) {
    node = node->children[QuadrantOf(*node, obj.loc)].get();
  }
  ++node->slice_counts[head_slice_];
  ++node->live_count;
  node->decayed_count += 1.0;
  for (const stream::KeywordId kw : obj.keywords) {
    node->keywords.Add(kw);
    global_keywords_.Add(kw);
    slice_kmv_[head_slice_].Add(kw);
  }
  global_keyword_objects_ += 1.0;
  if (++inserts_since_cache_ >= 4096) {
    untracked_cache_valid_ = false;
    inserts_since_cache_ = 0;
  }
  // The whole-forest node budget is shared evenly across partitions.
  const uint32_t partition_budget =
      max_nodes_ / static_cast<uint32_t>(partitions_.size());
  if (node->live_count > SplitThreshold() && node->depth < max_depth_ &&
      partition.num_nodes + 4 <= partition_budget) {
    SplitLeaf(&partition, node);
  }
}

uint64_t AaspEstimator::RotateNode(Partition* partition, Node* node) {
  // head_slice_ has already been advanced to the slot of the expiring
  // slice, which becomes the new current slice.
  const uint64_t expiring = node->slice_counts[head_slice_];
  assert(node->live_count >= expiring);
  node->live_count -= expiring;
  node->slice_counts[head_slice_] = 0;
  node->decayed_count *= decay_factor_;
  node->keywords.Decay(decay_factor_);

  uint64_t subtree_live = node->live_count;
  if (!node->is_leaf) {
    uint64_t child_live = 0;
    for (auto& child : node->children) {
      child_live += RotateNode(partition, child.get());
    }
    subtree_live += child_live;
    if (subtree_live == 0) {
      // Whole subtree expired: collapse back into a leaf.
      for (auto& child : node->children) child.reset();
      node->is_leaf = true;
      partition->num_nodes -= 4;
    }
  }
  return subtree_live;
}

void AaspEstimator::RotateImpl() {
  head_slice_ = (head_slice_ + 1) % num_slices_;
  for (auto& partition : partitions_) {
    RotateNode(&partition, partition.root.get());
  }
  slice_kmv_[head_slice_].Clear();
  global_keywords_.Decay(decay_factor_);
  global_keyword_objects_ *= decay_factor_;
  untracked_cache_valid_ = false;
}

double AaspEstimator::UntrackedKeywordCount() const {
  if (!untracked_cache_valid_) {
    // Probability mass reserved for keywords the bounded counter dropped:
    // spread the untracked occurrence mass over the untracked distinct
    // keywords (estimated via the KMV synopses).
    const double tracked_total = global_keywords_.TrackedTotal();
    const double untracked_mass =
        std::max(0.0, global_keywords_.total_weight() - tracked_total);
    const double distinct = EstimateDistinctKeywords();
    const double untracked_distinct =
        std::max(1.0, distinct - global_keywords_.size());
    cached_untracked_count_ = untracked_mass / untracked_distinct;
    untracked_cache_valid_ = true;
  }
  return cached_untracked_count_;
}

double AaspEstimator::GlobalKeywordProbability(
    const std::vector<stream::KeywordId>& keywords) const {
  if (global_keyword_objects_ < 1.0) return 0.0;
  const double untracked_count = UntrackedKeywordCount();
  double miss_all = 1.0;
  for (const stream::KeywordId kw : keywords) {
    const double count = global_keywords_.IsTracked(kw)
                             ? global_keywords_.Count(kw)
                             : untracked_count;
    const double p = std::clamp(count / global_keyword_objects_, 0.0, 1.0);
    miss_all *= (1.0 - p);
  }
  return 1.0 - miss_all;
}

double AaspEstimator::NodeKeywordProbability(
    const Node& node, const std::vector<stream::KeywordId>& keywords) const {
  if (node.decayed_count < 1.0) return GlobalKeywordProbability(keywords);
  double miss_all = 1.0;
  bool any_local = false;
  for (const stream::KeywordId kw : keywords) {
    if (node.keywords.IsTracked(kw)) {
      const double p =
          std::clamp(node.keywords.Count(kw) / node.decayed_count, 0.0, 1.0);
      miss_all *= (1.0 - p);
      any_local = true;
    } else {
      // Local counters never saw this keyword here; fall back to a global
      // single-keyword probability for this factor.
      std::vector<stream::KeywordId> one{kw};
      miss_all *= (1.0 - GlobalKeywordProbability(one));
    }
  }
  if (!any_local && node.keywords.size() == 0) {
    return GlobalKeywordProbability(keywords);
  }
  return 1.0 - miss_all;
}

double AaspEstimator::NodeKeywordProbabilityLocal(
    const Node& node, const std::vector<stream::KeywordId>& keywords) const {
  if (node.decayed_count < 1.0) return 0.0;
  double miss_all = 1.0;
  for (const stream::KeywordId kw : keywords) {
    const double count = node.keywords.Count(kw);  // 0 when untracked.
    const double p = std::clamp(count / node.decayed_count, 0.0, 1.0);
    miss_all *= (1.0 - p);
  }
  return 1.0 - miss_all;
}

double AaspEstimator::EstimateSpatial(const Node& node,
                                      const geo::Rect& range) const {
  if (!node.cell.Intersects(range)) return 0.0;
  double estimate = static_cast<double>(node.live_count) *
                    node.cell.OverlapFraction(range);
  if (!node.is_leaf) {
    for (const auto& child : node.children) {
      estimate += EstimateSpatial(*child, range);
    }
  }
  return estimate;
}

double AaspEstimator::EstimateHybrid(const Node& node,
                                     const stream::Query& q) const {
  if (!node.cell.Intersects(*q.range)) return 0.0;
  double estimate = 0.0;
  if (node.live_count > 0) {
    estimate = static_cast<double>(node.live_count) *
               node.cell.OverlapFraction(*q.range) *
               NodeKeywordProbability(node, q.keywords);
  }
  if (!node.is_leaf) {
    for (const auto& child : node.children) {
      estimate += EstimateHybrid(*child, q);
    }
  }
  return estimate;
}

double AaspEstimator::EstimateKeywordOnly(
    const Node& node, const std::vector<stream::KeywordId>& kw) const {
  // Tightly coupled aggregation: each node contributes its live count
  // times its *local* keyword probability. Keywords too rare for a node's
  // bounded counters contribute nothing — the coupling weakness the paper
  // calls out for pure keyword queries.
  double estimate = static_cast<double>(node.live_count) *
                    NodeKeywordProbabilityLocal(node, kw);
  if (!node.is_leaf) {
    for (const auto& child : node.children) {
      estimate += EstimateKeywordOnly(*child, kw);
    }
  }
  return estimate;
}

double AaspEstimator::Estimate(const stream::Query& q) const {
  // Every query type aggregates over the whole partition forest.
  double estimate = 0.0;
  switch (q.Type()) {
    case stream::QueryType::kSpatial:
      for (const auto& partition : partitions_) {
        estimate += EstimateSpatial(*partition.root, *q.range);
      }
      return estimate;
    case stream::QueryType::kKeyword:
      for (const auto& partition : partitions_) {
        estimate += EstimateKeywordOnly(*partition.root, q.keywords);
      }
      return estimate;
    case stream::QueryType::kHybrid:
      for (const auto& partition : partitions_) {
        estimate += EstimateHybrid(*partition.root, q);
      }
      return estimate;
  }
  return 0.0;
}

double AaspEstimator::EstimateDistinctKeywords() const {
  KmvSynopsis merged = slice_kmv_[0];
  for (uint32_t i = 1; i < num_slices_; ++i) merged.Merge(slice_kmv_[i]);
  return merged.EstimateDistinct();
}

size_t AaspEstimator::NodeMemoryBytes(const Node& node) const {
  size_t bytes = sizeof(Node) + node.slice_counts.size() * sizeof(uint64_t) +
                 node.keywords.size() * (sizeof(uint32_t) + sizeof(double) +
                                         2 * sizeof(void*));
  if (!node.is_leaf) {
    for (const auto& child : node.children) {
      bytes += NodeMemoryBytes(*child);
    }
  }
  return bytes;
}

size_t AaspEstimator::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& partition : partitions_) {
    bytes += NodeMemoryBytes(*partition.root);
  }
  bytes += global_keywords_.size() *
           (sizeof(uint32_t) + sizeof(double) + 2 * sizeof(void*));
  for (const auto& kmv : slice_kmv_) {
    bytes += kmv.size() * sizeof(double);
  }
  return bytes;
}

void AaspEstimator::SaveNode(const Node& node,
                             util::BinaryWriter* writer) const {
  writer->WriteBool(node.is_leaf);
  for (uint64_t count : node.slice_counts) writer->WriteU64(count);
  writer->WriteU64(node.live_count);
  writer->WriteDouble(node.decayed_count);
  node.keywords.Save(writer);
  if (!node.is_leaf) {
    for (const auto& child : node.children) SaveNode(*child, writer);
  }
}

bool AaspEstimator::LoadNode(Partition* partition, Node* node,
                             util::BinaryReader* reader) {
  if (!reader->ReadBool(&node->is_leaf)) return false;
  for (auto& count : node->slice_counts) {
    if (!reader->ReadU64(&count)) return false;
  }
  if (!reader->ReadU64(&node->live_count) ||
      !reader->ReadDouble(&node->decayed_count) ||
      !node->keywords.Load(reader)) {
    return false;
  }
  if (!node->is_leaf) {
    if (node->depth >= max_depth_) return false;  // Bounds recursion.
    const geo::Point c = node->cell.Center();
    const geo::Rect& b = node->cell;
    const geo::Rect quads[4] = {
        {b.min_x, b.min_y, c.x, c.y},
        {c.x, b.min_y, b.max_x, c.y},
        {b.min_x, c.y, c.x, b.max_y},
        {c.x, c.y, b.max_x, b.max_y},
    };
    for (int i = 0; i < 4; ++i) {
      node->children[i] = std::make_unique<Node>(
          quads[i], node->depth + 1, num_slices_, node_keyword_capacity_);
    }
    partition->num_nodes += 4;
    for (auto& child : node->children) {
      if (!LoadNode(partition, child.get(), reader)) return false;
    }
  }
  return true;
}

void AaspEstimator::SaveStateImpl(util::BinaryWriter* writer) const {
  writer->WriteU32(head_slice_);
  writer->WriteU64(partitions_.size());
  for (const auto& partition : partitions_) {
    SaveNode(*partition.root, writer);
  }
  global_keywords_.Save(writer);
  writer->WriteDouble(global_keyword_objects_);
  for (const auto& kmv : slice_kmv_) kmv.Save(writer);
  writer->WriteU64(inserts_since_cache_);
}

bool AaspEstimator::LoadStateImpl(util::BinaryReader* reader) {
  // LoadNode grows every tree from a fresh root; the other members are
  // read whole below.
  for (auto& partition : partitions_) {
    partition.root = MakeRoot();
    partition.num_nodes = 1;
  }
  uint32_t head_slice;
  uint64_t num_partitions;
  if (!reader->ReadU32(&head_slice) || head_slice >= num_slices_ ||
      !reader->ReadU64(&num_partitions) ||
      num_partitions != partitions_.size()) {
    return false;
  }
  head_slice_ = head_slice;
  for (auto& partition : partitions_) {
    if (!LoadNode(&partition, partition.root.get(), reader)) return false;
  }
  if (!global_keywords_.Load(reader) ||
      !reader->ReadDouble(&global_keyword_objects_)) {
    return false;
  }
  for (auto& kmv : slice_kmv_) {
    if (!kmv.Load(reader)) return false;
  }
  if (!reader->ReadU64(&inserts_since_cache_)) return false;
  untracked_cache_valid_ = false;
  return true;
}

}  // namespace latest::estimators
