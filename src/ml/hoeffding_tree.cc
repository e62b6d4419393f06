#include "ml/hoeffding_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace latest::ml {

namespace {

// Entropy of raw uint64 counts.
double EntropyOfCounts(const std::vector<uint64_t>& counts) {
  double total = 0.0;
  for (const uint64_t c : counts) total += static_cast<double>(c);
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (const uint64_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / total;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace

double Entropy(const std::vector<double>& counts) {
  double total = 0.0;
  for (const double c : counts) total += c;
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (const double c : counts) {
    if (c <= 0.0) continue;
    const double p = c / total;
    h -= p * std::log2(p);
  }
  return h;
}

double HoeffdingBound(double range, double delta, uint64_t n) {
  if (n == 0) return range;
  return std::sqrt(range * range * std::log(1.0 / delta) /
                   (2.0 * static_cast<double>(n)));
}

util::Status HoeffdingTreeConfig::Validate() const {
  if (grace_period == 0) {
    return util::Status::InvalidArgument("grace_period must be > 0");
  }
  if (split_confidence <= 0.0 || split_confidence >= 1.0) {
    return util::Status::InvalidArgument(
        "split_confidence must be in (0, 1)");
  }
  if (tie_threshold < 0.0) {
    return util::Status::InvalidArgument("tie_threshold must be >= 0");
  }
  if (numeric_split_candidates == 0) {
    return util::Status::InvalidArgument(
        "numeric_split_candidates must be > 0");
  }
  return util::Status::Ok();
}

struct HoeffdingTree::Node {
  bool is_leaf = true;
  uint32_t depth = 0;

  // Leaf payload.
  LeafStats stats;

  // Internal payload.
  bool split_is_numeric = false;
  uint32_t split_attribute = 0;
  double split_threshold = 0.0;
  std::vector<std::unique_ptr<Node>> children;

  /// Child index for a feature vector at an internal node.
  size_t RouteChild(const FeatureVector& features) const {
    if (split_is_numeric) {
      return features.numeric[split_attribute] <= split_threshold ? 0 : 1;
    }
    const int v = features.categorical[split_attribute];
    assert(v >= 0 && static_cast<size_t>(v) < children.size());
    return static_cast<size_t>(v);
  }
};

HoeffdingTree::HoeffdingTree(const FeatureSchema& schema,
                             const HoeffdingTreeConfig& config)
    : schema_(schema), config_(config), root_(std::make_unique<Node>()) {
  assert(schema.num_classes >= 2);
  assert(config.Validate().ok());
  InitLeafStats(root_.get());
}

HoeffdingTree::~HoeffdingTree() = default;

void HoeffdingTree::InitLeafStats(Node* node) {
  auto& s = node->stats;
  s.class_counts.assign(schema_.num_classes, 0);
  s.categorical_counts.resize(schema_.num_categorical());
  for (uint32_t a = 0; a < schema_.num_categorical(); ++a) {
    s.categorical_counts[a].assign(
        static_cast<size_t>(schema_.categorical_cardinalities[a]) *
            schema_.num_classes,
        0);
  }
  s.numeric_observers.assign(
      schema_.num_numeric,
      std::vector<GaussianEstimator>(schema_.num_classes));
  s.seen = 0;
  s.seen_at_last_attempt = 0;
}

HoeffdingTree::Node* HoeffdingTree::ReachLeaf(
    const FeatureVector& features) const {
  Node* node = root_.get();
  while (!node->is_leaf) {
    node = node->children[node->RouteChild(features)].get();
  }
  return node;
}

void HoeffdingTree::UpdateLeafStats(Node* node,
                                    const TrainingExample& example) {
  auto& s = node->stats;
  const uint32_t label = example.label;
  assert(label < schema_.num_classes);
  ++s.class_counts[label];
  for (uint32_t a = 0; a < schema_.num_categorical(); ++a) {
    const int v = example.features.categorical[a];
    assert(v >= 0 &&
           static_cast<uint32_t>(v) < schema_.categorical_cardinalities[a]);
    ++s.categorical_counts[a][static_cast<size_t>(v) * schema_.num_classes +
                              label];
  }
  for (uint32_t a = 0; a < schema_.num_numeric; ++a) {
    s.numeric_observers[a][label].Add(example.features.numeric[a]);
  }
  ++s.seen;
}

void HoeffdingTree::Train(const TrainingExample& example) {
  assert(example.features.categorical.size() == schema_.num_categorical());
  assert(example.features.numeric.size() == schema_.num_numeric);
  Node* leaf = ReachLeaf(example.features);
  UpdateLeafStats(leaf, example);
  ++num_trained_;
  if (leaf->stats.seen - leaf->stats.seen_at_last_attempt >=
          config_.grace_period &&
      leaf->depth < config_.max_depth) {
    AttemptSplit(leaf);
  }
}

HoeffdingTree::SplitCandidate HoeffdingTree::BestCategoricalSplit(
    const LeafStats& stats, uint32_t attr) const {
  const uint32_t arity = schema_.categorical_cardinalities[attr];
  const double total = static_cast<double>(stats.seen);
  const double parent_entropy = EntropyOfCounts(stats.class_counts);
  double weighted_child_entropy = 0.0;
  std::vector<uint64_t> child_counts(schema_.num_classes);
  for (uint32_t v = 0; v < arity; ++v) {
    uint64_t child_total = 0;
    for (uint32_t c = 0; c < schema_.num_classes; ++c) {
      child_counts[c] =
          stats.categorical_counts[attr]
                                  [static_cast<size_t>(v) *
                                       schema_.num_classes +
                                   c];
      child_total += child_counts[c];
    }
    if (child_total == 0) continue;
    weighted_child_entropy += (static_cast<double>(child_total) / total) *
                              EntropyOfCounts(child_counts);
  }
  SplitCandidate cand;
  cand.gain = parent_entropy - weighted_child_entropy;
  cand.is_numeric = false;
  cand.attribute = attr;
  return cand;
}

HoeffdingTree::SplitCandidate HoeffdingTree::BestNumericSplit(
    const LeafStats& stats, uint32_t attr) const {
  SplitCandidate best;
  best.is_numeric = true;
  best.attribute = attr;

  // Candidate thresholds: an even grid over the observed attribute range
  // across all classes.
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  for (uint32_t c = 0; c < schema_.num_classes; ++c) {
    const auto& obs = stats.numeric_observers[attr][c];
    if (obs.count() == 0) continue;
    if (!any) {
      lo = obs.min();
      hi = obs.max();
      any = true;
    } else {
      lo = std::min(lo, obs.min());
      hi = std::max(hi, obs.max());
    }
  }
  if (!any || hi <= lo) return best;  // gain stays -1: not splittable.

  const double parent_entropy = EntropyOfCounts(stats.class_counts);
  const double total = static_cast<double>(stats.seen);
  std::vector<double> below(schema_.num_classes);
  std::vector<double> above(schema_.num_classes);
  const uint32_t k = config_.numeric_split_candidates;
  for (uint32_t i = 1; i <= k; ++i) {
    const double thr = lo + (hi - lo) * static_cast<double>(i) /
                                static_cast<double>(k + 1);
    double below_total = 0.0;
    double above_total = 0.0;
    for (uint32_t c = 0; c < schema_.num_classes; ++c) {
      const auto& obs = stats.numeric_observers[attr][c];
      const double b = obs.CountBelow(thr);
      below[c] = b;
      above[c] = static_cast<double>(obs.count()) - b;
      below_total += below[c];
      above_total += above[c];
    }
    if (below_total < 1.0 || above_total < 1.0) continue;
    const double gain = parent_entropy -
                        (below_total / total) * Entropy(below) -
                        (above_total / total) * Entropy(above);
    if (gain > best.gain) {
      best.gain = gain;
      best.threshold = thr;
    }
  }
  return best;
}

void HoeffdingTree::ApplySplit(Node* node, const SplitCandidate& split) {
  node->is_leaf = false;
  node->split_is_numeric = split.is_numeric;
  node->split_attribute = split.attribute;
  node->split_threshold = split.threshold;
  const size_t fanout =
      split.is_numeric
          ? 2
          : schema_.categorical_cardinalities[split.attribute];
  node->children.resize(fanout);
  for (auto& child : node->children) {
    child = std::make_unique<Node>();
    child->depth = node->depth + 1;
    InitLeafStats(child.get());
    // Seed each child with the parent class distribution so majority-class
    // prediction stays sensible until the child sees its own data.
    child->stats.class_counts = node->stats.class_counts;
  }
  num_leaves_ += fanout - 1;
  ++num_splits_;
  depth_ = std::max(depth_, node->depth + 1);
  // Release leaf statistics of the now-internal node.
  node->stats = LeafStats{};
}

void HoeffdingTree::AttemptSplit(Node* node) {
  auto& s = node->stats;
  s.seen_at_last_attempt = s.seen;

  // A pure leaf cannot gain from splitting.
  uint32_t classes_present = 0;
  for (const uint64_t c : s.class_counts) classes_present += (c > 0);
  if (classes_present <= 1) return;

  SplitCandidate best;
  SplitCandidate second;
  auto consider = [&](const SplitCandidate& cand) {
    if (cand.gain > best.gain) {
      second = best;
      best = cand;
    } else if (cand.gain > second.gain) {
      second = cand;
    }
  };
  for (uint32_t a = 0; a < schema_.num_categorical(); ++a) {
    consider(BestCategoricalSplit(s, a));
  }
  for (uint32_t a = 0; a < schema_.num_numeric; ++a) {
    consider(BestNumericSplit(s, a));
  }
  if (best.gain <= 0.0) return;

  const double range = std::log2(static_cast<double>(schema_.num_classes));
  const double epsilon =
      HoeffdingBound(range, config_.split_confidence, s.seen);
  const double second_gain = std::max(second.gain, 0.0);
  if (best.gain - second_gain > epsilon || epsilon < config_.tie_threshold) {
    ApplySplit(node, best);
  }
}

uint32_t HoeffdingTree::Predict(const FeatureVector& features) const {
  const Node* leaf = ReachLeaf(features);
  const auto& counts = leaf->stats.class_counts;
  return static_cast<uint32_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

std::vector<double> HoeffdingTree::PredictDistribution(
    const FeatureVector& features) const {
  const Node* leaf = ReachLeaf(features);
  const auto& counts = leaf->stats.class_counts;
  double total = 0.0;
  for (const uint64_t c : counts) total += static_cast<double>(c);
  std::vector<double> dist(schema_.num_classes);
  if (total <= 0.0) {
    std::fill(dist.begin(), dist.end(), 1.0 / schema_.num_classes);
    return dist;
  }
  for (uint32_t c = 0; c < schema_.num_classes; ++c) {
    dist[c] = static_cast<double>(counts[c]) / total;
  }
  return dist;
}

void HoeffdingTree::Reset() {
  root_ = std::make_unique<Node>();
  InitLeafStats(root_.get());
  num_trained_ = 0;
  num_leaves_ = 1;
  num_splits_ = 0;
  depth_ = 0;
}


void HoeffdingTree::SerializeNode(const Node& node,
                                  util::BinaryWriter* writer) const {
  writer->WriteBool(node.is_leaf);
  if (!node.is_leaf) {
    writer->WriteBool(node.split_is_numeric);
    writer->WriteU32(node.split_attribute);
    writer->WriteDouble(node.split_threshold);
    writer->WriteU32(static_cast<uint32_t>(node.children.size()));
    for (const auto& child : node.children) {
      SerializeNode(*child, writer);
    }
    return;
  }
  const LeafStats& s = node.stats;
  for (const uint64_t c : s.class_counts) writer->WriteU64(c);
  for (const auto& matrix : s.categorical_counts) {
    for (const uint64_t c : matrix) writer->WriteU64(c);
  }
  for (const auto& per_class : s.numeric_observers) {
    for (const GaussianEstimator& obs : per_class) {
      writer->WriteU64(obs.count());
      writer->WriteDouble(obs.mean());
      writer->WriteDouble(obs.m2());
      writer->WriteDouble(obs.min());
      writer->WriteDouble(obs.max());
    }
  }
  writer->WriteU64(s.seen);
  writer->WriteU64(s.seen_at_last_attempt);
}

void HoeffdingTree::Serialize(util::BinaryWriter* writer) const {
  writer->WriteU32(schema_.num_categorical());
  for (const uint32_t card : schema_.categorical_cardinalities) {
    writer->WriteU32(card);
  }
  writer->WriteU32(schema_.num_numeric);
  writer->WriteU32(schema_.num_classes);
  writer->WriteU64(num_trained_);
  writer->WriteU64(num_leaves_);
  writer->WriteU64(num_splits_);
  writer->WriteU32(depth_);
  SerializeNode(*root_, writer);
}

bool HoeffdingTree::RestoreNode(Node* node, util::BinaryReader* reader,
                                uint32_t depth) {
  if (depth > config_.max_depth) return false;
  node->depth = depth;
  if (!reader->ReadBool(&node->is_leaf)) return false;
  if (!node->is_leaf) {
    uint32_t fanout;
    if (!reader->ReadBool(&node->split_is_numeric) ||
        !reader->ReadU32(&node->split_attribute) ||
        !reader->ReadDouble(&node->split_threshold) ||
        !reader->ReadU32(&fanout)) {
      return false;
    }
    // Sanity: the split must be valid under the schema.
    if (node->split_is_numeric) {
      if (node->split_attribute >= schema_.num_numeric || fanout != 2) {
        return false;
      }
    } else {
      if (node->split_attribute >= schema_.num_categorical() ||
          fanout !=
              schema_.categorical_cardinalities[node->split_attribute]) {
        return false;
      }
    }
    node->children.resize(fanout);
    for (auto& child : node->children) {
      child = std::make_unique<Node>();
      InitLeafStats(child.get());
      if (!RestoreNode(child.get(), reader, depth + 1)) return false;
    }
    node->stats = LeafStats{};
    return true;
  }
  InitLeafStats(node);
  LeafStats& s = node->stats;
  for (uint64_t& c : s.class_counts) {
    if (!reader->ReadU64(&c)) return false;
  }
  for (auto& matrix : s.categorical_counts) {
    for (uint64_t& c : matrix) {
      if (!reader->ReadU64(&c)) return false;
    }
  }
  for (auto& per_class : s.numeric_observers) {
    for (GaussianEstimator& obs : per_class) {
      uint64_t count;
      double mean;
      double m2;
      double lo;
      double hi;
      if (!reader->ReadU64(&count) || !reader->ReadDouble(&mean) ||
          !reader->ReadDouble(&m2) || !reader->ReadDouble(&lo) ||
          !reader->ReadDouble(&hi)) {
        return false;
      }
      obs = GaussianEstimator::FromMoments(count, mean, m2, lo, hi);
    }
  }
  if (!reader->ReadU64(&s.seen) ||
      !reader->ReadU64(&s.seen_at_last_attempt)) {
    return false;
  }
  return true;
}

util::Status HoeffdingTree::Restore(util::BinaryReader* reader) {
  auto fail = [this](const char* what) {
    Reset();
    return util::Status::InvalidArgument(
        std::string("corrupt tree snapshot: ") + what);
  };
  uint32_t num_categorical;
  if (!reader->ReadU32(&num_categorical) ||
      num_categorical != schema_.num_categorical()) {
    return fail("categorical attribute count mismatch");
  }
  for (uint32_t a = 0; a < num_categorical; ++a) {
    uint32_t card;
    if (!reader->ReadU32(&card) ||
        card != schema_.categorical_cardinalities[a]) {
      return fail("categorical cardinality mismatch");
    }
  }
  uint32_t num_numeric;
  uint32_t num_classes;
  if (!reader->ReadU32(&num_numeric) || num_numeric != schema_.num_numeric ||
      !reader->ReadU32(&num_classes) ||
      num_classes != schema_.num_classes) {
    return fail("numeric/class schema mismatch");
  }
  uint64_t trained;
  uint64_t leaves;
  uint64_t splits;
  uint32_t depth;
  if (!reader->ReadU64(&trained) || !reader->ReadU64(&leaves) ||
      !reader->ReadU64(&splits) || !reader->ReadU32(&depth)) {
    return fail("truncated header");
  }
  auto root = std::make_unique<Node>();
  InitLeafStats(root.get());
  root_ = std::move(root);
  if (!RestoreNode(root_.get(), reader, 0)) {
    return fail("truncated or invalid node data");
  }
  num_trained_ = trained;
  num_leaves_ = leaves;
  num_splits_ = splits;
  depth_ = depth;
  return util::Status::Ok();
}

}  // namespace latest::ml
