#include "estimators/spn_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/hashing.h"

namespace latest::estimators {

namespace {

constexpr double kCenterLearningRate = 0.05;
constexpr uint32_t kRefitIterations = 3;

double SquaredDistance(const geo::Point& a, const geo::Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

}  // namespace

SpnEstimator::SpnEstimator(const EstimatorConfig& config)
    : WindowedEstimatorBase(config.window.num_slices),
      bounds_(config.bounds),
      bins_(std::max(2u, config.spn_bins_per_dim)),
      keyword_buckets_(std::max(2u, config.spn_keyword_buckets)),
      decay_factor_(static_cast<double>(config.window.num_slices - 1) /
                    std::max(1u, config.window.num_slices)),
      sample_capacity_per_slice_(std::max(
          8u, config.spn_sample_capacity / config.window.num_slices)),
      hash_seed_(config.seed ^ 0xA5A5A5A5A5A5A5A5ULL),
      rng_(config.seed),
      samples_(config.window.num_slices) {
  const uint32_t k = std::max(1u, config.spn_clusters);
  clusters_.resize(k);
  for (auto& cluster : clusters_) {
    cluster.center.x = rng_.NextDouble(bounds_.min_x, bounds_.max_x);
    cluster.center.y = rng_.NextDouble(bounds_.min_y, bounds_.max_y);
    cluster.x_bins.assign(bins_, 0.0);
    cluster.y_bins.assign(bins_, 0.0);
    cluster.keyword_buckets.assign(keyword_buckets_, 0.0);
  }
}

uint32_t SpnEstimator::NearestCluster(const geo::Point& p) const {
  uint32_t best = 0;
  double best_d = SquaredDistance(p, clusters_[0].center);
  for (uint32_t k = 1; k < clusters_.size(); ++k) {
    const double d = SquaredDistance(p, clusters_[k].center);
    if (d < best_d) {
      best_d = d;
      best = k;
    }
  }
  return best;
}

void SpnEstimator::InsertImpl(const stream::GeoTextObject& obj) {
  const geo::Point p = bounds_.Clamp(obj.loc);
  Cluster& cluster = clusters_[NearestCluster(p)];
  // Online k-means: pull the winning center toward the point.
  cluster.center.x += kCenterLearningRate * (p.x - cluster.center.x);
  cluster.center.y += kCenterLearningRate * (p.y - cluster.center.y);
  cluster.weight += 1.0;
  total_weight_ += 1.0;

  const auto x_bin = std::min<uint32_t>(
      bins_ - 1, static_cast<uint32_t>((p.x - bounds_.min_x) /
                                       bounds_.Width() * bins_));
  const auto y_bin = std::min<uint32_t>(
      bins_ - 1, static_cast<uint32_t>((p.y - bounds_.min_y) /
                                       bounds_.Height() * bins_));
  cluster.x_bins[x_bin] += 1.0;
  cluster.y_bins[y_bin] += 1.0;
  for (const stream::KeywordId kw : obj.keywords) {
    cluster.keyword_buckets[util::SeededHash(kw, hash_seed_) %
                            keyword_buckets_] += 1.0;
  }

  // Reservoir-sample the location for center refits.
  SliceSample& slice = samples_.Current();
  ++slice.seen;
  if (slice.points.size() < sample_capacity_per_slice_) {
    slice.points.push_back(p);
  } else {
    const uint64_t j = rng_.NextBounded(slice.seen);
    if (j < sample_capacity_per_slice_) {
      slice.points[static_cast<size_t>(j)] = p;
    }
  }
}

void SpnEstimator::RefitCenters() {
  // Gather the window sample.
  std::vector<geo::Point> points;
  samples_.ForEach([&](const SliceSample& slice) {
    points.insert(points.end(), slice.points.begin(), slice.points.end());
  });
  if (points.size() < clusters_.size()) return;

  // Lloyd iterations: the expensive model-update step of a data-driven
  // estimator on a stream.
  std::vector<double> sum_x(clusters_.size());
  std::vector<double> sum_y(clusters_.size());
  std::vector<uint64_t> count(clusters_.size());
  for (uint32_t iter = 0; iter < kRefitIterations; ++iter) {
    std::fill(sum_x.begin(), sum_x.end(), 0.0);
    std::fill(sum_y.begin(), sum_y.end(), 0.0);
    std::fill(count.begin(), count.end(), 0);
    for (const geo::Point& p : points) {
      const uint32_t k = NearestCluster(p);
      sum_x[k] += p.x;
      sum_y[k] += p.y;
      ++count[k];
    }
    for (uint32_t k = 0; k < clusters_.size(); ++k) {
      if (count[k] == 0) continue;
      clusters_[k].center.x = sum_x[k] / static_cast<double>(count[k]);
      clusters_[k].center.y = sum_y[k] / static_cast<double>(count[k]);
    }
  }
}

void SpnEstimator::RotateImpl() {
  for (auto& cluster : clusters_) {
    cluster.weight *= decay_factor_;
    for (auto& b : cluster.x_bins) b *= decay_factor_;
    for (auto& b : cluster.y_bins) b *= decay_factor_;
    for (auto& b : cluster.keyword_buckets) b *= decay_factor_;
  }
  total_weight_ *= decay_factor_;
  samples_.Rotate();
  RefitCenters();
}

double SpnEstimator::IntervalMass(const std::vector<double>& bins,
                                  double weight, double domain_lo,
                                  double domain_hi, double lo,
                                  double hi) const {
  if (weight <= 0.0 || hi <= lo) return 0.0;
  const double domain = domain_hi - domain_lo;
  const double bin_width = domain / bins_;
  double mass = 0.0;
  for (uint32_t b = 0; b < bins_; ++b) {
    if (bins[b] <= 0.0) continue;
    const double b_lo = domain_lo + b * bin_width;
    const double b_hi = b_lo + bin_width;
    const double overlap = std::min(hi, b_hi) - std::max(lo, b_lo);
    if (overlap <= 0.0) continue;
    mass += bins[b] * (overlap / bin_width);
  }
  return std::min(1.0, mass / weight);
}

double SpnEstimator::KeywordMissProbability(
    const Cluster& cluster,
    const std::vector<stream::KeywordId>& keywords) const {
  if (cluster.weight <= 0.0) return 1.0;
  double miss_all = 1.0;
  for (const stream::KeywordId kw : keywords) {
    const double count =
        cluster
            .keyword_buckets[util::SeededHash(kw, hash_seed_) %
                             keyword_buckets_];
    const double p = std::clamp(count / cluster.weight, 0.0, 1.0);
    miss_all *= (1.0 - p);
  }
  return miss_all;
}

double SpnEstimator::Estimate(const stream::Query& q) const {
  if (total_weight_ <= 0.0) return 0.0;
  double probability = 0.0;
  for (const Cluster& cluster : clusters_) {
    if (cluster.weight <= 0.0) continue;
    double p = cluster.weight / total_weight_;
    if (q.HasRange()) {
      p *= IntervalMass(cluster.x_bins, cluster.weight, bounds_.min_x,
                        bounds_.max_x, q.range->min_x, q.range->max_x);
      p *= IntervalMass(cluster.y_bins, cluster.weight, bounds_.min_y,
                        bounds_.max_y, q.range->min_y, q.range->max_y);
    }
    if (q.HasKeywords()) {
      p *= 1.0 - KeywordMissProbability(cluster, q.keywords);
    }
    probability += p;
  }
  return probability * static_cast<double>(seen_population());
}

size_t SpnEstimator::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& cluster : clusters_) {
    bytes += sizeof(Cluster) +
             (cluster.x_bins.size() + cluster.y_bins.size() +
              cluster.keyword_buckets.size()) *
                 sizeof(double);
  }
  samples_.ForEach([&](const SliceSample& slice) {
    bytes += slice.points.capacity() * sizeof(geo::Point);
  });
  return bytes;
}

void SpnEstimator::SaveStateImpl(util::BinaryWriter* writer) const {
  writer->WriteU64(clusters_.size());
  for (const Cluster& cluster : clusters_) {
    writer->WriteDouble(cluster.center.x);
    writer->WriteDouble(cluster.center.y);
    writer->WriteDouble(cluster.weight);
    for (double b : cluster.x_bins) writer->WriteDouble(b);
    for (double b : cluster.y_bins) writer->WriteDouble(b);
    for (double b : cluster.keyword_buckets) writer->WriteDouble(b);
  }
  writer->WriteDouble(total_weight_);
  // Raw slot order: RefitCenters gathers points via ForEach in this order
  // and k-means accumulation is order-sensitive in floating point.
  samples_.Save(writer, [](const SliceSample& slice, util::BinaryWriter* w) {
    w->WriteU64(slice.points.size());
    w->WriteBytes(slice.points.data(),
                  slice.points.size() * sizeof(geo::Point));
    w->WriteU64(slice.seen);
  });
  rng_.Save(writer);
}

bool SpnEstimator::LoadStateImpl(util::BinaryReader* reader) {
  uint64_t num_clusters;
  if (!reader->ReadU64(&num_clusters) || num_clusters != clusters_.size()) {
    return false;
  }
  for (Cluster& cluster : clusters_) {
    if (!reader->ReadDouble(&cluster.center.x) ||
        !reader->ReadDouble(&cluster.center.y) ||
        !reader->ReadDouble(&cluster.weight)) {
      return false;
    }
    for (auto& b : cluster.x_bins) {
      if (!reader->ReadDouble(&b)) return false;
    }
    for (auto& b : cluster.y_bins) {
      if (!reader->ReadDouble(&b)) return false;
    }
    for (auto& b : cluster.keyword_buckets) {
      if (!reader->ReadDouble(&b)) return false;
    }
  }
  if (!reader->ReadDouble(&total_weight_)) return false;
  if (!samples_.Load(
          reader, [this](SliceSample* slice, util::BinaryReader* r) {
            uint64_t num_points;
            if (!r->ReadU64(&num_points) ||
                num_points > sample_capacity_per_slice_ ||
                r->remaining() < num_points * sizeof(geo::Point)) {
              return false;
            }
            slice->points.resize(num_points);
            return r->ReadBytes(slice->points.data(),
                                num_points * sizeof(geo::Point)) &&
                   r->ReadU64(&slice->seen);
          })) {
    return false;
  }
  return rng_.Load(reader);
}

}  // namespace latest::estimators
