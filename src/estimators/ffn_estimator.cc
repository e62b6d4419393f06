#include "estimators/ffn_estimator.h"

#include <algorithm>
#include <cmath>

#include "util/hashing.h"

namespace latest::estimators {

namespace {

// Maps log10(area fraction) from [-8, 0] to [0, 1].
double NormalizeLogArea(double area, double domain_area) {
  if (area <= 0.0 || domain_area <= 0.0) return 0.0;
  const double lg = std::log10(std::max(1e-8, area / domain_area));
  return std::clamp((lg + 8.0) / 8.0, 0.0, 1.0);
}

// Selectivities span orders of magnitude, so the network learns the
// log-scaled count: target = log10(1 + count) / log10(1 + population).
// A plain [0, 1] fraction target would squash every realistic selectivity
// (1e-4 .. 1e-2) into an unlearnable sliver next to 0.
double CountToTarget(double count, double population) {
  const double denom = std::log10(1.0 + std::max(1.0, population));
  return std::clamp(std::log10(1.0 + std::max(0.0, count)) / denom, 0.0, 1.0);
}

double TargetToCount(double target, double population) {
  const double denom = std::log10(1.0 + std::max(1.0, population));
  return std::max(0.0, std::pow(10.0, target * denom) - 1.0);
}

}  // namespace

FfnEstimator::FfnEstimator(const EstimatorConfig& config)
    : WindowedEstimatorBase(config.window.num_slices),
      bounds_(config.bounds),
      decay_factor_(static_cast<double>(config.window.num_slices - 1) /
                    std::max(1u, config.window.num_slices)),
      replay_capacity_(std::max(16u, config.ffn_replay_capacity)),
      network_(
          ml::MlpConfig{
              .num_inputs = kNumFeatures,
              .num_hidden = config.ffn_hidden_units,
              .learning_rate = config.ffn_learning_rate,
              .momentum = config.ffn_momentum,
          },
          config.seed),
      keyword_buckets_(std::max(16u, config.ffn_keyword_buckets), 0.0),
      keyword_hash_seed_(config.seed ^ 0x3C3C3C3C3C3C3C3CULL),
      prior_grid_(config.bounds, kPriorGridSide, kPriorGridSide),
      prior_counts_(prior_grid_.num_cells(), 0.0) {}

void FfnEstimator::InsertImpl(const stream::GeoTextObject& obj) {
  for (const stream::KeywordId kw : obj.keywords) {
    keyword_buckets_[util::SeededHash(kw, keyword_hash_seed_) %
                     keyword_buckets_.size()] += 1.0;
  }
  keyword_objects_ += 1.0;
  prior_counts_[prior_grid_.CellOf(obj.loc)] += 1.0;
}

void FfnEstimator::RotateImpl() {
  for (double& c : keyword_buckets_) c *= decay_factor_;
  keyword_objects_ *= decay_factor_;
  for (double& c : prior_counts_) c *= decay_factor_;
}

double FfnEstimator::KeywordPriorProbability(
    const std::vector<stream::KeywordId>& keywords) const {
  if (keyword_objects_ < 1.0) return 0.0;
  double miss_all = 1.0;
  for (const stream::KeywordId kw : keywords) {
    const double count =
        keyword_buckets_[util::SeededHash(kw, keyword_hash_seed_) %
                         keyword_buckets_.size()];
    const double p = std::clamp(count / keyword_objects_, 0.0, 1.0);
    miss_all *= (1.0 - p);
  }
  return 1.0 - miss_all;
}

double FfnEstimator::SpatialPriorCount(const geo::Rect& range) const {
  uint32_t col_lo;
  uint32_t row_lo;
  uint32_t col_hi;
  uint32_t row_hi;
  if (!prior_grid_.CellRange(range, &col_lo, &row_lo, &col_hi, &row_hi)) {
    return 0.0;
  }
  double count = 0.0;
  for (uint32_t row = row_lo; row <= row_hi; ++row) {
    for (uint32_t col = col_lo; col <= col_hi; ++col) {
      const uint32_t cell = row * prior_grid_.cols() + col;
      if (prior_counts_[cell] <= 0.0) continue;
      count += prior_counts_[cell] *
               prior_grid_.CellRect(cell).OverlapFraction(range);
    }
  }
  return count;
}

std::vector<double> FfnEstimator::Featurize(const stream::Query& q) const {
  std::vector<double> f(kNumFeatures, 0.0);
  f[0] = q.HasRange() ? 1.0 : 0.0;
  if (q.HasRange()) {
    const geo::Point c = q.range->Center();
    f[1] = std::clamp((c.x - bounds_.min_x) / bounds_.Width(), 0.0, 1.0);
    f[2] = std::clamp((c.y - bounds_.min_y) / bounds_.Height(), 0.0, 1.0);
    f[3] = NormalizeLogArea(q.range->Area(), bounds_.Area());
  }
  f[4] = std::min(1.0, static_cast<double>(q.keywords.size()) / 8.0);
  if (q.HasKeywords()) {
    f[5] = KeywordPriorProbability(q.keywords);
  }
  const double population = static_cast<double>(seen_population());
  f[6] = std::clamp(std::log10(1.0 + population) / 8.0, 0.0, 1.0);
  // Prior-estimate features, in the same log-count scale as the training
  // target: a coarse-density spatial prior and the keyword-frequency
  // prior. The network learns to correct these crude baselines instead of
  // regressing counts from raw query parameters alone.
  if (q.HasRange()) {
    f[7] = CountToTarget(SpatialPriorCount(*q.range), population);
  }
  if (q.HasKeywords()) {
    f[8] = CountToTarget(population * f[5], population);
  }
  return f;
}

double FfnEstimator::Estimate(const stream::Query& q) const {
  const double population = static_cast<double>(seen_population());
  if (population <= 0.0) return 0.0;
  const double target = network_.Forward(Featurize(q));
  return TargetToCount(target, population);
}

void FfnEstimator::OnFeedback(const stream::Query& q, double /*estimate*/,
                              uint64_t actual) {
  const double population =
      std::max<double>(1.0, static_cast<double>(seen_population()));
  const double target =
      CountToTarget(static_cast<double>(actual), population);
  std::vector<double> features = Featurize(q);
  network_.TrainStep(features, target);

  // Keep the record for replay epochs.
  if (replay_.size() < replay_capacity_) {
    replay_.push_back(ReplayRecord{std::move(features), target});
  } else {
    replay_[replay_head_] = ReplayRecord{std::move(features), target};
    replay_head_ = (replay_head_ + 1) % replay_capacity_;
  }
  ++num_feedback_;
  if (num_feedback_ % kReplayEvery == 0) {
    for (const auto& record : replay_) {
      network_.TrainStep(record.features, record.target);
    }
  }
}

size_t FfnEstimator::MemoryBytes() const {
  size_t bytes =
      sizeof(*this) +
      static_cast<size_t>(network_.config().num_hidden) *
          (network_.config().num_inputs + 1) * 2 * sizeof(double) +
      (network_.config().num_hidden + 1) * 2 * sizeof(double);
  bytes += keyword_buckets_.size() * sizeof(double);
  bytes += replay_.capacity() * sizeof(ReplayRecord) +
           replay_.size() * kNumFeatures * sizeof(double);
  bytes += prior_counts_.size() * sizeof(double);
  return bytes;
}

void FfnEstimator::SaveStateImpl(util::BinaryWriter* writer) const {
  network_.Save(writer);
  writer->WriteU64(keyword_buckets_.size());
  writer->WriteBytes(keyword_buckets_.data(),
                     keyword_buckets_.size() * sizeof(double));
  writer->WriteDouble(keyword_objects_);
  writer->WriteBytes(prior_counts_.data(),
                     prior_counts_.size() * sizeof(double));
  writer->WriteU64(replay_.size());
  for (const ReplayRecord& record : replay_) {
    for (double f : record.features) writer->WriteDouble(f);
    writer->WriteDouble(record.target);
  }
  writer->WriteU64(replay_head_);
  writer->WriteU64(num_feedback_);
}

bool FfnEstimator::LoadStateImpl(util::BinaryReader* reader) {
  uint64_t num_buckets;
  if (!network_.Load(reader) || !reader->ReadU64(&num_buckets) ||
      num_buckets != keyword_buckets_.size()) {
    return false;
  }
  if (!reader->ReadBytes(keyword_buckets_.data(),
                         keyword_buckets_.size() * sizeof(double)) ||
      !reader->ReadDouble(&keyword_objects_) ||
      !reader->ReadBytes(prior_counts_.data(),
                         prior_counts_.size() * sizeof(double))) {
    return false;
  }
  uint64_t replay_size;
  if (!reader->ReadU64(&replay_size) || replay_size > replay_capacity_) {
    return false;
  }
  replay_.clear();
  replay_.reserve(replay_size);
  for (uint64_t i = 0; i < replay_size; ++i) {
    ReplayRecord record;
    record.features.resize(kNumFeatures);
    for (auto& f : record.features) {
      if (!reader->ReadDouble(&f)) return false;
    }
    if (!reader->ReadDouble(&record.target)) return false;
    replay_.push_back(std::move(record));
  }
  uint64_t replay_head;
  if (!reader->ReadU64(&replay_head) || replay_head >= replay_capacity_) {
    return false;
  }
  replay_head_ = replay_head;
  return reader->ReadU64(&num_feedback_);
}

}  // namespace latest::estimators
