#include "estimators/cm_sketch_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/hashing.h"

namespace latest::estimators {

namespace {

uint32_t GridSide(uint32_t cells) {
  auto side = static_cast<uint32_t>(std::sqrt(static_cast<double>(cells)));
  while ((side + 1) * (side + 1) <= cells) ++side;
  return std::max(1u, side);
}

}  // namespace

CountMinSketch::CountMinSketch(uint32_t depth, uint32_t width, uint64_t seed)
    : depth_(depth),
      width_(width),
      seed_(seed),
      counters_(static_cast<size_t>(depth) * width, 0.0) {
  assert(depth > 0 && width > 0);
}

size_t CountMinSketch::Index(uint32_t row, uint64_t key) const {
  return static_cast<size_t>(row) * width_ +
         util::SeededHash(key, seed_ + row) % width_;
}

void CountMinSketch::Add(uint64_t key, double weight) {
  for (uint32_t row = 0; row < depth_; ++row) {
    counters_[Index(row, key)] += weight;
  }
}

double CountMinSketch::Estimate(uint64_t key) const {
  double result = counters_[Index(0, key)];
  for (uint32_t row = 1; row < depth_; ++row) {
    result = std::min(result, counters_[Index(row, key)]);
  }
  return result;
}

void CountMinSketch::Decay(double factor) {
  for (double& c : counters_) c *= factor;
}

void CountMinSketch::Save(util::BinaryWriter* writer) const {
  writer->WriteU32(depth_);
  writer->WriteU32(width_);
  writer->WriteU64(seed_);
  writer->WriteBytes(counters_.data(), counters_.size() * sizeof(double));
}

bool CountMinSketch::Load(util::BinaryReader* reader) {
  uint32_t depth, width;
  uint64_t seed;
  if (!reader->ReadU32(&depth) || !reader->ReadU32(&width) ||
      !reader->ReadU64(&seed)) {
    return false;
  }
  if (depth != depth_ || width != width_ || seed != seed_) return false;
  return reader->ReadBytes(counters_.data(),
                           counters_.size() * sizeof(double));
}

CmSketchEstimator::CmSketchEstimator(const EstimatorConfig& config)
    : WindowedEstimatorBase(config.window.num_slices),
      grid_(config.bounds, GridSide(config.cms_grid_cells),
            GridSide(config.cms_grid_cells)),
      decay_factor_(static_cast<double>(config.window.num_slices - 1) /
                    std::max(1u, config.window.num_slices)),
      cell_counts_(grid_.num_cells(), 0.0),
      keyword_sketch_(config.cms_depth, config.cms_width,
                      config.seed ^ 0x1111111111111111ULL),
      pair_sketch_(config.cms_depth, config.cms_width * 4,
                   config.seed ^ 0x2222222222222222ULL) {}

uint64_t CmSketchEstimator::PairKey(uint32_t cell,
                                    stream::KeywordId kw) const {
  return (static_cast<uint64_t>(cell) << 32) | kw;
}

void CmSketchEstimator::InsertImpl(const stream::GeoTextObject& obj) {
  const uint32_t cell = grid_.CellOf(obj.loc);
  cell_counts_[cell] += 1.0;
  decayed_population_ += 1.0;
  for (const stream::KeywordId kw : obj.keywords) {
    keyword_sketch_.Add(kw);
    pair_sketch_.Add(PairKey(cell, kw));
  }
}

void CmSketchEstimator::RotateImpl() {
  for (double& c : cell_counts_) c *= decay_factor_;
  decayed_population_ *= decay_factor_;
  keyword_sketch_.Decay(decay_factor_);
  pair_sketch_.Decay(decay_factor_);
}

double CmSketchEstimator::KeywordProbability(
    const std::vector<stream::KeywordId>& keywords,
    double population) const {
  if (population < 1.0) return 0.0;
  double miss_all = 1.0;
  for (const stream::KeywordId kw : keywords) {
    const double p =
        std::clamp(keyword_sketch_.Estimate(kw) / population, 0.0, 1.0);
    miss_all *= (1.0 - p);
  }
  return 1.0 - miss_all;
}

double CmSketchEstimator::Estimate(const stream::Query& q) const {
  // Decayed counts approximate the live window; scale to the exact
  // population for a calibrated absolute count.
  const double population = static_cast<double>(seen_population());
  if (population <= 0.0 || decayed_population_ < 1.0) return 0.0;
  const double calibration = population / decayed_population_;

  switch (q.Type()) {
    case stream::QueryType::kKeyword:
      return population * KeywordProbability(q.keywords,
                                             decayed_population_);
    case stream::QueryType::kSpatial:
    case stream::QueryType::kHybrid: {
      uint32_t col_lo;
      uint32_t row_lo;
      uint32_t col_hi;
      uint32_t row_hi;
      if (!grid_.CellRange(*q.range, &col_lo, &row_lo, &col_hi, &row_hi)) {
        return 0.0;
      }
      double estimate = 0.0;
      for (uint32_t row = row_lo; row <= row_hi; ++row) {
        for (uint32_t col = col_lo; col <= col_hi; ++col) {
          const uint32_t cell = row * grid_.cols() + col;
          if (cell_counts_[cell] <= 0.0) continue;
          const double fraction =
              grid_.CellRect(cell).OverlapFraction(*q.range);
          if (fraction <= 0.0) continue;
          if (!q.HasKeywords()) {
            estimate += cell_counts_[cell] * fraction;
            continue;
          }
          // Hybrid: per-cell keyword counts from the pair sketch.
          double miss_all = 1.0;
          for (const stream::KeywordId kw : q.keywords) {
            const double count = pair_sketch_.Estimate(PairKey(cell, kw));
            const double p =
                std::clamp(count / cell_counts_[cell], 0.0, 1.0);
            miss_all *= (1.0 - p);
          }
          estimate += cell_counts_[cell] * fraction * (1.0 - miss_all);
        }
      }
      return estimate * calibration;
    }
  }
  return 0.0;
}

size_t CmSketchEstimator::MemoryBytes() const {
  return sizeof(*this) + cell_counts_.size() * sizeof(double) +
         keyword_sketch_.MemoryBytes() + pair_sketch_.MemoryBytes();
}

void CmSketchEstimator::SaveStateImpl(util::BinaryWriter* writer) const {
  writer->WriteU64(cell_counts_.size());
  writer->WriteBytes(cell_counts_.data(),
                     cell_counts_.size() * sizeof(double));
  writer->WriteDouble(decayed_population_);
  keyword_sketch_.Save(writer);
  pair_sketch_.Save(writer);
}

bool CmSketchEstimator::LoadStateImpl(util::BinaryReader* reader) {
  uint64_t num_cells;
  if (!reader->ReadU64(&num_cells) || num_cells != cell_counts_.size()) {
    return false;
  }
  return reader->ReadBytes(cell_counts_.data(),
                           cell_counts_.size() * sizeof(double)) &&
         reader->ReadDouble(&decayed_population_) &&
         keyword_sketch_.Load(reader) && pair_sketch_.Load(reader);
}

}  // namespace latest::estimators
