#include "estimators/reservoir_list_estimator.h"

#include <algorithm>

namespace latest::estimators {

ReservoirListEstimator::ReservoirListEstimator(const EstimatorConfig& config)
    : WindowedEstimatorBase(config.window.num_slices),
      capacity_per_slice_(std::max(
          1u, config.reservoir_capacity / config.window.num_slices)),
      slices_(config.window.num_slices),
      rng_(config.seed) {}

void ReservoirListEstimator::InsertImpl(const stream::GeoTextObject& obj) {
  SliceReservoir& slice = slices_.Current();
  ++slice.seen;
  if (slice.sample.size() < capacity_per_slice_) {
    if (slice.sample.empty()) slice.sample.Reserve(capacity_per_slice_);
    slice.sample.PushBack(obj);
    return;
  }
  // Algorithm R: replace a random slot with probability capacity/seen.
  const uint64_t j = rng_.NextBounded(slice.seen);
  if (j < capacity_per_slice_) {
    slice.sample.Replace(static_cast<size_t>(j), obj);
  }
}

void ReservoirListEstimator::RotateImpl() { slices_.Rotate(); }

double ReservoirListEstimator::Estimate(const stream::Query& q) const {
  // Stratified estimate: each slice's matching fraction scales to that
  // slice's population.
  double estimate = 0.0;
  slices_.ForEach([&](const SliceReservoir& slice) {
    if (slice.sample.empty()) return;
    uint64_t matches = 0;
    const size_t n = slice.sample.size();
    for (size_t i = 0; i < n; ++i) {
      if (slice.sample.Matches(q, i)) ++matches;
    }
    estimate += static_cast<double>(matches) /
                static_cast<double>(slice.sample.size()) *
                static_cast<double>(slice.seen);
  });
  return estimate;
}

uint64_t ReservoirListEstimator::SampleSize() const {
  uint64_t total = 0;
  slices_.ForEach(
      [&](const SliceReservoir& slice) { total += slice.sample.size(); });
  return total;
}

size_t ReservoirListEstimator::MemoryBytes() const {
  size_t bytes = 0;
  slices_.ForEach([&](const SliceReservoir& slice) {
    bytes += sizeof(SliceReservoir) + slice.sample.MemoryBytes();
  });
  return bytes;
}

void ReservoirListEstimator::SaveStateImpl(util::BinaryWriter* writer) const {
  slices_.Save(writer,
               [](const SliceReservoir& slice, util::BinaryWriter* w) {
                 slice.sample.Save(w);
                 w->WriteU64(slice.seen);
               });
  rng_.Save(writer);
}

bool ReservoirListEstimator::LoadStateImpl(util::BinaryReader* reader) {
  if (!slices_.Load(reader,
                    [](SliceReservoir* slice, util::BinaryReader* r) {
                      return slice->sample.Load(r) && r->ReadU64(&slice->seen);
                    })) {
    return false;
  }
  return rng_.Load(reader);
}

}  // namespace latest::estimators
