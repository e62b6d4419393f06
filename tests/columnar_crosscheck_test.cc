// Cross-check of the columnar exact-evaluation path (acceptance gate of
// the window-store refactor): over a full windowed lifecycle — appends,
// slice-rotation-driven eviction, and a mixed query stream — the
// ExactEvaluator's counts must be bit-identical (a) to a copy-based
// reference evaluator replicating the pre-columnar semantics, and (b)
// across every kernel tier (scalar, SSE2, AVX2).

#include <cstdint>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "exact/exact_evaluator.h"
#include "simd/kernels.h"
#include "stream/sliding_window.h"
#include "tests/test_stream.h"
#include "util/rng.h"

namespace latest::exact {
namespace {

using testing_support::kTestBounds;

constexpr stream::WindowConfig kWindow{1000, 10};

/// Copy-based reference: whole objects in arrival order, linear scans.
/// This replicates the semantics of the pre-columnar deque-based path —
/// eviction strictly below the cutoff, one count per matching object.
class ReferenceEvaluator {
 public:
  void Insert(const stream::GeoTextObject& obj) { objects_.push_back(obj); }

  void EvictExpired(stream::Timestamp now) {
    const stream::Timestamp cutoff = now - kWindow.window_length_ms;
    while (!objects_.empty() && objects_.front().timestamp < cutoff) {
      objects_.pop_front();
    }
  }

  uint64_t TrueSelectivity(const stream::Query& q) const {
    const stream::Timestamp cutoff = q.timestamp - kWindow.window_length_ms;
    uint64_t count = 0;
    for (const auto& obj : objects_) {
      if (obj.timestamp >= cutoff && q.Matches(obj)) ++count;
    }
    return count;
  }

 private:
  std::deque<stream::GeoTextObject> objects_;
};

stream::Query NextQuery(util::Rng* rng) {
  const double u = rng->NextDouble();
  const geo::Point c{rng->NextDouble(10, 90), rng->NextDouble(10, 90)};
  const geo::Rect r = geo::Rect::FromCenter(c, rng->NextDouble(5, 60),
                                            rng->NextDouble(5, 60));
  if (u < 0.35) return testing_support::MakeSpatialQuery(r);
  std::vector<stream::KeywordId> kws{
      static_cast<stream::KeywordId>(rng->NextBounded(50))};
  if (u < 0.55) {
    kws.push_back(static_cast<stream::KeywordId>(rng->NextBounded(50)));
  }
  if (u < 0.70) return testing_support::MakeKeywordQuery(std::move(kws));
  return testing_support::MakeHybridQuery(r, std::move(kws));
}

/// Runs the full lifecycle at the active kernel tier, returning every
/// exact count.
std::vector<uint64_t> RunColumnarLifecycle() {
  ExactEvaluator evaluator(kTestBounds, kWindow.window_length_ms);

  const auto objects = testing_support::MakeClusteredObjects(
      8000, /*seed=*/13, /*duration=*/4000);
  stream::SliceClock clock(kWindow);
  util::Rng query_rng(99);
  std::vector<uint64_t> actuals;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (clock.Advance(objects[i].timestamp) > 0) {
      evaluator.EvictExpired(clock.now());
    }
    evaluator.Insert(objects[i]);
    if (objects[i].timestamp < 1000 || i % 10 != 0) continue;
    stream::Query q = NextQuery(&query_rng);
    q.timestamp = objects[i].timestamp;
    actuals.push_back(evaluator.TrueSelectivity(q));
  }
  return actuals;
}

/// The same lifecycle against the copy-based reference.
std::vector<uint64_t> RunReferenceLifecycle() {
  ReferenceEvaluator evaluator;
  const auto objects = testing_support::MakeClusteredObjects(
      8000, /*seed=*/13, /*duration=*/4000);
  stream::SliceClock clock(kWindow);
  util::Rng query_rng(99);
  std::vector<uint64_t> actuals;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (clock.Advance(objects[i].timestamp) > 0) {
      evaluator.EvictExpired(clock.now());
    }
    evaluator.Insert(objects[i]);
    if (objects[i].timestamp < 1000 || i % 10 != 0) continue;
    stream::Query q = NextQuery(&query_rng);
    q.timestamp = objects[i].timestamp;
    actuals.push_back(evaluator.TrueSelectivity(q));
  }
  return actuals;
}

TEST(ColumnarCrosscheckTest, MatchesCopyBasedReferenceSerially) {
  const std::vector<uint64_t> reference = RunReferenceLifecycle();
  ASSERT_GT(reference.size(), 500u);
  EXPECT_EQ(RunColumnarLifecycle(), reference);
}

TEST(ColumnarCrosscheckTest, BitIdenticalAcrossKernelTiers) {
  const simd::KernelTier saved = simd::ActiveTier();
  ASSERT_TRUE(simd::SetActiveTier(simd::KernelTier::kScalar));
  const std::vector<uint64_t> scalar = RunColumnarLifecycle();
  ASSERT_GT(scalar.size(), 500u);
  const int highest = static_cast<int>(simd::HighestSupportedTier());
  for (int t = 1; t <= highest; ++t) {
    const auto tier = static_cast<simd::KernelTier>(t);
    ASSERT_TRUE(simd::SetActiveTier(tier));
    EXPECT_EQ(RunColumnarLifecycle(), scalar)
        << "tier=" << simd::KernelTierName(tier);
  }
  simd::SetActiveTier(saved);
}

}  // namespace
}  // namespace latest::exact
