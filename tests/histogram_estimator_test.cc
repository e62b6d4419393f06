// Tests for the H4096 two-dimensional histogram estimator.

#include <gtest/gtest.h>

#include "estimators/histogram2d_estimator.h"
#include "tests/test_stream.h"

namespace latest::estimators {
namespace {

using testing_support::FeedObjects;
using testing_support::MakeClusteredObjects;
using testing_support::MakeHybridQuery;
using testing_support::MakeKeywordQuery;
using testing_support::MakeSpatialQuery;
using testing_support::TestEstimatorConfig;

TEST(HistogramEstimatorTest, EmptyEstimatesZero) {
  Histogram2dEstimator est(TestEstimatorConfig());
  EXPECT_DOUBLE_EQ(est.Estimate(MakeSpatialQuery({0, 0, 50, 50})), 0.0);
  EXPECT_EQ(est.seen_population(), 0u);
}

TEST(HistogramEstimatorTest, GridSideFromCellBudget) {
  auto config = TestEstimatorConfig();
  config.histogram_cells = 4096;
  Histogram2dEstimator est(config);
  EXPECT_EQ(est.grid().cols(), 64u);
  EXPECT_EQ(est.grid().rows(), 64u);
}

TEST(HistogramEstimatorTest, NonSquareBudgetRoundsDown) {
  auto config = TestEstimatorConfig();
  config.histogram_cells = 5000;  // 70*70=4900 <= 5000 < 71*71.
  Histogram2dEstimator est(config);
  EXPECT_EQ(est.grid().cols(), 70u);
}

TEST(HistogramEstimatorTest, CellAlignedQueryIsExact) {
  auto config = TestEstimatorConfig();
  config.histogram_cells = 16;  // 4x4 grid over [0,100)^2: 25-unit cells.
  Histogram2dEstimator est(config);
  const auto objects = MakeClusteredObjects(2000, 1);
  FeedObjects(&est, config.window, objects);

  // A query exactly covering cells: estimate must equal truth (within
  // floating point) because no partial cells are involved.
  const stream::Query q = MakeSpatialQuery({0, 0, 50, 50});
  const uint64_t truth = testing_support::BruteForceCount(objects, q, 0);
  EXPECT_NEAR(est.Estimate(q), static_cast<double>(truth), 1.0);
}

TEST(HistogramEstimatorTest, PartialCellUsesFractionalOverlap) {
  auto config = TestEstimatorConfig();
  config.histogram_cells = 1;  // Single cell covering everything.
  Histogram2dEstimator est(config);
  const auto objects = MakeClusteredObjects(1000, 2);
  FeedObjects(&est, config.window, objects);
  // A quarter-domain query must estimate ~population/4 under uniformity.
  const double estimate = est.Estimate(MakeSpatialQuery({0, 0, 50, 50}));
  EXPECT_NEAR(estimate, 250.0, 1.0);
}

TEST(HistogramEstimatorTest, AccurateOnSpatialQueries) {
  auto config = TestEstimatorConfig();
  Histogram2dEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 3);
  FeedObjects(&est, config.window, objects);
  const stream::Timestamp cutoff = 1000 - config.window.window_length_ms;

  util::Rng rng(4);
  double total_rel_error = 0.0;
  int trials = 0;
  for (int iter = 0; iter < 40; ++iter) {
    const geo::Point c{rng.NextDouble(10, 90), rng.NextDouble(10, 90)};
    const stream::Query q = MakeSpatialQuery(
        geo::Rect::FromCenter(c, rng.NextDouble(5, 30), rng.NextDouble(5, 30)));
    const uint64_t truth = testing_support::BruteForceCount(objects, q, cutoff);
    if (truth < 20) continue;
    total_rel_error +=
        std::abs(est.Estimate(q) - static_cast<double>(truth)) / truth;
    ++trials;
  }
  ASSERT_GT(trials, 10);
  EXPECT_LT(total_rel_error / trials, 0.15);
}

TEST(HistogramEstimatorTest, KeywordQueriesFallBackToPopulation) {
  auto config = TestEstimatorConfig();
  Histogram2dEstimator est(config);
  const auto objects = MakeClusteredObjects(1000, 5);
  FeedObjects(&est, config.window, objects);
  // Purely spatial statistics: a keyword query returns everything seen.
  EXPECT_DOUBLE_EQ(est.Estimate(MakeKeywordQuery({3})),
                   static_cast<double>(est.seen_population()));
}

TEST(HistogramEstimatorTest, HybridIgnoresKeywordPredicate) {
  auto config = TestEstimatorConfig();
  Histogram2dEstimator est(config);
  const auto objects = MakeClusteredObjects(5000, 6);
  FeedObjects(&est, config.window, objects);
  const geo::Rect r{20, 20, 40, 40};
  EXPECT_DOUBLE_EQ(est.Estimate(MakeHybridQuery(r, {3})),
                   est.Estimate(MakeSpatialQuery(r)));
}

TEST(HistogramEstimatorTest, WindowExpiryDropsOldSlices) {
  auto config = TestEstimatorConfig();
  Histogram2dEstimator est(config);
  // 1000 objects spread over 2x the window: after feeding, only the last
  // window's worth must remain.
  const auto objects = MakeClusteredObjects(1000, 7, /*duration=*/2000);
  FeedObjects(&est, config.window, objects);
  // Window = 1000ms of a 2000ms stream = ~half the objects.
  EXPECT_LT(est.seen_population(), 600u);
  EXPECT_GT(est.seen_population(), 400u);
}

TEST(HistogramEstimatorTest, ExpiredWindowEstimatesMatchRecentTruth) {
  auto config = TestEstimatorConfig();
  Histogram2dEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 8, /*duration=*/3000);
  FeedObjects(&est, config.window, objects);
  // Live slices are the newest 10 (current + 9 past); compare against the
  // brute force over the slice-aligned cutoff.
  const stream::Timestamp slice = config.window.SliceDuration();
  const stream::Timestamp cutoff =
      (objects.back().timestamp / slice - 9) * slice;
  const stream::Query q = MakeSpatialQuery({0, 0, 100, 100});
  const uint64_t truth = testing_support::BruteForceCount(objects, q, cutoff);
  EXPECT_NEAR(est.Estimate(q), static_cast<double>(truth),
              0.02 * truth + 2.0);
}

TEST(HistogramEstimatorTest, DisjointQueryEstimatesZero) {
  auto config = TestEstimatorConfig();
  Histogram2dEstimator est(config);
  const auto objects = MakeClusteredObjects(1000, 9);
  FeedObjects(&est, config.window, objects);
  EXPECT_DOUBLE_EQ(est.Estimate(MakeSpatialQuery({200, 200, 300, 300})), 0.0);
}

TEST(HistogramEstimatorTest, MemoryScalesWithCells) {
  auto small_cfg = TestEstimatorConfig();
  small_cfg.histogram_cells = 256;
  auto large_cfg = TestEstimatorConfig();
  large_cfg.histogram_cells = 4096;
  Histogram2dEstimator small(small_cfg);
  Histogram2dEstimator large(large_cfg);
  EXPECT_GT(large.MemoryBytes(), 8 * small.MemoryBytes());
}

TEST(HistogramEstimatorTest, KindIsH4096) {
  Histogram2dEstimator est(TestEstimatorConfig());
  EXPECT_EQ(est.kind(), EstimatorKind::kH4096);
  EXPECT_STREQ(EstimatorKindName(est.kind()), "H4096");
}

}  // namespace
}  // namespace latest::estimators
