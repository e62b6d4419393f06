// Tests for the RSL (reservoir sampling list) and RSH (reservoir sampling
// hashmap) estimators.

#include <cmath>

#include <gtest/gtest.h>

#include "estimators/reservoir_hash_estimator.h"
#include "estimators/reservoir_list_estimator.h"
#include "tests/test_stream.h"

namespace latest::estimators {
namespace {

using testing_support::BruteForceCount;
using testing_support::FeedObjects;
using testing_support::MakeClusteredObjects;
using testing_support::MakeHybridQuery;
using testing_support::MakeKeywordQuery;
using testing_support::MakeSpatialQuery;
using testing_support::TestEstimatorConfig;

// --------------------------------------------------------------------
// RSL

TEST(ReservoirListTest, BelowCapacityIsExact) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 100000;  // Sample everything.
  ReservoirListEstimator est(config);
  const auto objects = MakeClusteredObjects(2000, 1);
  FeedObjects(&est, config.window, objects);

  const stream::Query q = MakeSpatialQuery({20, 20, 40, 40});
  const uint64_t truth = BruteForceCount(objects, q, 0);
  EXPECT_NEAR(est.Estimate(q), static_cast<double>(truth), 1e-6);
}

TEST(ReservoirListTest, CapacityIsSplitAcrossSlices) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 1000;
  ReservoirListEstimator est(config);
  EXPECT_EQ(est.capacity_per_slice(), 100u);
}

TEST(ReservoirListTest, SampleSizeBounded) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 500;
  ReservoirListEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 2);
  FeedObjects(&est, config.window, objects);
  EXPECT_LE(est.SampleSize(), 500u);
  EXPECT_GT(est.SampleSize(), 0u);
}

TEST(ReservoirListTest, EstimateWithinSamplingError) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 2000;
  ReservoirListEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 3);
  FeedObjects(&est, config.window, objects);

  // The dense cluster [20,40]^2 holds ~70% of objects: a high-selectivity
  // query whose estimate must land within a few sigma of truth.
  const stream::Query q = MakeSpatialQuery({20, 20, 40, 40});
  const uint64_t truth = BruteForceCount(objects, q, 0);
  const double estimate = est.Estimate(q);
  EXPECT_NEAR(estimate / truth, 1.0, 0.12);
}

TEST(ReservoirListTest, KeywordEstimateWithinSamplingError) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 2000;
  ReservoirListEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 4);
  FeedObjects(&est, config.window, objects);

  const stream::Query q = MakeKeywordQuery({0, 1, 2});  // Head keywords.
  const uint64_t truth = BruteForceCount(objects, q, 0);
  ASSERT_GT(truth, 1000u);
  EXPECT_NEAR(est.Estimate(q) / truth, 1.0, 0.12);
}

TEST(ReservoirListTest, HybridEstimate) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 4000;
  ReservoirListEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 5);
  FeedObjects(&est, config.window, objects);

  const stream::Query q = MakeHybridQuery({20, 20, 40, 40}, {0, 1});
  const uint64_t truth = BruteForceCount(objects, q, 0);
  ASSERT_GT(truth, 500u);
  EXPECT_NEAR(est.Estimate(q) / truth, 1.0, 0.2);
}

TEST(ReservoirListTest, WindowExpiry) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 100000;
  ReservoirListEstimator est(config);
  const auto objects = MakeClusteredObjects(2000, 6, /*duration=*/2000);
  FeedObjects(&est, config.window, objects);
  // Only the last ~window worth of objects contribute.
  EXPECT_LT(est.seen_population(), 1200u);
  const stream::Timestamp slice = config.window.SliceDuration();
  const stream::Timestamp cutoff =
      (objects.back().timestamp / slice - 9) * slice;
  const stream::Query q = MakeSpatialQuery({0, 0, 100, 100});
  EXPECT_NEAR(est.Estimate(q),
              static_cast<double>(BruteForceCount(objects, q, cutoff)), 1e-6);
}

TEST(ReservoirListTest, DeterministicAcrossSeeds) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 200;
  ReservoirListEstimator a(config);
  ReservoirListEstimator b(config);
  const auto objects = MakeClusteredObjects(5000, 7);
  FeedObjects(&a, config.window, objects);
  FeedObjects(&b, config.window, objects);
  const stream::Query q = MakeSpatialQuery({20, 20, 40, 40});
  EXPECT_DOUBLE_EQ(a.Estimate(q), b.Estimate(q));
}

// --------------------------------------------------------------------
// RSH

TEST(ReservoirHashTest, AgreesWithListOnFullScanQueries) {
  // With identical seeds and per-slice capacities, RSH samples the same
  // objects as RSL; keyword queries (full sample scans on both) must
  // produce identical estimates.
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 1000;
  ReservoirListEstimator list(config);
  ReservoirHashEstimator hash(config);
  const auto objects = MakeClusteredObjects(20000, 9);
  FeedObjects(&list, config.window, objects);
  FeedObjects(&hash, config.window, objects);
  const stream::Query q = MakeKeywordQuery({0, 1});
  EXPECT_DOUBLE_EQ(list.Estimate(q), hash.Estimate(q));
}

TEST(ReservoirHashTest, SpatialAgreesWithListScan) {
  // The grid index is a retrieval accelerator only: spatial estimates
  // must match the flat-list scan exactly.
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 1000;
  ReservoirListEstimator list(config);
  ReservoirHashEstimator hash(config);
  const auto objects = MakeClusteredObjects(20000, 10);
  FeedObjects(&list, config.window, objects);
  FeedObjects(&hash, config.window, objects);
  util::Rng rng(11);
  for (int iter = 0; iter < 20; ++iter) {
    const geo::Point c{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    const stream::Query q = MakeSpatialQuery(
        geo::Rect::FromCenter(c, rng.NextDouble(1, 50), rng.NextDouble(1, 50)));
    EXPECT_NEAR(list.Estimate(q), hash.Estimate(q), 1e-9);
  }
}

TEST(ReservoirHashTest, HybridAgreesWithListScan) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 1000;
  ReservoirListEstimator list(config);
  ReservoirHashEstimator hash(config);
  const auto objects = MakeClusteredObjects(20000, 12);
  FeedObjects(&list, config.window, objects);
  FeedObjects(&hash, config.window, objects);
  const stream::Query q = MakeHybridQuery({10, 10, 60, 60}, {0, 2, 4});
  EXPECT_NEAR(list.Estimate(q), hash.Estimate(q), 1e-9);
}

TEST(ReservoirHashTest, SampleSizeBounded) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 300;
  ReservoirHashEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 13);
  FeedObjects(&est, config.window, objects);
  EXPECT_LE(est.SampleSize(), 300u);
}

TEST(ReservoirHashTest, TinyRangeQueryUsesCellProbes) {
  // A range much smaller than a cell: correctness of the cell-probe path.
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 100000;  // Exact sample.
  ReservoirHashEstimator est(config);
  const auto objects = MakeClusteredObjects(5000, 14);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeSpatialQuery({25, 25, 26, 26});
  EXPECT_NEAR(est.Estimate(q),
              static_cast<double>(BruteForceCount(objects, q, 0)), 1e-6);
}

TEST(ReservoirHashTest, HugeRangeQueryUsesOccupiedCellScan) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 100000;
  ReservoirHashEstimator est(config);
  const auto objects = MakeClusteredObjects(5000, 15);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeSpatialQuery({-1000, -1000, 1000, 1000});
  EXPECT_NEAR(est.Estimate(q), static_cast<double>(est.seen_population()),
              1e-6);
}

TEST(ReservoirHashTest, ReplacementKeepsMapConsistent) {
  // Small capacity + many inserts exercises the swap-remove path heavily;
  // estimates must remain finite and bounded by the population.
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 50;
  ReservoirHashEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 16);
  FeedObjects(&est, config.window, objects);
  const double estimate = est.Estimate(MakeSpatialQuery({0, 0, 100, 100}));
  EXPECT_GE(estimate, 0.0);
  EXPECT_NEAR(estimate, static_cast<double>(est.seen_population()), 1e-6);
}

TEST(ReservoirHashTest, MemoryIncludesIndexOverhead) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = 1000;
  ReservoirListEstimator list(config);
  ReservoirHashEstimator hash(config);
  const auto objects = MakeClusteredObjects(20000, 18);
  FeedObjects(&list, config.window, objects);
  FeedObjects(&hash, config.window, objects);
  EXPECT_GT(hash.MemoryBytes(), list.MemoryBytes());
}

// Property sweep: estimates stay within statistical bands across
// capacities.
class ReservoirCapacityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ReservoirCapacityTest, DenseQueryRelativeError) {
  auto config = TestEstimatorConfig();
  config.reservoir_capacity = GetParam();
  ReservoirListEstimator est(config);
  const auto objects = MakeClusteredObjects(40000, 19);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeSpatialQuery({20, 20, 40, 40});
  const uint64_t truth = BruteForceCount(objects, q, 0);
  const double selectivity =
      static_cast<double>(truth) / static_cast<double>(objects.size());
  // Binomial standard error on the matching fraction, scaled up.
  const double sigma =
      std::sqrt(selectivity * (1 - selectivity) *
                static_cast<double>(GetParam())) /
      GetParam() * objects.size();
  EXPECT_NEAR(est.Estimate(q), static_cast<double>(truth), 6.0 * sigma);
}

INSTANTIATE_TEST_SUITE_P(Capacities, ReservoirCapacityTest,
                         ::testing::Values(200u, 500u, 1000u, 4000u, 16000u));

}  // namespace
}  // namespace latest::estimators
