// Tests for the AASP (augmented adaptive space partitioning) estimator.

#include <gtest/gtest.h>

#include "estimators/aasp_estimator.h"
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

TEST(AaspEstimatorTest, EmptyEstimatesZero) {
  AaspEstimator est(TestEstimatorConfig());
  EXPECT_DOUBLE_EQ(est.Estimate(MakeSpatialQuery({0, 0, 50, 50})), 0.0);
  EXPECT_DOUBLE_EQ(est.Estimate(MakeKeywordQuery({1})), 0.0);
}

TEST(AaspEstimatorTest, StartsWithOneNodePerPartition) {
  auto config = TestEstimatorConfig();
  config.aasp_partitions = 8;
  AaspEstimator est(config);
  EXPECT_EQ(est.num_partitions(), 8u);
  EXPECT_EQ(est.num_nodes(), 8u);
}

TEST(AaspEstimatorTest, TreeAdaptsToDensity) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 1);
  FeedObjects(&est, config.window, objects);
  // The dense cluster must force splits beyond the initial roots.
  EXPECT_GT(est.num_nodes(), est.num_partitions());
}

TEST(AaspEstimatorTest, NodeBudgetRespected) {
  auto config = TestEstimatorConfig();
  config.aasp_max_nodes = 128;
  config.aasp_partitions = 4;
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 2);
  FeedObjects(&est, config.window, objects);
  EXPECT_LE(est.num_nodes(), 128u);
}

TEST(AaspEstimatorTest, FullDomainSpatialQueryCountsEverything) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(10000, 3);
  FeedObjects(&est, config.window, objects);
  // Every node cell is fully covered: overlap fractions are 1, so the
  // estimate must equal the exact live population.
  const double estimate =
      est.Estimate(MakeSpatialQuery({-100, -100, 200, 200}));
  EXPECT_NEAR(estimate, static_cast<double>(est.seen_population()), 1.0);
}

TEST(AaspEstimatorTest, SpatialAccuracyOnDenseRegion) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 4);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeSpatialQuery({20, 20, 40, 40});
  const uint64_t truth = BruteForceCount(objects, q, 0);
  EXPECT_NEAR(est.Estimate(q) / truth, 1.0, 0.35);
}

TEST(AaspEstimatorTest, KeywordEstimateTracksHeadKeywords) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 5);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeKeywordQuery({0});  // Most frequent keyword.
  const uint64_t truth = BruteForceCount(objects, q, 0);
  ASSERT_GT(truth, 3000u);
  // Local bounded counters: moderate accuracy expected, not exactness.
  EXPECT_NEAR(est.Estimate(q) / truth, 1.0, 0.5);
}

TEST(AaspEstimatorTest, UnseenKeywordEstimatesZero) {
  // A keyword absent from the stream is tracked by no node counter, so
  // the locally-coupled aggregation contributes nothing.
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 6);
  FeedObjects(&est, config.window, objects);
  EXPECT_DOUBLE_EQ(est.Estimate(MakeKeywordQuery({10000})), 0.0);
}

TEST(AaspEstimatorTest, SpaceSavingInflationStaysBounded) {
  // Mid-frequency keywords inherit counters under Space-Saving pressure:
  // estimates are biased upward but must stay within a small factor.
  auto config = TestEstimatorConfig();
  config.aasp_node_keywords = 2;
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(50000, 6);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeKeywordQuery({49});  // Rarest stream keyword.
  const uint64_t truth = BruteForceCount(objects, q, 0);
  ASSERT_GT(truth, 100u);
  EXPECT_LE(est.Estimate(q), 4.0 * static_cast<double>(truth));
}

TEST(AaspEstimatorTest, HybridBoundedByPopulationInRange) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 7);
  FeedObjects(&est, config.window, objects);
  const geo::Rect r{20, 20, 40, 40};
  const double hybrid = est.Estimate(MakeHybridQuery(r, {0, 1}));
  const double spatial = est.Estimate(MakeSpatialQuery(r));
  EXPECT_GE(hybrid, 0.0);
  EXPECT_LE(hybrid, spatial + 1e-9);
}

TEST(AaspEstimatorTest, DistinctKeywordEstimate) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 8);
  FeedObjects(&est, config.window, objects);
  // The synthetic stream uses 50 distinct keywords.
  EXPECT_NEAR(est.EstimateDistinctKeywords(), 50.0, 10.0);
}

TEST(AaspEstimatorTest, WindowExpiryCollapsesTree) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 9);
  FeedObjects(&est, config.window, objects);
  const uint32_t nodes_before = est.num_nodes();
  // Rotate a full window of empty slices: everything expires and all
  // subtrees collapse back to the partition roots.
  for (uint32_t i = 0; i <= config.window.num_slices; ++i) {
    est.OnSliceRotate();
  }
  EXPECT_EQ(est.seen_population(), 0u);
  EXPECT_EQ(est.num_nodes(), est.num_partitions());
  EXPECT_GT(nodes_before, est.num_nodes());
  EXPECT_DOUBLE_EQ(est.Estimate(MakeSpatialQuery({0, 0, 100, 100})), 0.0);
}

TEST(AaspEstimatorTest, SplitThresholdScalesWithPopulation) {
  auto config = TestEstimatorConfig();
  AaspEstimator est(config);
  const uint64_t initial = est.SplitThreshold();
  const auto objects = MakeClusteredObjects(50000, 10);
  FeedObjects(&est, config.window, objects);
  EXPECT_GE(est.SplitThreshold(), initial);
}

TEST(AaspEstimatorTest, MemoryGrowsWithNodeBudget) {
  auto small_cfg = TestEstimatorConfig();
  small_cfg.aasp_max_nodes = 64;
  auto large_cfg = TestEstimatorConfig();
  large_cfg.aasp_max_nodes = 4096;
  AaspEstimator small(small_cfg);
  AaspEstimator large(large_cfg);
  const auto objects = MakeClusteredObjects(50000, 12);
  FeedObjects(&small, small_cfg.window, objects);
  FeedObjects(&large, large_cfg.window, objects);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
}

// Property sweep over partition counts: the full-domain invariant holds
// for any forest shape.
class AaspPartitionTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AaspPartitionTest, FullDomainInvariant) {
  auto config = TestEstimatorConfig();
  config.aasp_partitions = GetParam();
  AaspEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 13);
  FeedObjects(&est, config.window, objects);
  EXPECT_NEAR(est.Estimate(MakeSpatialQuery({-100, -100, 200, 200})),
              static_cast<double>(est.seen_population()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Partitions, AaspPartitionTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

}  // namespace
}  // namespace latest::estimators
