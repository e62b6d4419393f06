// Tests for the workload-driven FFN estimator and the data-driven SPN
// estimator.

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "estimators/ffn_estimator.h"
#include "estimators/spn_estimator.h"
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
// FFN

TEST(FfnEstimatorTest, UntrainedEstimateIsFinite) {
  FfnEstimator est(TestEstimatorConfig());
  const auto objects = MakeClusteredObjects(5000, 1);
  FeedObjects(&est, TestEstimatorConfig().window, objects);
  const double e = est.Estimate(MakeSpatialQuery({20, 20, 40, 40}));
  EXPECT_GE(e, 0.0);
  EXPECT_LE(e, static_cast<double>(est.seen_population()) + 1.0);
}

TEST(FfnEstimatorTest, FeatureVectorShapeAndRanges) {
  FfnEstimator est(TestEstimatorConfig());
  const auto objects = MakeClusteredObjects(5000, 2);
  FeedObjects(&est, TestEstimatorConfig().window, objects);
  const auto f = est.Featurize(MakeHybridQuery({20, 20, 40, 40}, {0, 1}));
  ASSERT_EQ(f.size(), 9u);
  for (const double v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_DOUBLE_EQ(f[0], 1.0);  // Has range.
  EXPECT_GT(f[4], 0.0);         // Keyword count.
}

TEST(FfnEstimatorTest, PureKeywordFeaturesZeroSpatialSlots) {
  FfnEstimator est(TestEstimatorConfig());
  const auto f = est.Featurize(MakeKeywordQuery({3}));
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_DOUBLE_EQ(f[1], 0.0);
  EXPECT_DOUBLE_EQ(f[2], 0.0);
  EXPECT_DOUBLE_EQ(f[3], 0.0);
  EXPECT_DOUBLE_EQ(f[7], 0.0);
}

TEST(FfnEstimatorTest, LearnsFromFeedback) {
  // Train the FFN on queries with known selectivity; accuracy on fresh
  // queries of the same family must beat the untrained baseline clearly.
  auto config = TestEstimatorConfig();
  FfnEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 3);
  FeedObjects(&est, config.window, objects);

  util::Rng rng(4);
  auto sample_query = [&]() {
    const geo::Point c{rng.NextDouble(15, 45), rng.NextDouble(15, 45)};
    return MakeSpatialQuery(
        geo::Rect::FromCenter(c, rng.NextDouble(5, 25), rng.NextDouble(5, 25)));
  };

  double untrained_acc = 0.0;
  std::vector<stream::Query> eval_queries;
  for (int i = 0; i < 50; ++i) eval_queries.push_back(sample_query());
  for (const auto& q : eval_queries) {
    untrained_acc += core::EstimationAccuracy(
        est.Estimate(q), BruteForceCount(objects, q, 0));
  }

  for (int i = 0; i < 3000; ++i) {
    const stream::Query q = sample_query();
    const uint64_t truth = BruteForceCount(objects, q, 0);
    est.OnFeedback(q, est.Estimate(q), truth);
  }

  double trained_acc = 0.0;
  for (const auto& q : eval_queries) {
    trained_acc += core::EstimationAccuracy(est.Estimate(q),
                                            BruteForceCount(objects, q, 0));
  }
  EXPECT_GT(trained_acc, untrained_acc + 5.0);  // +0.1 mean accuracy.
  EXPECT_GT(trained_acc / 50.0, 0.3);
}

TEST(FfnEstimatorTest, EstimateLatencyIndependentOfPopulation) {
  // The FFN carries no data synopsis proportional to the stream; its
  // memory stays small even after many inserts.
  auto config = TestEstimatorConfig();
  FfnEstimator est(config);
  const size_t before = est.MemoryBytes();
  const auto objects = MakeClusteredObjects(50000, 6);
  FeedObjects(&est, config.window, objects);
  EXPECT_LT(est.MemoryBytes(), before + (1u << 20));  // Under +1 MiB.
}

// --------------------------------------------------------------------
// SPN

TEST(SpnEstimatorTest, EmptyEstimatesZero) {
  SpnEstimator est(TestEstimatorConfig());
  EXPECT_DOUBLE_EQ(est.Estimate(MakeSpatialQuery({0, 0, 50, 50})), 0.0);
}

TEST(SpnEstimatorTest, ClusterWeightsSumToPopulationScale) {
  auto config = TestEstimatorConfig();
  SpnEstimator est(config);
  // Geometric decay reaches its windowed steady state only after several
  // window lengths: stream 3 windows' worth of data.
  const auto objects = MakeClusteredObjects(10000, 7, /*duration=*/3000);
  FeedObjects(&est, config.window, objects);
  double total = 0.0;
  for (uint32_t k = 0; k < est.num_clusters(); ++k) {
    total += est.ClusterWeight(k);
  }
  // Decayed weights approximate the live population.
  EXPECT_NEAR(total / static_cast<double>(est.seen_population()), 1.0, 0.3);
}

TEST(SpnEstimatorTest, FullDomainProbabilityNearOne) {
  auto config = TestEstimatorConfig();
  SpnEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 8);
  FeedObjects(&est, config.window, objects);
  const double estimate = est.Estimate(MakeSpatialQuery({0, 0, 100, 100}));
  EXPECT_NEAR(estimate / static_cast<double>(est.seen_population()), 1.0,
              0.15);
}

TEST(SpnEstimatorTest, DenseRegionBeatsUniformAssumption) {
  // The mixture must capture the [20,40]^2 cluster: its estimate for the
  // cluster region must be far closer to truth than area-proportional
  // uniform estimation.
  auto config = TestEstimatorConfig();
  SpnEstimator est(config);
  const auto objects = MakeClusteredObjects(40000, 9);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeSpatialQuery({20, 20, 40, 40});
  const auto truth =
      static_cast<double>(BruteForceCount(objects, q, 0));
  const double pop = static_cast<double>(est.seen_population());
  const double uniform = pop * (20.0 * 20.0) / (100.0 * 100.0);
  const double spn = est.Estimate(q);
  EXPECT_LT(std::abs(spn - truth), std::abs(uniform - truth));
}

TEST(SpnEstimatorTest, KeywordEstimateRoughlyTracksFrequency) {
  auto config = TestEstimatorConfig();
  SpnEstimator est(config);
  const auto objects = MakeClusteredObjects(40000, 10);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeKeywordQuery({0});
  const auto truth = static_cast<double>(BruteForceCount(objects, q, 0));
  EXPECT_NEAR(est.Estimate(q) / truth, 1.0, 0.6);
}

TEST(SpnEstimatorTest, HybridBoundedBySpatialFactor) {
  auto config = TestEstimatorConfig();
  SpnEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 11);
  FeedObjects(&est, config.window, objects);
  const geo::Rect r{20, 20, 40, 40};
  EXPECT_LE(est.Estimate(MakeHybridQuery(r, {0})),
            est.Estimate(MakeSpatialQuery(r)) + 1e-9);
}

TEST(SpnEstimatorTest, DisjointRangeEstimatesNearZero) {
  auto config = TestEstimatorConfig();
  SpnEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 12);
  FeedObjects(&est, config.window, objects);
  // Out-of-domain ranges clamp to zero overlap with every histogram bin.
  EXPECT_NEAR(est.Estimate(MakeSpatialQuery({200, 200, 300, 300})), 0.0,
              1e-6);
}

TEST(SpnEstimatorTest, MemoryScalesWithClusters) {
  auto small_cfg = TestEstimatorConfig();
  small_cfg.spn_clusters = 2;
  auto large_cfg = TestEstimatorConfig();
  large_cfg.spn_clusters = 32;
  SpnEstimator small(small_cfg);
  SpnEstimator large(large_cfg);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
}

// Property sweep over cluster counts: total-probability invariant.
class SpnClusterTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SpnClusterTest, FullDomainInvariant) {
  auto config = TestEstimatorConfig();
  config.spn_clusters = GetParam();
  SpnEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 14);
  FeedObjects(&est, config.window, objects);
  const double estimate =
      est.Estimate(MakeSpatialQuery({-100, -100, 300, 300}));
  EXPECT_NEAR(estimate / static_cast<double>(est.seen_population()), 1.0,
              0.2);
}

INSTANTIATE_TEST_SUITE_P(Clusters, SpnClusterTest,
                         ::testing::Values(1u, 4u, 8u, 16u));

}  // namespace
}  // namespace latest::estimators
