// Tests for the Count-Min sketch and the CMS portfolio-extension
// estimator.

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "estimators/cm_sketch_estimator.h"
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
// CountMinSketch

TEST(CountMinSketchTest, NeverUndercounts) {
  CountMinSketch sketch(4, 64, 1);
  util::Rng rng(2);
  std::vector<int> truth(1000, 0);
  for (int i = 0; i < 20000; ++i) {
    const auto key = rng.NextBounded(1000);
    ++truth[key];
    sketch.Add(key);
  }
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_GE(sketch.Estimate(key), static_cast<double>(truth[key]));
  }
}

TEST(CountMinSketchTest, ExactWithoutCollisions) {
  CountMinSketch sketch(4, 4096, 3);
  for (int i = 0; i < 5; ++i) sketch.Add(7);
  for (int i = 0; i < 3; ++i) sketch.Add(9);
  EXPECT_DOUBLE_EQ(sketch.Estimate(7), 5.0);
  EXPECT_DOUBLE_EQ(sketch.Estimate(9), 3.0);
  EXPECT_DOUBLE_EQ(sketch.Estimate(12345), 0.0);
}

TEST(CountMinSketchTest, ErrorBoundedByEpsN) {
  // Classic CM bound: error <= e/width * N with high probability.
  constexpr uint32_t kWidth = 512;
  CountMinSketch sketch(4, kWidth, 5);
  util::Rng rng(6);
  constexpr int kN = 100000;
  std::vector<int> truth(5000, 0);
  for (int i = 0; i < kN; ++i) {
    const double u = rng.NextDouble();
    const auto key = static_cast<uint64_t>(u * u * 5000);
    ++truth[key];
    sketch.Add(key);
  }
  const double bound = 2.72 / kWidth * kN;
  int violations = 0;
  for (uint64_t key = 0; key < 5000; ++key) {
    if (sketch.Estimate(key) - truth[key] > bound) ++violations;
  }
  EXPECT_LT(violations, 50);  // < 1% of keys.
}

TEST(CountMinSketchTest, DecayScalesEverything) {
  CountMinSketch sketch(2, 64, 7);
  sketch.Add(1, 8.0);
  sketch.Decay(0.25);
  EXPECT_DOUBLE_EQ(sketch.Estimate(1), 2.0);
}

// --------------------------------------------------------------------
// CmSketchEstimator

TEST(CmSketchEstimatorTest, KindAndName) {
  CmSketchEstimator est(TestEstimatorConfig());
  EXPECT_EQ(est.kind(), EstimatorKind::kCmSketch);
}

TEST(CmSketchEstimatorTest, SpatialEstimateTracksTruth) {
  auto config = TestEstimatorConfig();
  CmSketchEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 1);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeSpatialQuery({20, 20, 40, 40});
  const auto truth = static_cast<double>(BruteForceCount(objects, q, 0));
  EXPECT_NEAR(est.Estimate(q) / truth, 1.0, 0.25);
}

TEST(CmSketchEstimatorTest, KeywordEstimateTracksHeadKeywords) {
  auto config = TestEstimatorConfig();
  CmSketchEstimator est(config);
  const auto objects = MakeClusteredObjects(30000, 2);
  FeedObjects(&est, config.window, objects);
  const stream::Query q = MakeKeywordQuery({0});
  const auto truth = static_cast<double>(BruteForceCount(objects, q, 0));
  ASSERT_GT(truth, 2000.0);
  EXPECT_NEAR(est.Estimate(q) / truth, 1.0, 0.35);
}

TEST(CmSketchEstimatorTest, HybridBoundedBySpatial) {
  auto config = TestEstimatorConfig();
  CmSketchEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 3);
  FeedObjects(&est, config.window, objects);
  const geo::Rect r{20, 20, 40, 40};
  EXPECT_LE(est.Estimate(MakeHybridQuery(r, {0})),
            est.Estimate(MakeSpatialQuery(r)) * 1.01 + 1.0);
}

TEST(CmSketchEstimatorTest, UnseenKeywordNearZero) {
  auto config = TestEstimatorConfig();
  CmSketchEstimator est(config);
  const auto objects = MakeClusteredObjects(20000, 4);
  FeedObjects(&est, config.window, objects);
  // A key far outside the stream vocabulary: only collision mass remains.
  const double estimate = est.Estimate(MakeKeywordQuery({999999}));
  EXPECT_LT(estimate,
            0.15 * static_cast<double>(est.seen_population()));
}

TEST(CmSketchEstimatorTest, MemoryIsFlatInStreamSize) {
  auto config = TestEstimatorConfig();
  CmSketchEstimator est(config);
  const size_t before = est.MemoryBytes();
  const auto objects = MakeClusteredObjects(30000, 5);
  FeedObjects(&est, config.window, objects);
  EXPECT_EQ(est.MemoryBytes(), before);  // Sketches are fixed-size.
}

// --------------------------------------------------------------------
// Module integration with the extended portfolio

TEST(CmSketchEstimatorTest, ModuleRunsWithCmsEnabled) {
  core::LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 30;
  config.monitor_window = 8;
  config.maintain_shadow_estimators = true;
  config.enabled_estimators = {true, true, true, true, true, true, true};
  auto module = std::move(core::LatestModule::Create(config)).value();

  const auto objects = MakeClusteredObjects(3000, 6, 3000);
  bool cms_measured = false;
  for (const auto& obj : objects) {
    module->OnObject(obj);
    if (obj.timestamp >= 1000 && obj.oid % 20 == 0) {
      stream::Query q = MakeSpatialQuery({20, 20, 40, 40});
      q.timestamp = obj.timestamp;
      const auto outcome = module->OnQuery(q);
      for (const auto& m : outcome.measurements) {
        if (m.kind == EstimatorKind::kCmSketch) cms_measured = true;
      }
    }
  }
  EXPECT_TRUE(cms_measured);
}

TEST(CmSketchEstimatorTest, CmsCanBeTheDefaultEstimator) {
  core::LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 20;
  config.default_estimator = EstimatorKind::kCmSketch;
  config.enabled_estimators = {true, false, false, false, false, false,
                               true};
  ASSERT_TRUE(config.Validate().ok());
  auto module = std::move(core::LatestModule::Create(config)).value();
  EXPECT_EQ(module->active_kind(), EstimatorKind::kCmSketch);
}

}  // namespace
}  // namespace latest::estimators
