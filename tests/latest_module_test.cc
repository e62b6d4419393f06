// Integration tests for the LATEST module: the three-phase lifecycle,
// estimator pre-filling and switching, learning-model training, and the
// estimate-scaling of partially filled estimators.

#include <cmath>

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "tests/test_stream.h"
#include "workload/dataset.h"
#include "workload/query_workload.h"
#include "workload/stream_driver.h"

namespace latest::core {
namespace {

// A compact module configuration sized for test streams.
LatestConfig SmallConfig() {
  LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 60;
  config.monitor_window = 16;
  config.min_queries_between_switches = 16;
  config.estimator.reservoir_capacity = 500;
  config.seed = 5;
  return config;
}

// Drives `num_objects` clustered objects and interleaves a query every
// `objects_per_query` arrivals once past the warm-up window, using the
// supplied query factory.
template <typename QueryFactory>
std::vector<QueryOutcome> Drive(LatestModule* module, int num_objects,
                                int objects_per_query, uint64_t seed,
                                QueryFactory&& make_query,
                                stream::Timestamp duration = 4000) {
  const auto objects =
      testing_support::MakeClusteredObjects(num_objects, seed, duration);
  std::vector<QueryOutcome> outcomes;
  for (int i = 0; i < num_objects; ++i) {
    module->OnObject(objects[i]);
    if (objects[i].timestamp >= 1000 && i % objects_per_query == 0) {
      stream::Query q = make_query();
      q.timestamp = objects[i].timestamp;
      outcomes.push_back(module->OnQuery(q));
    }
  }
  return outcomes;
}

stream::Query RandomQuery(util::Rng* rng) {
  const double u = rng->NextDouble();
  if (u < 0.34) {
    const geo::Point c{rng->NextDouble(10, 90), rng->NextDouble(10, 90)};
    return testing_support::MakeSpatialQuery(
        geo::Rect::FromCenter(c, rng->NextDouble(5, 30),
                              rng->NextDouble(5, 30)));
  }
  if (u < 0.67) {
    return testing_support::MakeKeywordQuery(
        {static_cast<stream::KeywordId>(rng->NextBounded(50))});
  }
  const geo::Point c{rng->NextDouble(10, 90), rng->NextDouble(10, 90)};
  return testing_support::MakeHybridQuery(
      geo::Rect::FromCenter(c, rng->NextDouble(5, 30),
                            rng->NextDouble(5, 30)),
      {static_cast<stream::KeywordId>(rng->NextBounded(50))});
}

TEST(LatestModuleTest, StartsInWarmup) {
  auto module = LatestModule::Create(SmallConfig());
  ASSERT_TRUE(module.ok());
  EXPECT_EQ((*module)->phase(), Phase::kWarmup);
  EXPECT_EQ((*module)->active_kind(), estimators::EstimatorKind::kRsh);
}

TEST(LatestModuleTest, WarmupEndsAfterWindowLength) {
  auto module_result = LatestModule::Create(SmallConfig());
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  const auto objects = testing_support::MakeClusteredObjects(
      2000, 1, /*duration=*/2000);
  for (const auto& obj : objects) {
    module.OnObject(obj);
    if (obj.timestamp < 1000) {
      EXPECT_EQ(module.phase(), Phase::kWarmup);
    }
  }
  EXPECT_EQ(module.phase(), Phase::kPretraining);
}

TEST(LatestModuleTest, PretrainingMeasuresAllEstimators) {
  auto module_result = LatestModule::Create(SmallConfig());
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(2);
  const auto outcomes = Drive(&module, 3000, 40, 3,
                              [&]() { return RandomQuery(&rng); });
  ASSERT_FALSE(outcomes.empty());
  bool saw_pretraining = false;
  for (const auto& outcome : outcomes) {
    if (outcome.phase == Phase::kPretraining) {
      saw_pretraining = true;
      EXPECT_EQ(outcome.measurements.size(),
                estimators::kNumPaperEstimatorKinds);
    }
  }
  EXPECT_TRUE(saw_pretraining);
}

TEST(LatestModuleTest, PretrainingTrainsModelPerQuery) {
  auto module_result = LatestModule::Create(SmallConfig());
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(3);
  const auto outcomes = Drive(&module, 3000, 40, 4,
                              [&]() { return RandomQuery(&rng); });
  EXPECT_EQ(module.model().num_trained(), outcomes.size());
}

TEST(LatestModuleTest, IncrementalPhaseStartsWithDefault) {
  auto config = SmallConfig();
  config.default_estimator = estimators::EstimatorKind::kRsl;
  auto module_result = LatestModule::Create(config);
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(4);
  int incremental_seen = 0;
  const auto objects = testing_support::MakeClusteredObjects(4000, 5, 4000);
  for (const auto& obj : objects) {
    module.OnObject(obj);
    if (obj.timestamp >= 1000 && obj.oid % 30 == 0) {
      stream::Query q = RandomQuery(&rng);
      q.timestamp = obj.timestamp;
      const auto outcome = module.OnQuery(q);
      if (outcome.phase == Phase::kIncremental &&
          module.switch_log().empty()) {
        EXPECT_EQ(outcome.active, estimators::EstimatorKind::kRsl);
        ++incremental_seen;
        if (incremental_seen > 5) break;
      }
    }
  }
  EXPECT_GT(incremental_seen, 0);
}

TEST(LatestModuleTest, ProductionModeWipesInactiveAfterPretraining) {
  auto config = SmallConfig();
  config.maintain_shadow_estimators = false;
  auto module_result = LatestModule::Create(config);
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(6);
  const auto outcomes = Drive(&module, 4000, 30, 7,
                              [&]() { return RandomQuery(&rng); });
  bool saw_incremental = false;
  for (const auto& outcome : outcomes) {
    if (outcome.phase != Phase::kIncremental) continue;
    saw_incremental = true;
    // Without shadows, per-query measurements cover at most the candidate.
    EXPECT_LE(outcome.measurements.size(), 1u);
  }
  EXPECT_TRUE(saw_incremental);
}

TEST(LatestModuleTest, ShadowModeMeasuresEverythingInIncremental) {
  auto config = SmallConfig();
  config.maintain_shadow_estimators = true;
  auto module_result = LatestModule::Create(config);
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(8);
  const auto outcomes = Drive(&module, 4000, 30, 9,
                              [&]() { return RandomQuery(&rng); });
  bool saw_incremental = false;
  for (const auto& outcome : outcomes) {
    if (outcome.phase != Phase::kIncremental) continue;
    saw_incremental = true;
    EXPECT_EQ(outcome.measurements.size(),
                estimators::kNumPaperEstimatorKinds);
  }
  EXPECT_TRUE(saw_incremental);
}

TEST(LatestModuleTest, AccuracyAgainstGroundTruthIsReasonable) {
  auto module_result = LatestModule::Create(SmallConfig());
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(10);
  const auto outcomes = Drive(&module, 6000, 20, 11,
                              [&]() { return RandomQuery(&rng); });
  double acc = 0.0;
  int n = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.phase == Phase::kIncremental) {
      acc += outcome.accuracy;
      ++n;
    }
  }
  ASSERT_GT(n, 20);
  // Small reservoirs on a noisy mixed workload: well above garbage (0)
  // but below the large-sample accuracy of the full configuration.
  EXPECT_GT(acc / n, 0.33);
}

TEST(LatestModuleTest, SwitchingTriggersOnSustainedBadAccuracy) {
  // Force the default to a histogram and feed keyword-only queries: the
  // histogram cannot answer them, so the module must switch away.
  auto config = SmallConfig();
  config.default_estimator = estimators::EstimatorKind::kH4096;
  config.pretrain_queries = 30;
  auto module_result = LatestModule::Create(config);
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(12);
  Drive(&module, 8000, 10, 13, [&]() {
    return testing_support::MakeKeywordQuery(
        {static_cast<stream::KeywordId>(rng.NextBounded(50))});
  });
  ASSERT_FALSE(module.switch_log().empty());
  EXPECT_EQ(module.switch_log().front().from,
            estimators::EstimatorKind::kH4096);
  EXPECT_NE(module.active_kind(), estimators::EstimatorKind::kH4096);
}

TEST(LatestModuleTest, NoSwitchOnStableGoodAccuracy) {
  // Large reservoir answers everything nearly exactly: no switch needed.
  // Accuracy-only reward: at alpha > 0 wall-clock latency on a loaded
  // host can legitimately fire the regret trigger.
  auto config = SmallConfig();
  config.estimator.reservoir_capacity = 100000;
  config.alpha = 0.0;
  auto module_result = LatestModule::Create(config);
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(14);
  Drive(&module, 6000, 20, 15, [&]() { return RandomQuery(&rng); });
  EXPECT_TRUE(module.switch_log().empty());
  EXPECT_EQ(module.active_kind(), estimators::EstimatorKind::kRsh);
}

TEST(LatestModuleTest, SwitchEventsAreConsistent) {
  auto config = SmallConfig();
  config.default_estimator = estimators::EstimatorKind::kH4096;
  auto module_result = LatestModule::Create(config);
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(16);
  Drive(&module, 8000, 10, 17, [&]() {
    return testing_support::MakeKeywordQuery(
        {static_cast<stream::KeywordId>(rng.NextBounded(50))});
  });
  estimators::EstimatorKind current = estimators::EstimatorKind::kH4096;
  uint64_t last_index = 0;
  for (const auto& sw : module.switch_log()) {
    EXPECT_EQ(sw.from, current);
    EXPECT_NE(sw.from, sw.to);
    EXPECT_GT(sw.query_index, last_index);
    current = sw.to;
    last_index = sw.query_index;
  }
  EXPECT_EQ(current, module.active_kind());
}

TEST(LatestModuleTest, ScaledEstimateForPartiallyFilledEstimator) {
  // After a switch in production mode the new structure only covers data
  // since its pre-fill started; outcomes must stay in a sane range thanks
  // to the population scaling.
  auto config = SmallConfig();
  config.default_estimator = estimators::EstimatorKind::kH4096;
  config.maintain_shadow_estimators = false;
  auto module_result = LatestModule::Create(config);
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(18);
  const auto outcomes = Drive(&module, 8000, 10, 19, [&]() {
    return testing_support::MakeKeywordQuery(
        {static_cast<stream::KeywordId>(rng.NextBounded(10))});
  });
  ASSERT_FALSE(module.switch_log().empty());
  // Find post-switch outcomes and verify they are finite and bounded by
  // a generous multiple of the window population.
  bool post_switch = false;
  for (const auto& outcome : outcomes) {
    if (outcome.switched) post_switch = true;
    if (post_switch) {
      EXPECT_TRUE(std::isfinite(outcome.estimate));
      EXPECT_LE(outcome.estimate,
                4.0 * static_cast<double>(module.window_population()) + 10);
    }
  }
}

TEST(LatestModuleTest, RecommendReturnsValidKind) {
  auto module_result = LatestModule::Create(SmallConfig());
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(20);
  Drive(&module, 4000, 30, 21, [&]() { return RandomQuery(&rng); });
  const auto kind =
      module.Recommend(testing_support::MakeKeywordQuery({0}));
  EXPECT_LT(static_cast<uint32_t>(kind), estimators::kNumEstimatorKinds);
}

TEST(LatestModuleTest, CountersTrackStream) {
  auto module_result = LatestModule::Create(SmallConfig());
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;
  util::Rng rng(22);
  const auto outcomes = Drive(&module, 3000, 50, 23,
                              [&]() { return RandomQuery(&rng); });
  EXPECT_EQ(module.objects_ingested(), 3000u);
  EXPECT_EQ(module.queries_answered(), outcomes.size());
  EXPECT_GT(module.window_population(), 0u);
  EXPECT_LT(module.window_population(), 3000u);
}

// End-to-end with the workload substrate: the full TwQW1 pipeline runs
// and the module reaches the incremental phase with sane output.
TEST(LatestModuleTest, EndToEndWithWorkloadGenerators) {
  auto dataset_spec = workload::TwitterLikeSpec(/*scale=*/0.1);
  workload::DatasetGenerator dataset(dataset_spec);
  const auto workload_spec =
      workload::MakeWorkloadSpec(workload::WorkloadId::kTwQW1, 500);
  workload::QueryGenerator queries(workload_spec, dataset_spec);

  LatestConfig config;
  config.bounds = dataset_spec.bounds;
  config.window.window_length_ms = 60LL * 60 * 1000;
  config.pretrain_queries = 100;
  config.estimator.reservoir_capacity = 1000;
  auto module_result = LatestModule::Create(config);
  ASSERT_TRUE(module_result.ok());
  LatestModule& module = **module_result;

  workload::StreamDriver driver(&dataset, &queries,
                                config.window.window_length_ms,
                                dataset_spec.duration_ms);
  uint64_t queries_run = 0;
  driver.Run(
      [&](const stream::GeoTextObject& obj) { module.OnObject(obj); },
      [&](const stream::Query& q, uint32_t) {
        const auto outcome = module.OnQuery(q);
        EXPECT_TRUE(std::isfinite(outcome.estimate));
        ++queries_run;
      });
  EXPECT_EQ(queries_run, 500u);
  EXPECT_EQ(module.phase(), Phase::kIncremental);
  EXPECT_GT(module.model().num_trained(), 0u);
}

}  // namespace
}  // namespace latest::core
