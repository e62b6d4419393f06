// Tests for the string-keyword EstimationService facade, plus the
// estimator-subset and automatic-retraining module extensions.

#include <gtest/gtest.h>

#include "core/estimation_service.h"
#include "tests/test_stream.h"

namespace latest::core {
namespace {

LatestConfig ServiceConfig() {
  LatestConfig config;
  config.bounds = geo::Rect{0, 0, 100, 100};
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 20;
  config.monitor_window = 8;
  return config;
}

uint64_t Retrains(LatestModule& module) {
  return module.telemetry()
      .registry()
      .FindCounter("latest_model_retrains_total")
      ->value();
}

TEST(EstimationServiceTest, CreateValidatesConfig) {
  auto config = ServiceConfig();
  config.alpha = 2.0;
  EXPECT_FALSE(EstimationService::Create(config).ok());
  EXPECT_TRUE(EstimationService::Create(ServiceConfig()).ok());
}

TEST(EstimationServiceTest, EstimateByStringKeywords) {
  auto service = std::move(EstimationService::Create(ServiceConfig())).value();
  // Stream: 500 "fire" posts in a corner, 500 "coffee" posts elsewhere,
  // spread across 2 windows so the module leaves warm-up.
  for (int i = 0; i < 1000; ++i) {
    const stream::Timestamp t = 2 * i;
    if (i % 2 == 0) {
      service->IngestKeywords(i, {10.0 + (i % 10), 10.0}, {"fire"}, t);
    } else {
      service->IngestKeywords(i, {80, 80}, {"coffee"}, t);
    }
  }
  auto outcome = service->EstimateCount(std::nullopt, {"fire"}, 2000);
  ASSERT_TRUE(outcome.ok());
  // The window holds the most recent slices; the estimate must be in the
  // right ballpark of the true windowed count.
  EXPECT_GT(outcome->estimate, 0.0);
  EXPECT_GT(outcome->accuracy, 0.5);
}

TEST(EstimationServiceTest, UnknownKeywordsAreDropped) {
  auto service = std::move(EstimationService::Create(ServiceConfig())).value();
  for (int i = 0; i < 100; ++i) {
    service->IngestKeywords(i, {50, 50}, {"fire"}, i * 10);
  }
  // "dragon" never appeared: with a range present the query still runs.
  auto outcome = service->EstimateCount(geo::Rect{0, 0, 100, 100},
                                        {"fire", "dragon"}, 1000);
  ASSERT_TRUE(outcome.ok());
}

TEST(EstimationServiceTest, AllUnknownKeywordsWithoutRangeIsZero) {
  auto service = std::move(EstimationService::Create(ServiceConfig())).value();
  service->IngestKeywords(1, {50, 50}, {"fire"}, 0);
  auto outcome = service->EstimateCount(std::nullopt, {"dragon"}, 100);
  ASSERT_TRUE(outcome.ok());
  EXPECT_DOUBLE_EQ(outcome->estimate, 0.0);
  EXPECT_DOUBLE_EQ(outcome->accuracy, 1.0);
}

TEST(EstimationServiceTest, EmptyQueryRejected) {
  auto service = std::move(EstimationService::Create(ServiceConfig())).value();
  auto outcome = service->EstimateCount(std::nullopt, {}, 100);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(EstimationServiceTest, DegenerateRangeRejected) {
  auto service = std::move(EstimationService::Create(ServiceConfig())).value();
  auto outcome = service->EstimateCount(geo::Rect{5, 5, 5, 9}, {}, 100);
  EXPECT_FALSE(outcome.ok());
}

// --------------------------------------------------------------------
// Estimator-subset configuration

TEST(EstimatorSubsetTest, ValidationRules) {
  auto config = ServiceConfig();
  config.enabled_estimators = {false, false, false, false, false, false};
  EXPECT_FALSE(config.Validate().ok());

  config.enabled_estimators = {true, false, false, false, false, false};
  EXPECT_FALSE(config.Validate().ok());  // Needs >= 2.

  // Default estimator (RSH = index 2) must be enabled.
  config.enabled_estimators = {true, true, false, false, false, false};
  EXPECT_FALSE(config.Validate().ok());

  config.enabled_estimators = {true, false, true, false, false, false};
  EXPECT_TRUE(config.Validate().ok());
}

TEST(EstimatorSubsetTest, OnlyEnabledKindsAreMeasured) {
  auto config = ServiceConfig();
  config.maintain_shadow_estimators = true;
  // Histogram + both samplers only.
  config.enabled_estimators = {true, true, true, false, false, false};
  auto module = std::move(LatestModule::Create(config)).value();

  const auto objects = testing_support::MakeClusteredObjects(3000, 1, 3000);
  bool checked = false;
  for (const auto& obj : objects) {
    module->OnObject(obj);
    if (obj.timestamp >= 1000 && obj.oid % 20 == 0) {
      stream::Query q =
          testing_support::MakeSpatialQuery({20, 20, 40, 40});
      q.timestamp = obj.timestamp;
      const auto outcome = module->OnQuery(q);
      EXPECT_LE(outcome.measurements.size(), 3u);
      for (const auto& m : outcome.measurements) {
        EXPECT_TRUE(module->IsEnabled(m.kind));
      }
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(EstimatorSubsetTest, SwitchesStayWithinTheSubset) {
  auto config = ServiceConfig();
  config.min_queries_between_switches = 8;
  config.default_estimator = estimators::EstimatorKind::kH4096;
  // Histogram + RSL only: keyword queries must force a switch to RSL.
  config.enabled_estimators = {true, true, false, false, false, false};
  auto module = std::move(LatestModule::Create(config)).value();

  const auto objects = testing_support::MakeClusteredObjects(6000, 2, 4000);
  util::Rng rng(3);
  for (const auto& obj : objects) {
    module->OnObject(obj);
    if (obj.timestamp >= 1000 && obj.oid % 8 == 0) {
      stream::Query q = testing_support::MakeKeywordQuery(
          {static_cast<stream::KeywordId>(rng.NextBounded(50))});
      q.timestamp = obj.timestamp;
      module->OnQuery(q);
    }
  }
  ASSERT_FALSE(module->switch_log().empty());
  for (const auto& sw : module->switch_log()) {
    EXPECT_TRUE(module->IsEnabled(sw.to));
  }
  EXPECT_EQ(module->active_kind(), estimators::EstimatorKind::kRsl);
}

// --------------------------------------------------------------------
// Automatic model retraining

TEST(AutoRetrainTest, DisabledByDefault) {
  auto module = std::move(LatestModule::Create(ServiceConfig())).value();
  EXPECT_EQ(Retrains(*module), 0u);
}

TEST(AutoRetrainTest, FiresOnSustainedHighError) {
  auto config = ServiceConfig();
  config.default_estimator = estimators::EstimatorKind::kH4096;
  config.enabled_estimators = {true, true, false, false, false, false};
  config.auto_retrain_error_threshold = 0.5;
  config.min_queries_between_retrains = 32;
  // Keep the module glued to the histogram so keyword queries produce a
  // persistently high relative error.
  config.min_queries_between_switches = 1000000;
  config.regret_margin = 0.0;
  config.tau = 0.01;
  auto module = std::move(LatestModule::Create(config)).value();

  const auto objects = testing_support::MakeClusteredObjects(6000, 4, 4000);
  util::Rng rng(5);
  for (const auto& obj : objects) {
    module->OnObject(obj);
    if (obj.timestamp >= 1000 && obj.oid % 8 == 0) {
      stream::Query q = testing_support::MakeKeywordQuery(
          {static_cast<stream::KeywordId>(rng.NextBounded(50))});
      q.timestamp = obj.timestamp;
      module->OnQuery(q);
    }
  }
  EXPECT_GT(Retrains(*module), 0u);
}

TEST(AutoRetrainTest, QuietWhenAccurate) {
  auto config = ServiceConfig();
  config.auto_retrain_error_threshold = 0.9;
  config.min_queries_between_retrains = 32;
  config.estimator.reservoir_capacity = 100000;  // Near-exact answers.
  auto module = std::move(LatestModule::Create(config)).value();

  const auto objects = testing_support::MakeClusteredObjects(4000, 6, 3000);
  for (const auto& obj : objects) {
    module->OnObject(obj);
    if (obj.timestamp >= 1000 && obj.oid % 10 == 0) {
      stream::Query q =
          testing_support::MakeSpatialQuery({20, 20, 40, 40});
      q.timestamp = obj.timestamp;
      module->OnQuery(q);
    }
  }
  EXPECT_EQ(Retrains(*module), 0u);
}

}  // namespace
}  // namespace latest::core
