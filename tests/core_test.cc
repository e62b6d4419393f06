// Tests for src/core: metrics, scoreboard, and LatestConfig validation.

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "core/metrics.h"
#include "core/scoreboard.h"

namespace latest::core {
namespace {

// --------------------------------------------------------------------
// Metrics

TEST(MetricsTest, PerfectEstimateScoresOne) {
  EXPECT_DOUBLE_EQ(EstimationAccuracy(100.0, 100), 1.0);
  EXPECT_DOUBLE_EQ(RelativeError(100.0, 100), 0.0);
}

TEST(MetricsTest, RelativeErrorAgainstActual) {
  EXPECT_DOUBLE_EQ(EstimationAccuracy(90.0, 100), 0.9);
  EXPECT_DOUBLE_EQ(EstimationAccuracy(110.0, 100), 0.9);
  EXPECT_DOUBLE_EQ(RelativeError(150.0, 100), 0.5);
}

TEST(MetricsTest, AccuracyFlooredAtZero) {
  EXPECT_DOUBLE_EQ(EstimationAccuracy(300.0, 100), 0.0);
  EXPECT_DOUBLE_EQ(EstimationAccuracy(1e9, 1), 0.0);
}

TEST(MetricsTest, ZeroActualGuard) {
  // Denominator is max(actual, 1): estimating 0 for 0 is perfect.
  EXPECT_DOUBLE_EQ(EstimationAccuracy(0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(EstimationAccuracy(0.5, 0), 0.5);
  EXPECT_DOUBLE_EQ(EstimationAccuracy(2.0, 0), 0.0);
}

TEST(MetricsTest, NegativeEstimateClampsToZero) {
  // A negative count estimate is no worse than estimating zero: it must
  // not be penalized past the all-miss error.
  EXPECT_DOUBLE_EQ(RelativeError(-50.0, 100), 1.0);
  EXPECT_DOUBLE_EQ(RelativeError(-50.0, 100), RelativeError(0.0, 100));
  EXPECT_DOUBLE_EQ(EstimationAccuracy(-50.0, 100), 0.0);
  // A slightly negative estimate of an empty result is perfect, not half
  // wrong.
  EXPECT_DOUBLE_EQ(EstimationAccuracy(-0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(RelativeError(-0.5, 0), 0.0);
  // -0.0 behaves exactly like +0.0.
  EXPECT_DOUBLE_EQ(EstimationAccuracy(-0.0, 0), 1.0);
}

TEST(MetricsTest, BlendedScoreExtremes) {
  // alpha = 0: accuracy only. alpha = 1: latency only.
  EXPECT_DOUBLE_EQ(BlendedScore(0.8, 0.4, 0.0), 0.8);
  EXPECT_DOUBLE_EQ(BlendedScore(0.8, 0.4, 1.0), 0.6);
  EXPECT_DOUBLE_EQ(BlendedScore(0.8, 0.4, 0.5), 0.7);
}

TEST(MetricsTest, BlendedScorePrefersFasterAtAlphaOne) {
  const double slow = BlendedScore(1.0, 0.9, 1.0);
  const double fast = BlendedScore(0.2, 0.1, 1.0);
  EXPECT_GT(fast, slow);
}

// --------------------------------------------------------------------
// Scoreboard

EstimatorMeasurement Meas(estimators::EstimatorKind kind, double accuracy,
                          double latency_ms) {
  EstimatorMeasurement m;
  m.kind = kind;
  m.accuracy = accuracy;
  m.latency_ms = latency_ms;
  return m;
}

TEST(ScoreboardTest, EmptyCellHasNoScore) {
  Scoreboard board;
  EXPECT_FALSE(board
                   .Score(stream::QueryType::kSpatial,
                          estimators::EstimatorKind::kRsl, 0.5)
                   .has_value());
}

TEST(ScoreboardTest, BestForPrefersAccuracyAtAlphaZero) {
  Scoreboard board;
  board.Record(stream::QueryType::kSpatial,
               Meas(estimators::EstimatorKind::kH4096, 0.9, 5.0));
  board.Record(stream::QueryType::kSpatial,
               Meas(estimators::EstimatorKind::kRsl, 0.6, 0.1));
  EXPECT_EQ(board.BestFor(stream::QueryType::kSpatial, 0.0),
            estimators::EstimatorKind::kH4096);
}

TEST(ScoreboardTest, BestForPrefersLatencyAtAlphaOne) {
  Scoreboard board;
  board.Record(stream::QueryType::kSpatial,
               Meas(estimators::EstimatorKind::kH4096, 0.9, 5.0));
  board.Record(stream::QueryType::kSpatial,
               Meas(estimators::EstimatorKind::kRsl, 0.6, 0.1));
  EXPECT_EQ(board.BestFor(stream::QueryType::kSpatial, 1.0),
            estimators::EstimatorKind::kRsl);
}

TEST(ScoreboardTest, ExcludeForcesAlternative) {
  Scoreboard board;
  board.Record(stream::QueryType::kKeyword,
               Meas(estimators::EstimatorKind::kRsh, 0.9, 1.0));
  board.Record(stream::QueryType::kKeyword,
               Meas(estimators::EstimatorKind::kRsl, 0.8, 1.0));
  EXPECT_EQ(board.BestFor(stream::QueryType::kKeyword, 0.0),
            estimators::EstimatorKind::kRsh);
  EXPECT_EQ(board.BestFor(stream::QueryType::kKeyword, 0.0,
                          estimators::EstimatorKind::kRsh),
            estimators::EstimatorKind::kRsl);
}

TEST(ScoreboardTest, TypesAreIndependent) {
  Scoreboard board;
  board.Record(stream::QueryType::kSpatial,
               Meas(estimators::EstimatorKind::kH4096, 0.95, 0.1));
  board.Record(stream::QueryType::kKeyword,
               Meas(estimators::EstimatorKind::kRsh, 0.8, 1.0));
  EXPECT_EQ(board.BestFor(stream::QueryType::kSpatial, 0.0),
            estimators::EstimatorKind::kH4096);
  EXPECT_EQ(board.BestFor(stream::QueryType::kKeyword, 0.0),
            estimators::EstimatorKind::kRsh);
}

TEST(ScoreboardTest, EwmaTracksDrift) {
  Scoreboard board(/*ewma_alpha=*/0.5);
  const auto kind = estimators::EstimatorKind::kRsh;
  board.Record(stream::QueryType::kSpatial, Meas(kind, 1.0, 1.0));
  for (int i = 0; i < 20; ++i) {
    board.Record(stream::QueryType::kSpatial, Meas(kind, 0.2, 1.0));
  }
  EXPECT_NEAR(board.AccuracyOf(stream::QueryType::kSpatial, kind), 0.2,
              0.01);
}

TEST(ScoreboardTest, FallbackWhenEmpty) {
  Scoreboard board;
  EXPECT_EQ(board.BestFor(stream::QueryType::kSpatial, 0.5),
            estimators::EstimatorKind::kRsh);
  // Excluding the fallback returns some other kind.
  EXPECT_NE(board.BestFor(stream::QueryType::kSpatial, 0.5,
                          estimators::EstimatorKind::kRsh),
            estimators::EstimatorKind::kRsh);
}

TEST(ScoreboardTest, NormalizeLatencyUsesObservedRange) {
  Scoreboard board;
  board.Record(stream::QueryType::kSpatial,
               Meas(estimators::EstimatorKind::kH4096, 0.5, 0.0));
  board.Record(stream::QueryType::kSpatial,
               Meas(estimators::EstimatorKind::kAasp, 0.5, 10.0));
  EXPECT_DOUBLE_EQ(board.NormalizeLatency(0.0), 0.0);
  EXPECT_DOUBLE_EQ(board.NormalizeLatency(10.0), 1.0);
  EXPECT_DOUBLE_EQ(board.NormalizeLatency(5.0), 0.5);
}

// --------------------------------------------------------------------
// LatestConfig

LatestConfig BaseConfig() {
  LatestConfig config;
  config.bounds = geo::Rect{0, 0, 100, 100};
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  return config;
}

TEST(LatestConfigTest, DefaultsValidate) {
  EXPECT_TRUE(BaseConfig().Validate().ok());
}

TEST(LatestConfigTest, RejectsBadAlphaTauBeta) {
  auto config = BaseConfig();
  config.alpha = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.tau = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.tau = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.beta = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = BaseConfig();
  config.beta = 0.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(LatestConfigTest, PrefillThresholdAboveTau) {
  const auto config = BaseConfig();
  EXPECT_GT(config.PrefillThreshold(), config.tau);
}

TEST(LatestConfigTest, CreateRejectsInvalid) {
  auto config = BaseConfig();
  config.monitor_window = 0;
  EXPECT_FALSE(LatestModule::Create(config).ok());
}

TEST(LatestConfigTest, PhaseNames) {
  EXPECT_STREQ(PhaseName(Phase::kWarmup), "warmup");
  EXPECT_STREQ(PhaseName(Phase::kPretraining), "pretraining");
  EXPECT_STREQ(PhaseName(Phase::kIncremental), "incremental");
}

}  // namespace
}  // namespace latest::core
