// The lifecycle must be a pure function of its configuration and input
// stream. With alpha = 0 the learning reward ignores latency — the one
// genuinely nondeterministic measurement — so two runs over the same
// seeded stream must agree on every estimate, selection, label, and model
// statistic, whether they run one after the other or interleaved query
// by query in one process (no hidden shared state between modules).

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "tests/test_stream.h"

namespace latest::core {
namespace {

// Everything order- or selection-relevant about one query.
struct QueryRecord {
  double estimate = 0.0;
  uint64_t actual = 0;
  double accuracy = 0.0;
  double monitor_accuracy = 0.0;
  estimators::EstimatorKind active = estimators::EstimatorKind::kRsh;
  Phase phase = Phase::kWarmup;
  bool switched = false;
  std::vector<double> shadow_estimates;  // Per measured kind, kind order.
};

struct LifecycleResult {
  std::vector<QueryRecord> queries;
  std::vector<SwitchEvent> switches;
  estimators::EstimatorKind final_active = estimators::EstimatorKind::kRsh;
  uint64_t model_trained = 0;
  uint64_t model_leaves = 0;
  uint32_t model_depth = 0;
  std::vector<double> scoreboard_accuracy;  // type-major cell dump.
  std::vector<estimators::EstimatorKind> recommendations;
};

// A keyword-heavy stream against an H4096 default forces the full arc:
// warm-up, pre-training, incremental degradation, pre-fill, switch.
LatestConfig DeterminismConfig() {
  LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 40;
  config.monitor_window = 16;
  config.min_queries_between_switches = 16;
  config.estimator.reservoir_capacity = 500;
  config.default_estimator = estimators::EstimatorKind::kH4096;
  config.maintain_shadow_estimators = true;
  // Accuracy-only reward: latency is wall clock and may not influence
  // any selection for this comparison to be exact.
  config.alpha = 0.0;
  config.seed = 5;
  return config;
}

stream::Query NextQuery(util::Rng* rng) {
  // Mostly keyword queries (to degrade H4096), some spatial/hybrid so
  // every scoreboard row is exercised.
  const double u = rng->NextDouble();
  if (u < 0.70) {
    return testing_support::MakeKeywordQuery(
        {static_cast<stream::KeywordId>(rng->NextBounded(50))});
  }
  const geo::Point c{rng->NextDouble(10, 90), rng->NextDouble(10, 90)};
  const geo::Rect r = geo::Rect::FromCenter(c, rng->NextDouble(5, 30),
                                            rng->NextDouble(5, 30));
  if (u < 0.85) return testing_support::MakeSpatialQuery(r);
  return testing_support::MakeHybridQuery(
      r, {static_cast<stream::KeywordId>(rng->NextBounded(50))});
}

// One module driven over the seeded stream, one query per Step() so two
// runs can be interleaved.
class LifecycleRun {
 public:
  LifecycleRun()
      : module_(std::move(LatestModule::Create(DeterminismConfig())).value()),
        objects_(testing_support::MakeClusteredObjects(
            8000, /*seed=*/13, /*duration=*/4000)),
        query_rng_(99) {}

  // Ingests objects up to and including the next query; false once the
  // stream is exhausted.
  bool Step() {
    while (next_ < objects_.size()) {
      const size_t i = next_++;
      module_->OnObject(objects_[i]);
      if (objects_[i].timestamp < 1000 || i % 10 != 0) continue;
      stream::Query q = NextQuery(&query_rng_);
      q.timestamp = objects_[i].timestamp;
      const QueryOutcome outcome = module_->OnQuery(q);
      QueryRecord record;
      record.estimate = outcome.estimate;
      record.actual = outcome.actual;
      record.accuracy = outcome.accuracy;
      record.monitor_accuracy = outcome.monitor_accuracy;
      record.active = outcome.active;
      record.phase = outcome.phase;
      record.switched = outcome.switched;
      for (const EstimatorMeasurement& m : outcome.measurements) {
        record.shadow_estimates.push_back(m.estimate);
      }
      result_.queries.push_back(std::move(record));
      return true;
    }
    return false;
  }

  // Snapshot of the final learned state; call once Step() returned false.
  LifecycleResult Finish() {
    LifecycleResult result = std::move(result_);
    result.switches = module_->switch_log();
    result.final_active = module_->active_kind();
    result.model_trained = module_->model().num_trained();
    result.model_leaves = module_->model().num_leaves();
    result.model_depth = module_->model().depth();
    for (const auto type :
         {stream::QueryType::kSpatial, stream::QueryType::kKeyword,
          stream::QueryType::kHybrid}) {
      for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
        result.scoreboard_accuracy.push_back(module_->scoreboard().AccuracyOf(
            type, static_cast<estimators::EstimatorKind>(k)));
      }
    }
    util::Rng probe_rng(7);
    for (int i = 0; i < 20; ++i) {
      result.recommendations.push_back(
          module_->Recommend(NextQuery(&probe_rng)));
    }
    return result;
  }

 private:
  std::unique_ptr<LatestModule> module_;
  std::vector<stream::GeoTextObject> objects_;
  util::Rng query_rng_;
  size_t next_ = 0;
  LifecycleResult result_;
};

LifecycleResult RunLifecycle() {
  LifecycleRun run;
  while (run.Step()) {
  }
  return run.Finish();
}

void ExpectIdentical(const LifecycleResult& a, const LifecycleResult& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const QueryRecord& qa = a.queries[i];
    const QueryRecord& qb = b.queries[i];
    // Exact (bitwise) double equality is intentional: a rerun must not
    // even reorder floating-point accumulation.
    EXPECT_EQ(qa.estimate, qb.estimate) << "query " << i;
    EXPECT_EQ(qa.actual, qb.actual) << "query " << i;
    EXPECT_EQ(qa.accuracy, qb.accuracy) << "query " << i;
    EXPECT_EQ(qa.monitor_accuracy, qb.monitor_accuracy) << "query " << i;
    EXPECT_EQ(qa.active, qb.active) << "query " << i;
    EXPECT_EQ(qa.phase, qb.phase) << "query " << i;
    EXPECT_EQ(qa.switched, qb.switched) << "query " << i;
    EXPECT_EQ(qa.shadow_estimates, qb.shadow_estimates) << "query " << i;
  }
  ASSERT_EQ(a.switches.size(), b.switches.size());
  for (size_t i = 0; i < a.switches.size(); ++i) {
    EXPECT_EQ(a.switches[i].query_index, b.switches[i].query_index);
    EXPECT_EQ(a.switches[i].timestamp, b.switches[i].timestamp);
    EXPECT_EQ(a.switches[i].from, b.switches[i].from);
    EXPECT_EQ(a.switches[i].to, b.switches[i].to);
  }
  EXPECT_EQ(a.final_active, b.final_active);
  EXPECT_EQ(a.model_trained, b.model_trained);
  EXPECT_EQ(a.model_leaves, b.model_leaves);
  EXPECT_EQ(a.model_depth, b.model_depth);
  EXPECT_EQ(a.scoreboard_accuracy, b.scoreboard_accuracy);
  EXPECT_EQ(a.recommendations, b.recommendations);
}

TEST(LifecycleDeterminismTest, LifecycleExercisesEveryPhaseAndSwitches) {
  const LifecycleResult run = RunLifecycle();
  bool saw_pretraining = false;
  bool saw_incremental = false;
  for (const QueryRecord& q : run.queries) {
    saw_pretraining |= q.phase == Phase::kPretraining;
    saw_incremental |= q.phase == Phase::kIncremental;
  }
  EXPECT_TRUE(saw_pretraining);
  EXPECT_TRUE(saw_incremental);
  // The scenario must actually reach a switch, or the comparisons below
  // would vacuously pass on a trivial lifecycle.
  EXPECT_FALSE(run.switches.empty());
  EXPECT_NE(run.final_active, estimators::EstimatorKind::kH4096);
  EXPECT_GT(run.model_trained, 0u);
}

TEST(LifecycleDeterminismTest, IndependentRunsAreBitIdentical) {
  const LifecycleResult first = RunLifecycle();
  ExpectIdentical(first, RunLifecycle());
}

TEST(LifecycleDeterminismTest, InterleavedModulesAreBitIdentical) {
  // Two live modules advanced query by query in lockstep, and a third run
  // alone for reference: neither interleaved module may see the other.
  LifecycleRun a;
  LifecycleRun b;
  size_t steps = 0;
  while (a.Step()) {
    ASSERT_TRUE(b.Step()) << "query " << steps;
    ++steps;
  }
  EXPECT_FALSE(b.Step());
  EXPECT_GT(steps, 0u);
  const LifecycleResult ra = a.Finish();
  ExpectIdentical(ra, b.Finish());
  ExpectIdentical(ra, RunLifecycle());
}

}  // namespace
}  // namespace latest::core
