// Snapshot/restore must be invisible to the lifecycle: a run that is
// frozen mid-phase with SaveState, restored into a brand-new process
// image (a fresh LatestModule), and continued must produce bit-identical
// estimates, switch decisions, and model statistics to a run that never
// stopped. A snapshot taken under a different configuration is refused.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "persist/checkpoint_manager.h"
#include "tests/test_stream.h"
#include "util/serialization.h"

namespace latest::persist {
namespace {

using core::LatestConfig;
using core::LatestModule;
using core::Phase;
using core::QueryOutcome;

// Mirrors the lifecycle determinism harness: alpha = 0 keeps wall-clock
// latency out of every decision, so bitwise comparison is legitimate.
LatestConfig RoundtripConfig() {
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
  config.alpha = 0.0;
  config.seed = 5;
  return config;
}

stream::Query NextQuery(util::Rng* rng) {
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

// Everything selection-relevant about one query, compared bitwise.
struct QueryRecord {
  double estimate = 0.0;
  uint64_t actual = 0;
  double accuracy = 0.0;
  double monitor_accuracy = 0.0;
  estimators::EstimatorKind active = estimators::EstimatorKind::kRsh;
  Phase phase = Phase::kWarmup;
  bool switched = false;
  std::vector<double> shadow_estimates;

  bool operator==(const QueryRecord&) const = default;
};

struct RunResult {
  std::vector<QueryRecord> queries;
  std::vector<core::SwitchEvent> switches;
  estimators::EstimatorKind final_active = estimators::EstimatorKind::kRsh;
  uint64_t model_leaves = 0;
  uint32_t model_depth = 0;
  Phase final_phase = Phase::kWarmup;
  // The deterministic state digest (SaveDeterministicState) at the end:
  // everything SaveState persists minus wall-clock latency statistics.
  std::string final_state;
};

QueryRecord RecordOf(const QueryOutcome& outcome) {
  QueryRecord record;
  record.estimate = outcome.estimate;
  record.actual = outcome.actual;
  record.accuracy = outcome.accuracy;
  record.monitor_accuracy = outcome.monitor_accuracy;
  record.active = outcome.active;
  record.phase = outcome.phase;
  record.switched = outcome.switched;
  for (const core::EstimatorMeasurement& m : outcome.measurements) {
    record.shadow_estimates.push_back(m.estimate);
  }
  return record;
}

// Runs the full lifecycle. When snapshot_at_query >= 0, the module is
// serialized right before that query index, discarded, and replaced by a
// fresh module that loads the snapshot; the remainder of the stream runs
// on the restored module.
RunResult RunLifecycle(int snapshot_at_query = -1) {
  auto created = LatestModule::Create(RoundtripConfig());
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<LatestModule> module = std::move(created).value();

  RunResult result;
  const auto objects = testing_support::MakeClusteredObjects(
      8000, /*seed=*/13, /*duration=*/4000);
  util::Rng query_rng(99);
  int queries_seen = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    module->OnObject(objects[i]);
    if (objects[i].timestamp < 1000 || i % 10 != 0) continue;
    if (queries_seen == snapshot_at_query) {
      util::BinaryWriter snapshot;
      module->SaveState(&snapshot);
      auto fresh = LatestModule::Create(RoundtripConfig());
      EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
      util::BinaryReader reader(snapshot.buffer());
      const util::Status loaded = fresh.value()->LoadState(&reader);
      EXPECT_TRUE(loaded.ok()) << loaded.ToString();
      module = std::move(fresh).value();  // The old process image is gone.
    }
    stream::Query q = NextQuery(&query_rng);
    q.timestamp = objects[i].timestamp;
    result.queries.push_back(RecordOf(module->OnQuery(q)));
    ++queries_seen;
  }

  result.switches = module->switch_log();
  result.final_active = module->active_kind();
  result.model_leaves = module->model().num_leaves();
  result.model_depth = module->model().depth();
  result.final_phase = module->phase();
  util::BinaryWriter state;
  module->SaveDeterministicState(&state);
  result.final_state = state.buffer();
  return result;
}

void ExpectIdentical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i], b.queries[i]) << "query " << i;
  }
  ASSERT_EQ(a.switches.size(), b.switches.size());
  for (size_t i = 0; i < a.switches.size(); ++i) {
    EXPECT_EQ(a.switches[i].query_index, b.switches[i].query_index);
    EXPECT_EQ(a.switches[i].timestamp, b.switches[i].timestamp);
    EXPECT_EQ(a.switches[i].from, b.switches[i].from);
    EXPECT_EQ(a.switches[i].to, b.switches[i].to);
  }
  EXPECT_EQ(a.final_active, b.final_active);
  EXPECT_EQ(a.model_leaves, b.model_leaves);
  EXPECT_EQ(a.model_depth, b.model_depth);
  EXPECT_EQ(a.final_phase, b.final_phase);
  // The strongest check: the complete serialized lifecycle — every
  // estimator synopsis, RNG stream, tree node, and counter — is
  // byte-for-byte the same at end of stream.
  ASSERT_EQ(a.final_state.size(), b.final_state.size());
  size_t first_diff = a.final_state.size();
  for (size_t i = 0; i < a.final_state.size(); ++i) {
    if (a.final_state[i] != b.final_state[i]) {
      first_diff = i;
      break;
    }
  }
  EXPECT_EQ(first_diff, a.final_state.size())
      << "serialized lifecycle states first differ at byte " << first_diff;
}

// Query 20 of a 40-query pre-training phase: the tree is mid-label-batch.
constexpr int kMidPretraining = 20;
// Well past the first switch window: the monitor ring, scoreboard, and
// switch log all carry state.
constexpr int kMidIncremental = 200;

TEST(PersistRoundtripTest, ScenarioCoversEveryPhase) {
  const RunResult baseline = RunLifecycle();
  bool saw_pretraining = false;
  bool saw_incremental = false;
  for (const QueryRecord& q : baseline.queries) {
    saw_pretraining |= q.phase == Phase::kPretraining;
    saw_incremental |= q.phase == Phase::kIncremental;
  }
  EXPECT_TRUE(saw_pretraining);
  EXPECT_TRUE(saw_incremental);
  EXPECT_FALSE(baseline.switches.empty());
  EXPECT_GT(static_cast<int>(baseline.queries.size()), kMidIncremental);
}

TEST(PersistRoundtripTest, MidPretrainingRoundtripIsBitIdentical) {
  ExpectIdentical(RunLifecycle(), RunLifecycle(kMidPretraining));
}

TEST(PersistRoundtripTest, MidIncrementalRoundtripIsBitIdentical) {
  ExpectIdentical(RunLifecycle(), RunLifecycle(kMidIncremental));
}

TEST(PersistRoundtripTest, ConfigFingerprintMismatchIsRejected) {
  auto created = LatestModule::Create(RoundtripConfig());
  ASSERT_TRUE(created.ok());
  const auto objects = testing_support::MakeClusteredObjects(500, 13, 1000);
  for (const auto& obj : objects) created.value()->OnObject(obj);
  util::BinaryWriter snapshot;
  created.value()->SaveState(&snapshot);

  const auto load_into = [&](const LatestConfig& config) {
    auto fresh = LatestModule::Create(config);
    EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
    if (!fresh.ok()) return util::Status::Internal("create failed");
    util::BinaryReader reader(snapshot.buffer());
    return fresh.value()->LoadState(&reader);
  };
  // Control: the unperturbed configuration accepts its own snapshot, so
  // every rejection below is down to the one perturbed field.
  const util::Status same = load_into(RoundtripConfig());
  EXPECT_TRUE(same.ok()) << same.ToString();

  using Perturb = std::function<void(LatestConfig*)>;
  const std::vector<std::pair<const char*, Perturb>> perturbations = {
      {"alpha", [](LatestConfig* c) { c->alpha = 0.5; }},
      {"tau", [](LatestConfig* c) { c->tau = c->tau * 0.5 + 0.01; }},
      {"beta", [](LatestConfig* c) { c->beta = 0.75; }},
      {"regret_margin", [](LatestConfig* c) { c->regret_margin = 0.2; }},
      {"pretrain_queries", [](LatestConfig* c) { c->pretrain_queries = 41; }},
      {"monitor_window", [](LatestConfig* c) { c->monitor_window = 17; }},
      {"min_queries_between_switches",
       [](LatestConfig* c) { c->min_queries_between_switches = 17; }},
      {"default_estimator",
       [](LatestConfig* c) {
         c->default_estimator = estimators::EstimatorKind::kRsh;
       }},
      {"enabled_estimators",
       [](LatestConfig* c) {
         c->enabled_estimators[static_cast<uint32_t>(
             estimators::EstimatorKind::kSpn)] = false;
       }},
      {"window_length_ms",
       [](LatestConfig* c) { c->window.window_length_ms = 2000; }},
      {"num_slices", [](LatestConfig* c) { c->window.num_slices = 20; }},
      {"seed", [](LatestConfig* c) { c->seed = 6; }},
      {"maintain_shadow_estimators",
       [](LatestConfig* c) { c->maintain_shadow_estimators = false; }},
      {"auto_retrain_error_threshold",
       [](LatestConfig* c) { c->auto_retrain_error_threshold = 0.5; }},
      {"min_queries_between_retrains",
       [](LatestConfig* c) { c->min_queries_between_retrains = 100; }},
  };
  for (const auto& [field, perturb] : perturbations) {
    SCOPED_TRACE(field);
    LatestConfig other = RoundtripConfig();
    perturb(&other);
    const util::Status loaded = load_into(other);
    EXPECT_EQ(loaded.code(), util::StatusCode::kFailedPrecondition)
        << loaded.ToString();
  }
}

// ---------------------------------------------------------------------
// CheckpointManager: snapshot + WAL replay reconstructs the exact state.

std::string MakeTempDir() {
  std::string tmpl = (std::filesystem::temp_directory_path() /
                      "latest_roundtrip_XXXXXX")
                         .string();
  const char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

TEST(PersistRoundtripTest, ManagerRecoverReplaysWalToExactState) {
  const std::string dir = MakeTempDir();
  ASSERT_FALSE(dir.empty());

  auto created = LatestModule::Create(RoundtripConfig());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<LatestModule> module = std::move(created).value();

  DurabilityConfig durability;
  durability.dir = dir;
  // Coprime with every plausible event total so the stream never ends on a
  // checkpoint boundary and recovery must replay a non-empty WAL tail.
  durability.checkpoint_every = 701;
  auto attached = CheckpointManager::Attach(durability, module.get());
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  std::unique_ptr<CheckpointManager> manager = std::move(attached).value();

  const auto objects = testing_support::MakeClusteredObjects(
      4000, /*seed=*/13, /*duration=*/2000);
  util::Rng query_rng(99);
  for (size_t i = 0; i < objects.size(); ++i) {
    ASSERT_TRUE(manager->OnObject(objects[i]).ok());
    if (objects[i].timestamp < 1000 || i % 10 != 0) continue;
    stream::Query q = NextQuery(&query_rng);
    q.timestamp = objects[i].timestamp;
    ASSERT_TRUE(manager->OnQuery(q).ok());
  }
  ASSERT_TRUE(manager->Sync().ok());
  EXPECT_GE(manager->snapshots_taken(), 2u);

  auto recovered = CheckpointManager::Recover(dir, RoundtripConfig());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered.value().torn_wal_tail);
  EXPECT_EQ(recovered.value().snapshots_skipped, 0u);
  // The stream deliberately does not end on a checkpoint boundary, so
  // recovery must have replayed a non-empty WAL tail.
  EXPECT_GT(recovered.value().replayed_objects +
                recovered.value().replayed_queries,
            0u);
  EXPECT_EQ(recovered.value().module->objects_ingested(),
            module->objects_ingested());
  EXPECT_EQ(recovered.value().module->queries_answered(),
            module->queries_answered());

  // Bitwise-identical lifecycle state (modulo wall-clock latency stats,
  // which replay re-measures).
  util::BinaryWriter original_state;
  module->SaveDeterministicState(&original_state);
  util::BinaryWriter recovered_state;
  recovered.value().module->SaveDeterministicState(&recovered_state);
  EXPECT_EQ(original_state.buffer(), recovered_state.buffer());

  // The recovered module keeps answering identically to the original.
  util::Rng probe_rng(7);
  for (int i = 0; i < 50; ++i) {
    stream::Query q = NextQuery(&probe_rng);
    q.timestamp = 2000;
    const QueryOutcome a = module->OnQuery(q);
    const QueryOutcome b = recovered.value().module->OnQuery(q);
    EXPECT_EQ(a.estimate, b.estimate) << "probe " << i;
    EXPECT_EQ(a.actual, b.actual) << "probe " << i;
    EXPECT_EQ(a.active, b.active) << "probe " << i;
  }

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace latest::persist
