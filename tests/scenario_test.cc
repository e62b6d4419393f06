// Adversarial scenario suite: every catalog scenario must replay
// deterministically, pass its acceptance gate, and — for the drift
// scenarios — be detected within its pinned delay bound and recover
// within its pinned slice bound. The deterministic-replay regression
// pins the bit-identical contract: same scenario + seed produces the
// same SaveDeterministicState digest and the same accuracy-derived
// counters on every run.

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload/scenario.h"
#include "workload/scenario_runner.h"

namespace latest::workload {
namespace {

ScenarioCatalogEntry Catalog(const std::string& name) {
  auto entry = MakeScenario(name);
  EXPECT_TRUE(entry.ok()) << entry.status().ToString();
  return *entry;
}

ScenarioOutcome Replay(const ScenarioCatalogEntry& entry) {
  auto outcome = RunScenario(entry);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return *outcome;
}

// ---------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------

TEST(ScenarioCatalogTest, HasAtLeastSixNamedScenarios) {
  const std::vector<std::string> names = ScenarioNames();
  EXPECT_GE(names.size(), 6u);
  for (const std::string& name : names) {
    const auto entry = MakeScenario(name);
    ASSERT_TRUE(entry.ok()) << name << ": " << entry.status().ToString();
    EXPECT_EQ(entry->spec.name, name);
    EXPECT_FALSE(entry->spec.description.empty()) << name;
    EXPECT_TRUE(entry->spec.Validate().ok()) << name;
  }
}

TEST(ScenarioCatalogTest, UnknownNameFails) {
  const auto entry = MakeScenario("no_such_scenario");
  ASSERT_FALSE(entry.ok());
  EXPECT_EQ(entry.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ScenarioCatalogTest, InjectionMetadataMatchesMutations) {
  // flip = abrupt spatial + vocab at mid-stream (the --flip-workload-at
  // alias shape).
  const ScenarioCatalogEntry flip = Catalog("flip");
  const std::vector<DriftInjection> flip_injections =
      InjectionsOf(flip.spec);
  ASSERT_EQ(flip_injections.size(), 2u);
  for (const DriftInjection& injection : flip_injections) {
    EXPECT_EQ(injection.begin_fraction, 0.5);
    EXPECT_EQ(injection.end_fraction, 0.5);
    EXPECT_EQ(injection.onset_ms, flip.spec.duration_ms / 2);
    EXPECT_EQ(injection.onset_object, flip.spec.objects / 2);
  }
  EXPECT_EQ(flip_injections[0].kind, "spatial");
  EXPECT_EQ(flip_injections[1].kind, "vocab");

  EXPECT_TRUE(InjectionsOf(Catalog("baseline").spec).empty());
  EXPECT_TRUE(InjectionsOf(Catalog("diurnal").spec).empty());
  EXPECT_TRUE(InjectionsOf(Catalog("burst").spec).empty());

  const std::vector<DriftInjection> crowd =
      InjectionsOf(Catalog("flash_crowd").spec);
  ASSERT_EQ(crowd.size(), 1u);
  EXPECT_EQ(crowd[0].kind, "spatial");

  const std::vector<DriftInjection> churn =
      InjectionsOf(Catalog("vocab_churn").spec);
  ASSERT_EQ(churn.size(), 1u);
  EXPECT_EQ(churn[0].kind, "vocab");
  EXPECT_LT(churn[0].onset_ms, churn[0].settled_ms) << "churn is gradual";

  const std::vector<DriftInjection> mix =
      InjectionsOf(Catalog("query_flip").spec);
  ASSERT_EQ(mix.size(), 1u);
  EXPECT_EQ(mix[0].kind, "query_mix");
}

// ---------------------------------------------------------------------
// Stream generation
// ---------------------------------------------------------------------

TEST(ScenarioStreamTest, TimestampsAreMonotoneAndBounded) {
  for (const std::string& name : ScenarioNames()) {
    const ScenarioCatalogEntry entry = Catalog(name);
    ScenarioStream stream(entry.spec);
    int64_t last_ts = 0;
    uint64_t objects = 0;
    uint64_t queries = 0;
    while (stream.HasNext()) {
      const ScenarioEvent event = stream.Next();
      const int64_t ts =
          event.is_query ? event.query.timestamp : event.object.timestamp;
      EXPECT_GE(ts, last_ts) << name << ": time ran backwards";
      EXPECT_GE(ts, 0) << name;
      EXPECT_LT(ts, entry.spec.duration_ms) << name;
      last_ts = ts;
      if (event.is_query) {
        ++queries;
        EXPECT_GE(ts, entry.spec.query_warmup_ms)
            << name << ": query before warm-up";
        EXPECT_TRUE(event.query.HasRange() || event.query.HasKeywords())
            << name;
      } else {
        ++objects;
        EXPECT_TRUE(entry.spec.bounds.Contains(event.object.loc)) << name;
        EXPECT_FALSE(event.object.keywords.empty()) << name;
      }
    }
    EXPECT_EQ(objects, entry.spec.objects) << name;
    EXPECT_GT(queries, 0u) << name;
    EXPECT_EQ(objects, stream.objects_produced()) << name;
  }
}

TEST(ScenarioStreamTest, EqualSpecsProduceEqualStreams) {
  const ScenarioCatalogEntry entry = Catalog("flip");
  ScenarioStream a(entry.spec);
  ScenarioStream b(entry.spec);
  while (a.HasNext()) {
    ASSERT_TRUE(b.HasNext());
    const ScenarioEvent ea = a.Next();
    const ScenarioEvent eb = b.Next();
    ASSERT_EQ(ea.is_query, eb.is_query);
    if (ea.is_query) {
      EXPECT_EQ(ea.query.timestamp, eb.query.timestamp);
      EXPECT_EQ(ea.query.keywords, eb.query.keywords);
      EXPECT_EQ(ea.query.HasRange(), eb.query.HasRange());
    } else {
      EXPECT_EQ(ea.object.loc.x, eb.object.loc.x);
      EXPECT_EQ(ea.object.keywords, eb.object.keywords);
      EXPECT_EQ(ea.object.timestamp, eb.object.timestamp);
    }
  }
  EXPECT_FALSE(b.HasNext());
}

TEST(ScenarioStreamTest, VocabChurnMigratesKeywordBand) {
  const ScenarioCatalogEntry entry = Catalog("vocab_churn");
  const ScenarioSpec& spec = entry.spec;
  ScenarioStream stream(spec);
  uint64_t index = 0;
  uint64_t old_band_before = 0, new_band_before = 0;
  uint64_t old_band_after = 0, new_band_after = 0;
  while (stream.HasNext()) {
    const ScenarioEvent event = stream.Next();
    if (event.is_query) continue;
    const double f = static_cast<double>(index++) /
                     static_cast<double>(spec.objects);
    for (const stream::KeywordId kw : event.object.keywords) {
      const bool new_band = kw >= spec.vocab_base_after;
      if (f < spec.vocab_shift_begin) {
        new_band ? ++new_band_before : ++old_band_before;
      } else if (f >= spec.vocab_shift_end) {
        new_band ? ++new_band_after : ++old_band_after;
      }
    }
  }
  // Strictly disjoint bands outside the churn window: new terms only
  // inject inside the ramp, old terms fully decay by its end.
  EXPECT_GT(old_band_before, 0u);
  EXPECT_EQ(new_band_before, 0u);
  EXPECT_GT(new_band_after, 0u);
  EXPECT_EQ(old_band_after, 0u);
}

TEST(ScenarioStreamTest, FlashCrowdMovesTheHotspot) {
  const ScenarioCatalogEntry entry = Catalog("flash_crowd");
  const ScenarioSpec& spec = entry.spec;
  ScenarioStream stream(spec);
  uint64_t index = 0;
  uint64_t in_home_before = 0, in_away_before = 0, n_before = 0;
  uint64_t in_home_after = 0, in_away_after = 0, n_after = 0;
  while (stream.HasNext()) {
    const ScenarioEvent event = stream.Next();
    if (event.is_query) continue;
    const double f = static_cast<double>(index++) /
                     static_cast<double>(spec.objects);
    const bool home = spec.cluster_before.Contains(event.object.loc);
    const bool away = spec.cluster_after.Contains(event.object.loc);
    if (f < spec.spatial_shift_begin) {
      ++n_before;
      if (home) ++in_home_before;
      if (away) ++in_away_before;
    } else {
      ++n_after;
      if (home) ++in_home_after;
      if (away) ++in_away_after;
    }
  }
  // ~70% cluster fraction plus background leakage (the away corner is
  // 4% of the bounds, so background contributes a few percent).
  EXPECT_GT(static_cast<double>(in_home_before) / n_before, 0.6);
  EXPECT_LT(static_cast<double>(in_away_before) / n_before, 0.1);
  EXPECT_GT(static_cast<double>(in_away_after) / n_after, 0.6);
  EXPECT_LT(static_cast<double>(in_home_after) / n_after, 0.1);
}

TEST(ScenarioStreamTest, BurstCompressesIngestButPacesQueries) {
  const ScenarioCatalogEntry entry = Catalog("burst");
  const ScenarioSpec& spec = entry.spec;
  ASSERT_GT(spec.query_pace_ms, 0);
  ScenarioStream stream(spec);
  // Count objects per fixed event-time span: one inside the burst
  // window, one well before it. The burst compresses its stretch of the
  // stream into 1/factor of its event time, so the in-burst span must
  // see several times the base density. The burst's event-time position
  // comes from the warp itself (the compression shifts it off the naive
  // fraction-of-duration location).
  const uint64_t burst_mid_object = static_cast<uint64_t>(
      static_cast<double>(spec.objects) *
      (spec.burst_begin + spec.burst_length / 2));
  const int64_t burst_center = stream.TimestampOfObject(burst_mid_object);
  const int64_t span = 100;
  uint64_t objects_in_burst = 0, objects_early = 0;
  std::vector<int64_t> query_ts;
  while (stream.HasNext()) {
    const ScenarioEvent event = stream.Next();
    if (event.is_query) {
      query_ts.push_back(event.query.timestamp);
      continue;
    }
    const int64_t ts = event.object.timestamp;
    if (ts >= burst_center - span && ts < burst_center + span) {
      ++objects_in_burst;
    }
    if (ts >= 1500 && ts < 1500 + 2 * span) ++objects_early;
  }
  EXPECT_GT(objects_in_burst, 4 * objects_early);
  // Queries stay paced in event time: one per pace interval, so the
  // count tracks (duration - warmup) / pace instead of spiking with
  // the object rate.
  const double expected = static_cast<double>(spec.duration_ms -
                                              spec.query_warmup_ms) /
                          static_cast<double>(spec.query_pace_ms);
  EXPECT_NEAR(static_cast<double>(query_ts.size()), expected,
              0.1 * expected);
}

TEST(ScenarioStreamTest, DiurnalWarpIsExactAtStreamEnd) {
  const ScenarioCatalogEntry entry = Catalog("diurnal");
  ScenarioStream stream(entry.spec);
  // t(1) = 1 at integer period counts: the warped stream still spans
  // the full duration.
  EXPECT_EQ(stream.TimestampOfObject(entry.spec.objects),
            entry.spec.duration_ms);
  EXPECT_EQ(stream.TimestampOfObject(0), 0);
}

// ---------------------------------------------------------------------
// Acceptance gates: every catalog scenario passes its own gate
// ---------------------------------------------------------------------

class ScenarioGateTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScenarioGateTest, PassesItsAcceptanceGate) {
  const ScenarioCatalogEntry entry = Catalog(GetParam());
  const ScenarioOutcome outcome = Replay(entry);
  for (const std::string& failure : outcome.gate_failures) {
    ADD_FAILURE() << GetParam() << ": " << failure;
  }
  EXPECT_TRUE(outcome.gates_passed);
  EXPECT_EQ(outcome.objects, entry.spec.objects);
  EXPECT_GT(outcome.incremental_queries, 0u);
  EXPECT_GT(outcome.mean_accuracy, 0.0);
  EXPECT_FALSE(outcome.accuracy_trajectory.empty());
}

INSTANTIATE_TEST_SUITE_P(Catalog, ScenarioGateTest,
                         ::testing::ValuesIn(ScenarioNames()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// Drift scenarios: recovery-within-bound and detection-within-bound
// ---------------------------------------------------------------------

class DriftScenarioTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DriftScenarioTest, DetectsAndRecoversWithinBounds) {
  const ScenarioCatalogEntry entry = Catalog(GetParam());
  ASSERT_TRUE(entry.gate.expects_detection);
  ASSERT_GE(entry.gate.max_recover_slices, 0);
  const ScenarioOutcome outcome = Replay(entry);
  ASSERT_FALSE(outcome.injections.empty());
  for (const InjectionOutcome& verdict : outcome.injections) {
    if (verdict.injection.kind != "query_mix") {
      EXPECT_TRUE(verdict.detected)
          << GetParam() << ": " << verdict.injection.kind
          << " injection was never detected";
      EXPECT_LE(verdict.detection_delay_queries,
                entry.gate.max_detection_delay_queries)
          << GetParam() << ": " << verdict.injection.kind;
    }
    EXPECT_TRUE(verdict.recovered)
        << GetParam() << ": accuracy never returned to tau";
    EXPECT_LE(verdict.recover_slices, entry.gate.max_recover_slices)
        << GetParam() << ": " << verdict.injection.kind;
  }
  EXPECT_GT(outcome.drift_detections, 0u);
}

INSTANTIATE_TEST_SUITE_P(Drift, DriftScenarioTest,
                         ::testing::Values("flip", "flash_crowd",
                                           "centroid_drift", "vocab_churn"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------
// DeepSampling-style prediction validation
// ---------------------------------------------------------------------

TEST(ScenarioRunnerTest, DeepSamplingScoresPredictions) {
  const ScenarioOutcome outcome = Replay(Catalog("deep_sampling"));
  EXPECT_GT(outcome.prediction_samples, 1000u);
  EXPECT_GT(outcome.accuracy_prediction_mae, 0.0);
  EXPECT_LE(outcome.accuracy_prediction_mae,
            outcome.gate.max_accuracy_prediction_mae);
  // Latency predictions are scored too (informational: wall clock is
  // not deterministic, so no bound is pinned).
  EXPECT_GE(outcome.latency_prediction_mae_ms, 0.0);
}

TEST(ScenarioRunnerTest, ResultJsonCarriesGateVerdict) {
  const ScenarioOutcome outcome = Replay(Catalog("flip"));
  const std::string json = ToResultJson(outcome);
  EXPECT_NE(json.find("\"experiment\":\"scenario_replay\""),
            std::string::npos);
  EXPECT_NE(json.find("\"point\":\"flip\""), std::string::npos);
  EXPECT_NE(json.find("\"tau_hit_rate\":"), std::string::npos);
  EXPECT_NE(json.find("\"detection_delay_queries_max\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"recover_slices_max\":"), std::string::npos);
  EXPECT_NE(json.find("\"cumulative_regret\":"), std::string::npos);
  EXPECT_NE(json.find("\"accuracy_trajectory\":["), std::string::npos);
  EXPECT_NE(json.find("\"gates_passed\":1"), std::string::npos);
}

// ---------------------------------------------------------------------
// Deterministic replay: same scenario + seed -> bit-identical digest
// and identical accuracy-derived counters across two runs
// ---------------------------------------------------------------------

TEST(ScenarioReplayRegressionTest, BitIdenticalAcrossRuns) {
  const ScenarioCatalogEntry entry = Catalog("flip");
  const ScenarioOutcome first = Replay(entry);
  const ScenarioOutcome again = Replay(entry);

  // The deterministic lifecycle digest is the strongest check: every
  // non-wall-clock bit of module state must match.
  EXPECT_EQ(first.state_crc, again.state_crc);
  // Accuracy-derived counters are exactly reproducible; latency
  // fields (e.g. latency_prediction_mae_ms) are deliberately not
  // compared.
  EXPECT_EQ(first.queries, again.queries);
  EXPECT_EQ(first.incremental_queries, again.incremental_queries);
  EXPECT_EQ(first.switches, again.switches);
  EXPECT_EQ(first.drift_detections, again.drift_detections);
  EXPECT_EQ(first.audit_entries, again.audit_entries);
  EXPECT_EQ(first.mean_accuracy, again.mean_accuracy);
  EXPECT_EQ(first.tau_hit_rate, again.tau_hit_rate);
  EXPECT_EQ(first.cumulative_regret, again.cumulative_regret);
  EXPECT_EQ(first.accuracy_trajectory, again.accuracy_trajectory);
  ASSERT_EQ(first.injections.size(), again.injections.size());
  for (size_t i = 0; i < first.injections.size(); ++i) {
    EXPECT_EQ(first.injections[i].detected, again.injections[i].detected);
    EXPECT_EQ(first.injections[i].detection_delay_queries,
              again.injections[i].detection_delay_queries);
    EXPECT_EQ(first.injections[i].recover_slices,
              again.injections[i].recover_slices);
  }
  // Different seeds must actually change the stream (guards against a
  // seed that is silently ignored).
  auto reseeded = MakeScenario("flip", entry.spec.objects,
                               entry.spec.duration_ms, /*seed=*/77);
  ASSERT_TRUE(reseeded.ok());
  const ScenarioOutcome different = Replay(*reseeded);
  EXPECT_NE(first.state_crc, different.state_crc);
}

}  // namespace
}  // namespace latest::workload
