// Estimation-quality observability: per-estimator error accounting,
// the switch-decision audit trail with post-hoc counterfactuals, the
// /statusz severity filter and /switchz page — and the acceptance
// scenario: an injected mid-stream workload flip must produce
// kDriftDetected events and an audited switch explaining the decision.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "obs/audit_trail.h"
#include "obs/drift_detector.h"
#include "obs/error_accounting.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "obs/slo_monitor.h"
#include "obs/statusz.h"
#include "obs/telemetry.h"
#include "stream/object.h"
#include "stream/query.h"
#include "tests/test_http_client.h"
#include "tests/test_stream.h"
#include "util/rng.h"
#include "util/serialization.h"

namespace latest {
namespace {

using obs::ErrorAccountant;
using obs::EstimatorErrorStats;
using obs::SwitchAuditEntry;
using obs::SwitchAuditTrail;
using estimators::EstimatorKind;

// ---------------------------------------------------------------------
// ErrorAccountant
// ---------------------------------------------------------------------

TEST(ErrorAccountantTest, PerfectEstimatesAreCleanSeries) {
  ErrorAccountant accountant(/*tau=*/0.62);
  for (int i = 0; i < 50; ++i) {
    accountant.Record(EstimatorKind::kRsl, 100.0, 100.0);
  }
  const std::vector<EstimatorErrorStats> all = accountant.AllStats();
  ASSERT_EQ(all.size(), 1u);
  const EstimatorErrorStats& stats = all[0];
  EXPECT_EQ(stats.kind, EstimatorKind::kRsl);
  EXPECT_EQ(stats.samples, 50u);
  EXPECT_DOUBLE_EQ(stats.ewma_relative_error, 0.0);
  EXPECT_DOUBLE_EQ(stats.ewma_accuracy, 1.0);
  EXPECT_EQ(stats.tau_violations, 0u);
  EXPECT_DOUBLE_EQ(stats.qerror_p50, 1.0);
  EXPECT_DOUBLE_EQ(stats.max_qerror, 1.0);
}

TEST(ErrorAccountantTest, ViolationsAndQErrorAccumulate) {
  ErrorAccountant accountant(/*tau=*/0.62);
  // accuracy = 1 - 50/100 = 0.5 < tau: every sample violates.
  for (int i = 0; i < 10; ++i) {
    accountant.Record(EstimatorKind::kAasp, 50.0, 100.0);
  }
  // Only measured kinds appear in AllStats.
  const std::vector<EstimatorErrorStats> all = accountant.AllStats();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].kind, EstimatorKind::kAasp);
  const EstimatorErrorStats& stats = all[0];
  EXPECT_EQ(stats.samples, 10u);
  EXPECT_EQ(stats.tau_violations, 10u);
  EXPECT_DOUBLE_EQ(stats.tau_violation_rate, 1.0);
  EXPECT_NEAR(stats.ewma_relative_error, 0.5, 1e-9);
  EXPECT_GE(stats.qerror_p50, 2.0);  // q-error of 50 vs 100 is 2.
  EXPECT_DOUBLE_EQ(stats.max_qerror, 2.0);
}

TEST(ErrorAccountantTest, MetricsMirrorTheSeries) {
  obs::MetricsRegistry registry;
  ErrorAccountant accountant(/*tau=*/0.62);
  accountant.AttachMetrics(&registry);
  accountant.Record(EstimatorKind::kRsh, 80.0, 100.0);
  accountant.Record(EstimatorKind::kRsh, 90.0, 100.0);

  const obs::Counter* samples = registry.FindCounter(
      "latest_estimator_error_samples_total", {{"estimator", "RSH"}});
  ASSERT_NE(samples, nullptr);
  EXPECT_EQ(samples->value(), 2u);
  const obs::Gauge* ewma = registry.FindGauge(
      "latest_estimator_error_ewma_relative", {{"estimator", "RSH"}});
  ASSERT_NE(ewma, nullptr);
  EXPECT_GT(ewma->value(), 0.0);
  const obs::Histogram* qerror = registry.FindHistogram(
      "latest_estimator_error_qerror", {{"estimator", "RSH"}});
  ASSERT_NE(qerror, nullptr);
  EXPECT_EQ(qerror->count(), 2u);
}

TEST(ErrorAccountantTest, StaticHelpers) {
  EXPECT_DOUBLE_EQ(ErrorAccountant::RelativeError(150.0, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(ErrorAccountant::RelativeError(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ErrorAccountant::QError(200.0, 100.0), 2.0);
  EXPECT_DOUBLE_EQ(ErrorAccountant::QError(50.0, 100.0), 2.0);
  EXPECT_DOUBLE_EQ(ErrorAccountant::QError(0.0, 0.0), 1.0);
}

// ---------------------------------------------------------------------
// SwitchAuditTrail
// ---------------------------------------------------------------------

SwitchAuditEntry MakeEntry(int32_t from, int32_t chosen) {
  SwitchAuditEntry entry;
  entry.timestamp = 1000;
  entry.query_count = 42;
  entry.trigger = "tree_infer";
  entry.features = {1.0, 0.5};
  entry.from_estimator = from;
  entry.chosen_estimator = chosen;
  entry.recommended_estimator = chosen;
  entry.monitor_accuracy = 0.5;
  return entry;
}

TEST(SwitchAuditTrailTest, ResolvesCounterfactualAndRegret) {
  SwitchAuditTrail trail(/*capacity=*/8, /*resolution_window=*/4);
  const uint64_t id = trail.Record(MakeEntry(/*from=*/0, /*chosen=*/1),
                                   /*num_kinds=*/3);
  EXPECT_EQ(id, 1u);

  // Four post-decision queries: the chosen kind (1) averages 0.6, kind 2
  // averages 0.9 — the counterfactual best, with regret 0.3.
  for (int i = 0; i < 4; ++i) {
    trail.ResolveQuery({{1, 0.6}, {2, 0.9}});
  }
  const std::vector<SwitchAuditEntry> entries = trail.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  const SwitchAuditEntry& resolved = entries[0];
  ASSERT_TRUE(resolved.resolved);
  EXPECT_EQ(resolved.resolution_samples, 4u);
  EXPECT_EQ(resolved.counterfactual_best, 2);
  EXPECT_NEAR(resolved.regret, 0.3, 1e-9);
  EXPECT_NEAR(resolved.posthoc_accuracy[1], 0.6, 1e-9);
  EXPECT_NEAR(resolved.posthoc_accuracy[2], 0.9, 1e-9);
  EXPECT_DOUBLE_EQ(resolved.posthoc_accuracy[0], -1.0);  // Unmeasured.

  const SwitchAuditTrail::Summary summary = trail.GetSummary();
  EXPECT_EQ(summary.total_recorded, 1u);
  EXPECT_EQ(summary.total_resolved, 1u);
  EXPECT_EQ(summary.optimal_choices, 0u);
  EXPECT_NEAR(summary.cumulative_regret, 0.3, 1e-9);
}

TEST(SwitchAuditTrailTest, OptimalChoiceHasZeroRegret) {
  SwitchAuditTrail trail(/*capacity=*/8, /*resolution_window=*/2);
  trail.Record(MakeEntry(0, 2), /*num_kinds=*/3);
  trail.ResolveQuery({{1, 0.4}, {2, 0.8}});
  trail.ResolveQuery({{1, 0.5}, {2, 0.9}});
  const std::vector<SwitchAuditEntry> entries = trail.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].resolved);
  EXPECT_EQ(entries[0].counterfactual_best, 2);
  EXPECT_DOUBLE_EQ(entries[0].regret, 0.0);
  EXPECT_EQ(trail.GetSummary().optimal_choices, 1u);
}

TEST(SwitchAuditTrailTest, RingEvictsOldestButSummaryIsLifetime) {
  SwitchAuditTrail trail(/*capacity=*/2, /*resolution_window=*/1);
  for (int i = 0; i < 5; ++i) {
    trail.Record(MakeEntry(0, 1), /*num_kinds=*/2);
    trail.ResolveQuery({{1, 0.5}});
  }
  const std::vector<SwitchAuditEntry> entries = trail.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, 4u);  // Oldest retained.
  EXPECT_EQ(entries[1].id, 5u);
  EXPECT_EQ(trail.GetSummary().total_recorded, 5u);
  EXPECT_EQ(trail.GetSummary().total_resolved, 5u);
}

TEST(SwitchAuditTrailTest, UnmeasuredChosenKindCountsNoRegret) {
  SwitchAuditTrail trail(/*capacity=*/4, /*resolution_window=*/1);
  trail.Record(MakeEntry(0, 1), /*num_kinds=*/3);
  // Only kind 2 was measured after the switch; without the chosen kind's
  // own accuracy the counterfactual is named but regret stays 0 (there
  // is nothing sound to subtract).
  trail.ResolveQuery({{2, 0.9}});
  const std::vector<SwitchAuditEntry> entries = trail.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].resolved);
  EXPECT_EQ(entries[0].counterfactual_best, 2);
  EXPECT_DOUBLE_EQ(entries[0].regret, 0.0);
}

// ---------------------------------------------------------------------
// /statusz severity filter and /switchz
// ---------------------------------------------------------------------

obs::Event EventOfType(obs::EventType type) {
  obs::Event event;
  event.type = type;
  event.timestamp = 1;
  return event;
}

TEST(StatuszSeverityTest, FilterAndDropCounts) {
  obs::MetricsRegistry registry;
  obs::EventLog events(4);
  events.Append(EventOfType(obs::EventType::kPhaseChanged));     // info
  events.Append(EventOfType(obs::EventType::kDriftDetected));    // warning
  events.Append(EventOfType(obs::EventType::kSloBreached));      // error
  // Overflow the 4-slot ring with two more: the two oldest (info,
  // warning) are dropped and accounted per severity.
  events.Append(EventOfType(obs::EventType::kSwitched));          // info
  events.Append(EventOfType(obs::EventType::kSloBreached));       // error
  events.Append(EventOfType(obs::EventType::kPrefillStarted));    // info
  EXPECT_EQ(events.dropped_by_severity(obs::EventSeverity::kInfo), 1u);
  EXPECT_EQ(events.dropped_by_severity(obs::EventSeverity::kWarning), 1u);
  EXPECT_EQ(events.dropped_by_severity(obs::EventSeverity::kError), 0u);

  obs::IntrospectionSources sources;
  sources.registry = &registry;
  sources.events = &events;
  obs::IntrospectionServer server(sources);
  ASSERT_TRUE(server.Start(/*port=*/0, /*slo_tick_ms=*/0).ok());

  const testing_support::HttpGetResult errors = testing_support::HttpGet(
      server.port(), "/statusz?severity=error");
  EXPECT_EQ(errors.status, 200);
  EXPECT_NE(errors.body.find("severity=error"), std::string::npos);
  EXPECT_NE(errors.body.find("[error]"), std::string::npos);
  EXPECT_NE(errors.body.find("slo_breached"), std::string::npos);
  EXPECT_EQ(errors.body.find("[info]"), std::string::npos);
  EXPECT_NE(errors.body.find("dropped: info=1 warning=1 error=0"),
            std::string::npos);

  // An unknown severity degrades to showing everything, with a note.
  const testing_support::HttpGetResult unknown = testing_support::HttpGet(
      server.port(), "/statusz?severity=catastrophic");
  EXPECT_NE(unknown.body.find("unknown severity"), std::string::npos);
  EXPECT_NE(unknown.body.find("[info]"), std::string::npos);
  server.Stop();
}

TEST(SwitchzTest, ServesAuditTrailAndJson) {
  obs::MetricsRegistry registry;
  SwitchAuditTrail trail(/*capacity=*/8, /*resolution_window=*/1);
  SwitchAuditEntry entry = MakeEntry(/*from=*/0, /*chosen=*/1);
  entry.trigger = "prefill";
  trail.Record(std::move(entry), estimators::kNumEstimatorKinds);
  trail.ResolveQuery({{1, 0.4}, {2, 0.9}});

  obs::IntrospectionSources sources;
  sources.registry = &registry;
  sources.audit = &trail;
  obs::IntrospectionServer server(sources);
  ASSERT_TRUE(server.Start(/*port=*/0, /*slo_tick_ms=*/0).ok());

  const testing_support::HttpGetResult html =
      testing_support::HttpGet(server.port(), "/switchz");
  EXPECT_EQ(html.status, 200);
  EXPECT_NE(html.body.find("switch-decision audit trail"), std::string::npos);
  EXPECT_NE(html.body.find("prefill"), std::string::npos);
  EXPECT_NE(html.body.find("H4096 -> RSL"), std::string::npos);

  const testing_support::HttpGetResult json =
      testing_support::HttpGet(server.port(), "/switchz?json");
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("{\"recorded\":1,\"resolved\":1,"),
            std::string::npos)
      << json.body;
  // One entry, whose trigger is "prefill".
  EXPECT_NE(json.body.find(",\"entries\":[{\"id\":"), std::string::npos);
  EXPECT_EQ(json.body.find("},{\"id\":"), std::string::npos);
  EXPECT_NE(json.body.find(",\"trigger\":\"prefill\","), std::string::npos);
  // Measured accuracies were RSL=0.4, RSH=0.9: RSH is the counterfactual
  // best and the chosen RSL carries the regret.
  EXPECT_NE(json.body.find(",\"counterfactual_best\":\"RSH\","),
            std::string::npos);
  server.Stop();
}

// ---------------------------------------------------------------------
// Acceptance: injected drift through the full module
// ---------------------------------------------------------------------

// Mirrors tools/latest_stream_run: clustered objects whose dense corner
// and keyword vocabulary flip abruptly mid-stream.
stream::GeoTextObject FlippableObject(uint64_t i, uint64_t n,
                                      util::Rng* rng, bool flipped) {
  stream::GeoTextObject obj;
  obj.oid = i;
  if (rng->NextBool(0.7)) {
    obj.loc = flipped ? geo::Point{rng->NextDouble(60, 80),
                                   rng->NextDouble(60, 80)}
                      : geo::Point{rng->NextDouble(20, 40),
                                   rng->NextDouble(20, 40)};
  } else {
    obj.loc = {rng->NextDouble(0, 100), rng->NextDouble(0, 100)};
  }
  const stream::KeywordId base = flipped ? 50 : 0;
  const int num_kw = 1 + static_cast<int>(rng->NextBounded(3));
  for (int k = 0; k < num_kw; ++k) {
    const double u = rng->NextDouble();
    obj.keywords.push_back(base +
                           static_cast<stream::KeywordId>(u * u * 50));
  }
  stream::CanonicalizeKeywords(&obj.keywords);
  obj.timestamp = static_cast<stream::Timestamp>(8000 * i / n);
  return obj;
}

stream::Query FlippableQuery(util::Rng* rng, bool flipped) {
  stream::Query q;
  const stream::KeywordId base = flipped ? 50 : 0;
  const double u = rng->NextDouble();
  if (u < 0.70) {
    q.keywords = {base + static_cast<stream::KeywordId>(rng->NextBounded(50))};
    return q;
  }
  const geo::Point c{rng->NextDouble(10, 90), rng->NextDouble(10, 90)};
  q.range = geo::Rect::FromCenter(c, rng->NextDouble(5, 30),
                                  rng->NextDouble(5, 30));
  if (u >= 0.85) {
    q.keywords = {base + static_cast<stream::KeywordId>(rng->NextBounded(50))};
  }
  return q;
}

TEST(QualityObsAcceptanceTest, WorkloadFlipIsDetectedAndExplained) {
  core::LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 40;
  config.monitor_window = 16;
  config.min_queries_between_switches = 16;
  config.estimator.reservoir_capacity = 500;
  config.maintain_shadow_estimators = true;
  config.alpha = 0.0;
  config.seed = 5;
  ASSERT_TRUE(config.quality.enabled);  // Default-on.
  auto created = core::LatestModule::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  core::LatestModule* module = created.value().get();

  constexpr uint64_t kObjects = 16000;
  constexpr uint64_t kFlipAt = kObjects / 2;
  util::Rng object_rng(13);
  util::Rng query_rng(99);
  for (uint64_t i = 0; i < kObjects; ++i) {
    const bool flipped = i >= kFlipAt;
    const stream::GeoTextObject obj =
        FlippableObject(i, kObjects, &object_rng, flipped);
    module->OnObject(obj);
    if (obj.timestamp < 1000 || i % 10 != 0) continue;
    stream::Query q = FlippableQuery(&query_rng, flipped);
    q.timestamp = obj.timestamp;
    module->OnQuery(q);
  }

  // (1) The injected drift was detected within the run: at least one
  // kDriftDetected event, with detections on the ingest feature series
  // or a per-estimator error series.
  const std::vector<obs::Event> drift_events =
      module->telemetry().events().SnapshotOfType(
          obs::EventType::kDriftDetected);
  ASSERT_FALSE(drift_events.empty());

  // (2) The switch audit explains at least one switch with a full
  // decision record: features, scores, and (once resolved) the
  // counterfactual best.
  ASSERT_NE(module->observer().audit_trail(), nullptr);
  const std::vector<SwitchAuditEntry> entries =
      module->observer().audit_trail()->Snapshot();
  ASSERT_FALSE(entries.empty());
  const SwitchAuditEntry& audited = entries.front();
  EXPECT_FALSE(audited.trigger.empty());
  EXPECT_EQ(audited.features.size(), 6u);  // 1 categorical + 5 numeric.
  EXPECT_EQ(audited.scores.size(), estimators::kNumEstimatorKinds);
  EXPECT_GE(audited.chosen_estimator, 0);
  bool any_resolved = false;
  for (const SwitchAuditEntry& entry : entries) {
    any_resolved = any_resolved || entry.resolved;
  }
  EXPECT_TRUE(any_resolved);

  // (3) Error accounting saw every shadow-measured kind.
  ASSERT_NE(module->observer().error_accountant(), nullptr);
  EXPECT_GE(module->observer().error_accountant()->AllStats().size(), 2u);
}

TEST(QualityObsConfigTest, DisabledQualityObsMeansNullComponents) {
  core::LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.quality.enabled = false;
  auto created = core::LatestModule::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  core::LatestModule* module = created.value().get();
  EXPECT_EQ(module->observer().error_accountant(), nullptr);
  EXPECT_EQ(module->observer().drift_monitor(), nullptr);
  EXPECT_EQ(module->observer().audit_trail(), nullptr);
  EXPECT_EQ(module->observer().introspection(), nullptr);
}

TEST(QualityObsConfigTest, DriftDetectionsCountPastTheEventRing) {
  // The event ring, shared by every event type, keeps only its newest
  // entries; the observer's lifetime drift count must keep counting
  // after the ring has dropped the oldest detections.
  core::LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  auto created = core::LatestModule::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  core::LatestModule* module = created.value().get();
  obs::DriftMonitor* monitor = module->observer().drift_monitor();
  ASSERT_NE(monitor, nullptr);
  // AddSeries is idempotent, so this is the observer's own series.
  const obs::DriftMonitor::SeriesId centroid =
      monitor->AddSeries("ingest_centroid");

  // A staircase: every unit step fires once, and the 100 samples spent
  // on each step outlast the cooldown, so no detection is coalesced.
  const uint64_t episodes = obs::Telemetry::kEventLogCapacity + 100;
  for (uint64_t step = 0; step <= episodes; ++step) {
    for (int i = 0; i < 100; ++i) {
      monitor->Observe(centroid, static_cast<double>(step));
    }
  }
  EXPECT_EQ(module->observer().drift_detections(), episodes);
  EXPECT_LT(module->telemetry()
                .events()
                .SnapshotOfType(obs::EventType::kDriftDetected)
                .size(),
            episodes);
}

TEST(QualityObsConfigTest, ObservabilityNeverChangesTheLifecycle) {
  // One event stream — a mid-stream workload flip, queries answered both
  // singly and in batches — through three modules that differ only in
  // what observes them. Outcomes and the deterministic snapshot must be
  // identical: the observer reads module state and never writes it.
  core::LatestConfig base;
  base.bounds = testing_support::kTestBounds;
  base.window.window_length_ms = 1000;
  base.window.num_slices = 10;
  base.pretrain_queries = 40;
  base.monitor_window = 16;
  base.min_queries_between_switches = 16;
  base.estimator.reservoir_capacity = 500;
  base.alpha = 0.0;
  base.seed = 5;
  core::LatestConfig quiet = base;
  quiet.quality.enabled = false;
  core::LatestConfig served = base;
  served.enable_introspection = true;
  served.introspection_port = 0;
  served.slo_tick_ms = 5;
  std::vector<std::unique_ptr<core::LatestModule>> modules;
  for (const core::LatestConfig& config : {base, quiet, served}) {
    auto created = core::LatestModule::Create(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    modules.push_back(std::move(created).value());
  }
  ASSERT_NE(modules[2]->observer().introspection(), nullptr);
  const uint16_t port = modules[2]->observer().introspection()->port();

  constexpr uint64_t kObjects = 12000;
  util::Rng object_rng(13);
  util::Rng query_rng(99);
  uint64_t switches = 0;
  for (uint64_t i = 0; i < kObjects; ++i) {
    const bool flipped = i >= kObjects / 2;
    const stream::GeoTextObject obj =
        FlippableObject(i, kObjects, &object_rng, flipped);
    for (auto& module : modules) module->OnObject(obj);
    if (i % 10 != 0) continue;
    // Every fourth query tick is a batch of 4; the rest go through OnQuery.
    std::vector<stream::Query> batch(i % 40 == 0 ? 4 : 1);
    for (stream::Query& q : batch) {
      q = FlippableQuery(&query_rng, flipped);
      q.timestamp = obj.timestamp;
    }
    std::vector<std::vector<core::QueryOutcome>> outcomes(
        modules.size(), std::vector<core::QueryOutcome>(batch.size()));
    for (size_t m = 0; m < modules.size(); ++m) {
      if (batch.size() == 1) {
        outcomes[m][0] = modules[m]->OnQuery(batch[0]);
      } else {
        modules[m]->OnQueryBatch(batch.data(), batch.size(),
                                 outcomes[m].data());
      }
    }
    for (size_t b = 0; b < batch.size(); ++b) {
      const core::QueryOutcome& want = outcomes[0][b];
      switches += want.switched;
      for (size_t m = 1; m < modules.size(); ++m) {
        const core::QueryOutcome& got = outcomes[m][b];
        EXPECT_EQ(got.estimate, want.estimate) << "module " << m;
        EXPECT_EQ(got.actual, want.actual) << "module " << m;
        EXPECT_EQ(got.phase, want.phase) << "module " << m;
        EXPECT_EQ(got.active, want.active) << "module " << m;
        EXPECT_EQ(got.switched, want.switched) << "module " << m;
      }
    }
    // Scrape the observer-owned pages while the stream runs.
    if (i % 3000 == 0) {
      EXPECT_EQ(testing_support::HttpGet(port, "/switchz").status, 200);
      EXPECT_EQ(testing_support::HttpGet(port, "/statusz").status, 200);
    }
  }
  EXPECT_GT(switches, 0u);
  EXPECT_EQ(modules[0]->phase(), core::Phase::kIncremental);

  util::BinaryWriter want;
  modules[0]->SaveDeterministicState(&want);
  for (size_t m = 1; m < modules.size(); ++m) {
    util::BinaryWriter got;
    modules[m]->SaveDeterministicState(&got);
    EXPECT_EQ(got.buffer(), want.buffer()) << "module " << m;
  }
}

}  // namespace
}  // namespace latest
