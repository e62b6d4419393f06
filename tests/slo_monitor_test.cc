// SLO drift monitors: threshold rules over registry series, debounce,
// breach/recovery events, the exported gauges, and the /healthz flip on
// the introspection server.

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "obs/slo_monitor.h"
#include "obs/statusz.h"
#include "tests/test_http_client.h"
#include "tests/test_stream.h"

namespace latest::obs {
namespace {

SloRule GaugeBelowRule(const std::string& metric, double threshold,
                       uint32_t for_ticks = 1) {
  SloRule rule;
  rule.name = metric + "_rule";
  rule.metric = metric;
  rule.source = SloRule::Source::kGauge;
  rule.op = SloRule::Op::kBelow;
  rule.threshold = threshold;
  rule.for_ticks = for_ticks;
  return rule;
}

TEST(SloMonitorTest, GaugeBreachAndRecoveryWithDebounce) {
  MetricsRegistry registry;
  EventLog events(32);
  Gauge* accuracy = registry.GetGauge("test_accuracy", "test");
  SloMonitor monitor(&registry, &events);
  monitor.AddRule(GaugeBelowRule("test_accuracy", 0.6, /*for_ticks=*/3));

  accuracy->Set(0.9);
  EXPECT_EQ(monitor.EvaluateAll(), 0u);
  EXPECT_FALSE(monitor.degraded());

  // Two bad ticks are inside the debounce window.
  accuracy->Set(0.4);
  EXPECT_EQ(monitor.EvaluateAll(), 0u);
  EXPECT_EQ(monitor.EvaluateAll(), 0u);
  EXPECT_FALSE(monitor.degraded());
  // The third consecutive bad tick fires the rule.
  EXPECT_EQ(monitor.EvaluateAll(/*timestamp=*/1234), 1u);
  EXPECT_TRUE(monitor.degraded());
  ASSERT_EQ(monitor.BreachedRules().size(), 1u);
  EXPECT_EQ(monitor.BreachedRules()[0], "test_accuracy_rule");

  // One good tick clears the run and recovers.
  accuracy->Set(0.8);
  EXPECT_EQ(monitor.EvaluateAll(/*timestamp=*/2345), 0u);
  EXPECT_FALSE(monitor.degraded());

  // Exactly one breached and one recovered event, carrying the rule name
  // and the observed value.
  const std::vector<Event> breached =
      events.SnapshotOfType(EventType::kSloBreached);
  const std::vector<Event> recovered =
      events.SnapshotOfType(EventType::kSloRecovered);
  ASSERT_EQ(breached.size(), 1u);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(breached[0].note, "test_accuracy_rule");
  EXPECT_EQ(breached[0].timestamp, 1234);
  EXPECT_DOUBLE_EQ(breached[0].detail, 0.4);
  EXPECT_EQ(recovered[0].note, "test_accuracy_rule");
  EXPECT_DOUBLE_EQ(recovered[0].detail, 0.8);

  // An intermittent breach does not re-fire until debounce re-fills.
  accuracy->Set(0.4);
  EXPECT_EQ(monitor.EvaluateAll(), 0u);
  accuracy->Set(0.8);
  EXPECT_EQ(monitor.EvaluateAll(), 0u);
  EXPECT_EQ(events.SnapshotOfType(EventType::kSloBreached).size(), 1u);
}

TEST(SloMonitorTest, MissingSeriesDoesNotBreach) {
  MetricsRegistry registry;
  EventLog events(8);
  SloMonitor monitor(&registry, &events);
  monitor.AddRule(GaugeBelowRule("never_registered", 0.5));
  EXPECT_EQ(monitor.EvaluateAll(), 0u);
  const std::vector<SloRuleState> states = monitor.States();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_FALSE(states[0].has_value);
  EXPECT_FALSE(states[0].breached);
}

TEST(SloMonitorTest, CounterAboveRule) {
  MetricsRegistry registry;
  SloMonitor monitor(&registry, /*events=*/nullptr);
  SloRule rule;
  rule.name = "drops";
  rule.metric = "test_drops_total";
  rule.source = SloRule::Source::kCounter;
  rule.op = SloRule::Op::kAbove;
  rule.threshold = 10.0;
  monitor.AddRule(rule);

  Counter* drops = registry.GetCounter("test_drops_total", "test");
  drops->Increment(10);
  EXPECT_EQ(monitor.EvaluateAll(), 0u);  // Equal is not above.
  drops->Increment(1);
  EXPECT_EQ(monitor.EvaluateAll(), 1u);
}

TEST(SloMonitorTest, HistogramQuantileRule) {
  MetricsRegistry registry;
  SloMonitor monitor(&registry, nullptr);
  SloRule rule;
  rule.name = "p99_latency";
  rule.metric = "test_latency_ms";
  rule.source = SloRule::Source::kHistogramQuantile;
  rule.quantile = 0.99;
  rule.op = SloRule::Op::kAbove;
  rule.threshold = 50.0;
  monitor.AddRule(rule);

  // Empty histogram family: no data, no breach.
  Histogram* latency = registry.GetHistogram(
      "test_latency_ms", "test", Histogram::LatencyBucketsMs());
  EXPECT_EQ(monitor.EvaluateAll(), 0u);

  for (int i = 0; i < 100; ++i) latency->Observe(1.0);
  EXPECT_EQ(monitor.EvaluateAll(), 0u);
  for (int i = 0; i < 100; ++i) latency->Observe(900.0);
  EXPECT_EQ(monitor.EvaluateAll(), 1u);
  const std::vector<SloRuleState> states = monitor.States();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_GT(states[0].last_value, 50.0);
}

TEST(SloMonitorTest, GaugesMirrorRuleState) {
  MetricsRegistry registry;
  SloMonitor monitor(&registry, nullptr);
  monitor.AddRule(GaugeBelowRule("mirrored", 0.5));
  Gauge* value = registry.GetGauge("mirrored", "test");

  const Gauge* degraded = registry.FindGauge("latest_slo_degraded");
  const Gauge* breached = registry.FindGauge(
      "latest_slo_breached", {{"rule", "mirrored_rule"}});
  const Counter* breaches = registry.FindCounter(
      "latest_slo_breaches_total", {{"rule", "mirrored_rule"}});
  ASSERT_NE(degraded, nullptr);
  ASSERT_NE(breached, nullptr);
  ASSERT_NE(breaches, nullptr);

  value->Set(0.1);
  monitor.EvaluateAll();
  EXPECT_DOUBLE_EQ(degraded->value(), 1.0);
  EXPECT_DOUBLE_EQ(breached->value(), 1.0);
  EXPECT_EQ(breaches->value(), 1u);

  value->Set(0.9);
  monitor.EvaluateAll();
  EXPECT_DOUBLE_EQ(degraded->value(), 0.0);
  EXPECT_DOUBLE_EQ(breached->value(), 0.0);
  EXPECT_EQ(breaches->value(), 1u);  // Transitions, not ticks.
}

TEST(SloMonitorTest, DefaultRulesSkipNonPositiveThresholds) {
  const std::vector<SloRule> all = DefaultLatestSloRules(
      /*tau=*/0.62, /*p99_latency_ms=*/50.0, /*max_wal_lag_records=*/1e6,
      /*max_resident_slices=*/32.0, /*max_active_drift=*/0.0);
  EXPECT_EQ(all.size(), 5u);
  EXPECT_EQ(all.back().metric, "latest_drift_active_series");
  const std::vector<SloRule> no_latency = DefaultLatestSloRules(
      0.62, /*p99_latency_ms=*/0.0, 1e6, /*max_resident_slices=*/0.0,
      /*max_active_drift=*/-1.0);
  EXPECT_EQ(no_latency.size(), 2u);
  // The accuracy rule watches the module's monitor gauge below tau.
  EXPECT_EQ(no_latency[0].metric, "latest_monitor_accuracy");
  EXPECT_EQ(no_latency[0].op, SloRule::Op::kBelow);
  EXPECT_DOUBLE_EQ(no_latency[0].threshold, 0.62);
}

// The acceptance path: a breached rule flips /healthz to 503 degraded
// with the rule listed; recovery restores 200 ok.
TEST(SloMonitorTest, HealthzDegradesAndRecovers) {
  MetricsRegistry registry;
  EventLog events(16);
  Gauge* accuracy = registry.GetGauge("latest_monitor_accuracy", "test");
  SloMonitor monitor(&registry, &events);
  monitor.AddRule(GaugeBelowRule("latest_monitor_accuracy", 0.6));

  IntrospectionSources sources;
  sources.registry = &registry;
  sources.events = &events;
  sources.slo = &monitor;
  IntrospectionServer server(sources);
  // No ticker: the test drives evaluation explicitly for determinism.
  ASSERT_TRUE(server.Start(/*port=*/0, /*slo_tick_ms=*/0).ok());

  accuracy->Set(0.9);
  monitor.EvaluateAll();
  testing_support::HttpGetResult healthy =
      testing_support::HttpGet(server.port(), "/healthz");
  EXPECT_EQ(healthy.status, 200);
  EXPECT_NE(healthy.body.find("\"status\":\"ok\""), std::string::npos);

  accuracy->Set(0.2);
  monitor.EvaluateAll();
  testing_support::HttpGetResult degraded =
      testing_support::HttpGet(server.port(), "/healthz");
  EXPECT_EQ(degraded.status, 503);
  EXPECT_NE(degraded.body.find("\"status\":\"degraded\""),
            std::string::npos);
  EXPECT_NE(degraded.body.find("latest_monitor_accuracy_rule"),
            std::string::npos);

  accuracy->Set(0.9);
  monitor.EvaluateAll();
  testing_support::HttpGetResult recovered =
      testing_support::HttpGet(server.port(), "/healthz");
  EXPECT_EQ(recovered.status, 200);
  EXPECT_NE(recovered.body.find("\"status\":\"ok\""), std::string::npos);
  server.Stop();
}

// The server's own ticker thread evaluates rules without any caller
// involvement — /healthz degrades on a breach the stream never reports.
TEST(SloMonitorTest, TickerThreadEvaluatesRules) {
  MetricsRegistry registry;
  EventLog events(16);
  Gauge* lag = registry.GetGauge("persist_wal_lag_records", "test");
  lag->Set(5e6);
  SloMonitor monitor(&registry, &events);
  SloRule rule;
  rule.name = "wal_lag";
  rule.metric = "persist_wal_lag_records";
  rule.op = SloRule::Op::kAbove;
  rule.threshold = 1e6;
  monitor.AddRule(rule);

  IntrospectionSources sources;
  sources.registry = &registry;
  sources.slo = &monitor;
  IntrospectionServer server(sources);
  ASSERT_TRUE(server.Start(/*port=*/0, /*slo_tick_ms=*/10).ok());
  // The ticker evaluates immediately on startup and then every 10ms;
  // poll briefly instead of assuming scheduling.
  bool saw_degraded = false;
  for (int i = 0; i < 100 && !saw_degraded; ++i) {
    saw_degraded = monitor.degraded();
    if (!saw_degraded) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_GE(monitor.evaluations(), 1u);
  server.Stop();
}

/// A module whose only SLO rule is the paper's accuracy monitor, with
/// a threshold above any accuracy: its first sample already breaches.
core::LatestConfig AccuracyOnlyConfig() {
  core::LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 20;
  config.monitor_window = 8;
  config.estimator.reservoir_capacity = 200;
  config.slo_rules = DefaultLatestSloRules(
      /*tau=*/1.5, /*p99_latency_ms=*/0.0, /*max_wal_lag_records=*/0.0,
      /*max_resident_slices=*/0.0, /*max_active_drift=*/-1.0);
  return config;
}

/// Ingests a clustered stream and asks a keyword query every 15th
/// object past the first window (before it the module is warming up and
/// its accuracy monitor takes no sample).
void FeedStream(core::LatestModule* module) {
  const auto objects =
      testing_support::MakeClusteredObjects(1500, 7, /*duration=*/3000);
  for (size_t i = 0; i < objects.size(); ++i) {
    module->OnObject(objects[i]);
    if (objects[i].timestamp >= 1000 && i % 15 == 0) {
      stream::Query query;
      query.keywords = {static_cast<stream::KeywordId>(i % 50)};
      query.timestamp = objects[i].timestamp;
      module->OnQuery(query);
    }
  }
}

std::unique_ptr<core::LatestModule> MustCreate(
    const core::LatestConfig& config) {
  auto created = core::LatestModule::Create(config);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created).value();
}

// An idle instance is not degraded: before the accuracy monitor holds a
// sample the rule has no value, however often it is evaluated. Once a
// low sample exists it breaches after its debounce as usual.
TEST(SloMonitorTest, AccuracyRuleWaitsForTheMonitorsFirstSample) {
  auto module = MustCreate(AccuracyOnlyConfig());
  SloMonitor& monitor = module->observer().slo_monitor();
  ASSERT_EQ(monitor.States().size(), 1u);
  const uint32_t debounce = monitor.States()[0].rule.for_ticks;
  ASSERT_GT(debounce, 1u);

  for (uint32_t i = 0; i < 4 * debounce; ++i) {
    EXPECT_EQ(monitor.EvaluateAll(), 0u) << "evaluation " << i;
  }
  EXPECT_FALSE(monitor.degraded());
  EXPECT_FALSE(monitor.States()[0].has_value);
  EXPECT_EQ(module->telemetry().events().SnapshotOfType(
                EventType::kSloBreached).size(),
            0u);

  FeedStream(module.get());
  ASSERT_GT(module->queries_answered(), 0u);
  for (uint32_t i = 1; i < debounce; ++i) {
    EXPECT_EQ(monitor.EvaluateAll(), 0u) << "inside debounce, tick " << i;
    EXPECT_TRUE(monitor.States()[0].has_value);
  }
  EXPECT_EQ(monitor.EvaluateAll(), 1u);
  EXPECT_TRUE(monitor.degraded());
}

// Events the introspection ticker emits carry the module's stream time
// and query count, not zeros.
TEST(SloMonitorTest, TickerEventsCarryStreamTimeAndQueryCount) {
  core::LatestConfig config = AccuracyOnlyConfig();
  config.enable_introspection = true;
  config.introspection_port = 0;  // Ephemeral.
  config.slo_tick_ms = 20;
  auto module = MustCreate(config);
  ASSERT_NE(module->observer().introspection(), nullptr);
  FeedStream(module.get());
  const uint64_t queries = module->queries_answered();
  ASSERT_GT(queries, 0u);

  std::vector<Event> breaches;
  for (int i = 0; i < 500 && breaches.empty(); ++i) {
    breaches =
        module->telemetry().events().SnapshotOfType(EventType::kSloBreached);
    if (breaches.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches[0].note, "monitor_accuracy");
  // The ticker may fire while the stream is still being fed, so the
  // stamps lie between the first sample and the end of the stream.
  EXPECT_GE(breaches[0].timestamp, 1000);  // Past the warm-up window.
  EXPECT_LE(breaches[0].timestamp, 3000);
  EXPECT_GT(breaches[0].query_count, 0u);
  EXPECT_LE(breaches[0].query_count, queries);
}

}  // namespace
}  // namespace latest::obs
