// Tests for the telemetry subsystem: metrics registry semantics,
// histogram percentiles against a sorted reference, exposition formats,
// event-log ring wraparound, trace sampling, the end-to-end lifecycle
// event sequence of a forced estimator switch, and the module stats
// snapshot.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "core/module_stats.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "obs/query_trace.h"
#include "obs/telemetry.h"
#include "simd/kernels.h"
#include "tests/test_stream.h"
#include "util/rng.h"

namespace latest::obs {
namespace {

// --------------------------------------------------------------------
// Counter / Gauge

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), -0.5);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

// --------------------------------------------------------------------
// Histogram

TEST(HistogramTest, ObserveFillsBucketsBySample) {
  Histogram h({1.0, 2.0, 5.0});
  h.Observe(0.5);   // Bucket 0 (le 1).
  h.Observe(1.0);   // Bucket 0: le semantics include the bound.
  h.Observe(1.5);   // Bucket 1 (le 2).
  h.Observe(100.0); // Overflow bucket.
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.0);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf.
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h(Histogram::LatencyBucketsMs());
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, OverflowSamplesReportLargestFiniteBound) {
  Histogram h({1.0, 2.0});
  h.Observe(50.0);
  h.Observe(60.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 2.0);
}

TEST(HistogramTest, PercentilesMatchSortedReferenceWithinBucketWidth) {
  // 20 equi-width buckets over [0, 1]: any interpolated percentile must
  // land within one bucket width (0.05) of the exact order statistic.
  Histogram h(Histogram::UnitIntervalBuckets());
  util::Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    // Skewed distribution so percentiles are non-trivial.
    const double v = rng.NextDouble() * rng.NextDouble();
    samples.push_back(v);
    h.Observe(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const size_t rank = std::min(
        samples.size() - 1,
        static_cast<size_t>(p / 100.0 * static_cast<double>(samples.size())));
    EXPECT_NEAR(h.Percentile(p), samples[rank], 0.05)
        << "percentile " << p;
  }
}

TEST(HistogramTest, ResetClears) {
  Histogram h({1.0});
  h.Observe(0.5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket_count(0), 0u);
}

// --------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, GetOrCreateReturnsStableInstances) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x_total", "help");
  Counter* b = registry.GetCounter("x_total", "help");
  EXPECT_EQ(a, b);
  Counter* labeled =
      registry.GetCounter("x_total", "help", {{"k", "v"}});
  EXPECT_NE(a, labeled);
  Counter* labeled_again =
      registry.GetCounter("x_total", "help", {{"k", "v"}});
  EXPECT_EQ(labeled, labeled_again);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("demo_total", "A demo counter")->Increment(3);
  registry.GetGauge("demo_phase", "A demo gauge")->Set(2.0);
  Histogram* h = registry.GetHistogram("demo_latency_ms", "A demo histogram",
                                       {1.0, 5.0}, {{"estimator", "RSH"}});
  h->Observe(0.5);
  h->Observe(3.0);
  h->Observe(50.0);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP demo_total A demo counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("demo_total 3"), std::string::npos);
  EXPECT_NE(text.find("demo_phase 2"), std::string::npos);
  // Cumulative buckets with the estimator label and the +Inf bucket.
  EXPECT_NE(
      text.find("demo_latency_ms_bucket{estimator=\"RSH\",le=\"1\"} 1"),
      std::string::npos);
  EXPECT_NE(
      text.find("demo_latency_ms_bucket{estimator=\"RSH\",le=\"5\"} 2"),
      std::string::npos);
  EXPECT_NE(
      text.find("demo_latency_ms_bucket{estimator=\"RSH\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("demo_latency_ms_count{estimator=\"RSH\"} 3"),
            std::string::npos);
}

TEST(MetricsRegistryTest, JsonExposition) {
  MetricsRegistry registry;
  registry.GetCounter("j_total", "h")->Increment();
  Histogram* h = registry.GetHistogram("j_ms", "h", {1.0});
  h->Observe(0.25);
  const std::string json = registry.Json();
  EXPECT_NE(json.find("\"name\":\"j_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
}

// --------------------------------------------------------------------
// EventLog

TEST(EventLogTest, RingOverwritesOldest) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    Event e;
    e.type = EventType::kSwitched;
    e.query_count = static_cast<uint64_t>(i);
    log.Append(e);
  }
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_appended(), 10u);
  const std::vector<Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: appends 6, 7, 8, 9 survive.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].query_count, 6u + i);
  }
}

TEST(EventLogTest, SnapshotOfTypeFilters) {
  EventLog log(8);
  Event a;
  a.type = EventType::kPrefillStarted;
  Event b;
  b.type = EventType::kSwitched;
  log.Append(a);
  log.Append(b);
  log.Append(a);
  EXPECT_EQ(log.SnapshotOfType(EventType::kPrefillStarted).size(), 2u);
  EXPECT_EQ(log.SnapshotOfType(EventType::kSwitched).size(), 1u);
  EXPECT_TRUE(log.SnapshotOfType(EventType::kModelReset).empty());
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_appended(), 3u);
}

TEST(EventLogTest, FormatEventMentionsTypeAndEstimators) {
  Event e;
  e.type = EventType::kSwitched;
  e.from_estimator = 0;  // H4096.
  e.to_estimator = 2;    // RSH.
  e.query_count = 77;
  const std::string line = FormatEvent(e);
  EXPECT_NE(line.find("switched"), std::string::npos);
  EXPECT_NE(line.find("H4096"), std::string::npos);
  EXPECT_NE(line.find("RSH"), std::string::npos);
}

// --------------------------------------------------------------------
// TraceCollector

TEST(TraceCollectorTest, SamplesEveryNth) {
  TraceCollector collector(/*sample_every=*/4, /*capacity=*/8,
                           /*registry=*/nullptr);
  EXPECT_TRUE(collector.ShouldSample(0));
  EXPECT_FALSE(collector.ShouldSample(1));
  EXPECT_FALSE(collector.ShouldSample(3));
  EXPECT_TRUE(collector.ShouldSample(4));
  EXPECT_TRUE(collector.ShouldSample(400));
}

TEST(TraceCollectorTest, ZeroDisablesSampling) {
  TraceCollector collector(0, 8, nullptr);
  EXPECT_FALSE(collector.ShouldSample(0));
  EXPECT_FALSE(collector.ShouldSample(64));
}

TEST(TraceCollectorTest, RingBoundsRetainedTraces) {
  TraceCollector collector(1, 4, nullptr);
  for (int i = 0; i < 9; ++i) {
    QueryTrace trace;
    trace.query_ordinal = static_cast<uint64_t>(i);
    collector.Record(trace);
  }
  EXPECT_EQ(collector.recorded(), 9u);
  const std::vector<QueryTrace> traces = collector.Snapshot();
  ASSERT_EQ(traces.size(), 4u);
  EXPECT_EQ(traces.front().query_ordinal, 5u);
  EXPECT_EQ(traces.back().query_ordinal, 8u);
}

TEST(TraceCollectorTest, FeedsStageHistograms) {
  MetricsRegistry registry;
  TraceCollector collector(1, 4, &registry);
  QueryTrace trace;
  trace.stage_ms[static_cast<uint32_t>(TraceStage::kEstimate)] = 0.5;
  trace.total_ms = 1.0;
  collector.Record(trace);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("latest_stage_latency_ms"), std::string::npos);
  EXPECT_NE(text.find("stage=\"estimate\""), std::string::npos);
  EXPECT_NE(text.find("latest_query_total_latency_ms"), std::string::npos);
}

// --------------------------------------------------------------------
// End-to-end lifecycle events through the module

core::LatestConfig ForcedSwitchConfig() {
  core::LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 30;
  config.monitor_window = 16;
  // Hysteresis longer than the monitor window: prefill pressure appears
  // (and emits kPrefillStarted) before the switch is allowed to fire.
  config.min_queries_between_switches = 48;
  config.estimator.reservoir_capacity = 500;
  // A pure-spatial histogram cannot answer keyword queries: feeding only
  // keyword queries forces the monitor down and a switch away from it.
  config.default_estimator = estimators::EstimatorKind::kH4096;
  config.seed = 5;
  return config;
}

TEST(LifecycleEventsTest, ForcedSwitchEmitsPrefillThenSwitch) {
  auto module_result = core::LatestModule::Create(ForcedSwitchConfig());
  ASSERT_TRUE(module_result.ok());
  core::LatestModule& module = **module_result;
  util::Rng rng(12);
  const auto objects =
      testing_support::MakeClusteredObjects(8000, 13, 4000);
  for (size_t i = 0; i < objects.size(); ++i) {
    module.OnObject(objects[i]);
    if (objects[i].timestamp >= 1000 && i % 10 == 0) {
      stream::Query q = testing_support::MakeKeywordQuery(
          {static_cast<stream::KeywordId>(rng.NextBounded(50))});
      q.timestamp = objects[i].timestamp;
      module.OnQuery(q);
    }
  }
  ASSERT_FALSE(module.switch_log().empty());

  const EventLog& events = module.telemetry().events();
  const auto phase_events = events.SnapshotOfType(EventType::kPhaseChanged);
  ASSERT_EQ(phase_events.size(), 2u);  // warmup->pretraining->incremental.
  EXPECT_EQ(phase_events[0].phase, 1);
  EXPECT_EQ(phase_events[1].phase, 2);

  const auto prefills = events.SnapshotOfType(EventType::kPrefillStarted);
  const auto switches = events.SnapshotOfType(EventType::kSwitched);
  ASSERT_FALSE(prefills.empty());
  ASSERT_FALSE(switches.empty());
  // The anticipation precedes the switch, away from the failing H4096,
  // and both agree on the destination.
  EXPECT_LT(prefills.front().query_count, switches.front().query_count);
  EXPECT_EQ(switches.front().from_estimator,
            static_cast<int32_t>(estimators::EstimatorKind::kH4096));
  EXPECT_EQ(prefills.front().to_estimator, switches.front().to_estimator);
  EXPECT_NE(switches.front().to_estimator,
            static_cast<int32_t>(estimators::EstimatorKind::kH4096));
  // The monitor crossed the switch threshold somewhere along the way.
  EXPECT_FALSE(
      events.SnapshotOfType(EventType::kAccuracyBelowSwitchThreshold)
          .empty());

  // Registry view agrees with the event log.
  MetricsRegistry& registry = module.telemetry().registry();
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("latest_switches_total"), std::string::npos);
  EXPECT_NE(text.find("latest_phase 2"), std::string::npos);
  EXPECT_EQ(module.GetStats().switches, module.switch_log().size());
  EXPECT_EQ(module.GetStats().events_logged, events.total_appended());
}

TEST(LifecycleEventsTest, KernelTierAndBatchSizeMetricsAreExported) {
  auto module_result = core::LatestModule::Create(ForcedSwitchConfig());
  ASSERT_TRUE(module_result.ok());
  core::LatestModule& module = **module_result;
  MetricsRegistry& registry = module.telemetry().registry();

  // The dispatch tier is resolved once at startup; the gauge mirrors it
  // so /statusz and postmortems show which kernel path served traffic.
  const Gauge* tier = registry.FindGauge("latest_kernel_tier");
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->value(),
            static_cast<double>(static_cast<int>(simd::ActiveTier())));

  // The batch-size histogram is registered up front (empty until a
  // batched ground-truth pass runs through the module's evaluator).
  const Histogram* sizes = registry.FindHistogram("latest_batch_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), 0u);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("latest_kernel_tier"), std::string::npos);
  EXPECT_NE(text.find("latest_batch_size"), std::string::npos);
}

TEST(LifecycleEventsTest, TracesAreSampledDuringTheRun) {
  auto config = ForcedSwitchConfig();
  config.telemetry.trace_sample_every = 8;
  auto module_result = core::LatestModule::Create(config);
  ASSERT_TRUE(module_result.ok());
  core::LatestModule& module = **module_result;
  util::Rng rng(3);
  const auto objects =
      testing_support::MakeClusteredObjects(4000, 9, 4000);
  for (size_t i = 0; i < objects.size(); ++i) {
    module.OnObject(objects[i]);
    if (objects[i].timestamp >= 1000 && i % 20 == 0) {
      stream::Query q = testing_support::MakeKeywordQuery(
          {static_cast<stream::KeywordId>(rng.NextBounded(50))});
      q.timestamp = objects[i].timestamp;
      module.OnQuery(q);
    }
  }
  const uint64_t queries = module.queries_answered();
  ASSERT_GT(queries, 8u);
  const TraceCollector& traces = module.telemetry().traces();
  EXPECT_EQ(traces.recorded(), (queries + 7) / 8);
  const auto snapshot = traces.Snapshot();
  ASSERT_FALSE(snapshot.empty());
  for (const QueryTrace& trace : snapshot) {
    EXPECT_EQ(trace.query_ordinal % 8, 0u);
    EXPECT_GE(trace.total_ms, 0.0);
  }
}

}  // namespace
}  // namespace latest::obs

// --------------------------------------------------------------------
// ModuleStats snapshot

namespace latest::core {
namespace {

LatestConfig StatsConfig() {
  LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 10;
  config.monitor_window = 8;
  return config;
}

TEST(ModuleStatsTest, SnapshotReflectsModule) {
  auto module = std::move(LatestModule::Create(StatsConfig())).value();
  const auto objects = testing_support::MakeClusteredObjects(3000, 3, 2000);
  for (const auto& obj : objects) {
    module->OnObject(obj);
    if (obj.timestamp >= 1000 && obj.oid % 25 == 0) {
      stream::Query q = testing_support::MakeSpatialQuery({20, 20, 40, 40});
      q.timestamp = obj.timestamp;
      module->OnQuery(q);
    }
  }
  const ModuleStats stats = module->GetStats();
  EXPECT_EQ(stats.objects_ingested, 3000u);
  EXPECT_EQ(stats.queries_answered, module->queries_answered());
  EXPECT_EQ(stats.window_population, module->window_population());
  EXPECT_EQ(stats.phase, module->phase());
  EXPECT_EQ(stats.active, module->active_kind());
  EXPECT_EQ(stats.model_records, module->model().num_trained());
  // Paper portfolio enabled, CMS extension disabled by default.
  EXPECT_TRUE(stats.enabled[0]);
  EXPECT_FALSE(
      stats.enabled[static_cast<uint32_t>(estimators::EstimatorKind::kCmSketch)]);
  // Spatial cells of enabled estimators carry measurements.
  EXPECT_GT(stats.scoreboard[0][static_cast<uint32_t>(stats.active)].accuracy,
            0.0);
}

TEST(ModuleStatsTest, FormatContainsKeyFields) {
  auto module = std::move(LatestModule::Create(StatsConfig())).value();
  const auto text = FormatStats(module->GetStats());
  EXPECT_NE(text.find("phase=warmup"), std::string::npos);
  EXPECT_NE(text.find("active=RSH"), std::string::npos);
  EXPECT_NE(text.find("scoreboard"), std::string::npos);
  EXPECT_NE(text.find("H4096"), std::string::npos);
  EXPECT_EQ(text.find("CMS"), std::string::npos);  // Disabled by default.
}

}  // namespace
}  // namespace latest::core
