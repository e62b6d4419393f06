// Tests for the telemetry subsystem: metrics registry semantics,
// histogram percentiles against a sorted reference, exposition formats,
// event-log ring wraparound, the end-to-end lifecycle event sequence of
// a forced estimator switch, and the per-query stage histograms.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"
#include "simd/kernels.h"
#include "tests/test_stream.h"
#include "util/rng.h"
#include "util/stopwatch.h"

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

TEST(GaugeTest, SetReplacesTheValue) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
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
  EXPECT_EQ(registry.Samples().size(), 2u);
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
  EXPECT_TRUE(log.SnapshotOfType(EventType::kSloBreached).empty());
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
  EXPECT_EQ(registry.FindCounter("latest_switches_total")->value(),
            module.switch_log().size());
  EXPECT_EQ(registry.FindCounter("latest_events_appended_total")->value(),
            events.total_appended());
}

TEST(LifecycleEventsTest, KernelTierAndBatchSizeMetricsAreExported) {
  auto module_result = core::LatestModule::Create(ForcedSwitchConfig());
  ASSERT_TRUE(module_result.ok());
  core::LatestModule& module = **module_result;
  MetricsRegistry& registry = module.telemetry().registry();

  // The dispatch tier is resolved once at startup; the gauge mirrors it
  // so /metrics shows which kernel path served traffic.
  const Gauge* tier = registry.FindGauge("latest_kernel_tier");
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->value(),
            static_cast<double>(static_cast<int>(simd::ActiveTier())));

  // The batch-size histogram is registered up front (empty until a
  // batched ground-truth pass runs through the module's evaluator).
  const Histogram* sizes = registry.FindHistogram("latest_batch_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count(), 0u);

  // One OnQueryBatch is one sample of its full size, however the
  // evaluator splits it between the grid and the inverted index.
  const auto objects = testing_support::MakeClusteredObjects(400, 14, 500);
  for (const auto& obj : objects) module.OnObject(obj);
  const stream::Timestamp t = objects.back().timestamp;
  const geo::Rect box{10, 10, 60, 60};
  const std::vector<stream::Query> batch = {
      testing_support::MakeSpatialQuery(box, t),
      testing_support::MakeKeywordQuery({1}, t),
      testing_support::MakeSpatialQuery(testing_support::kTestBounds, t),
      testing_support::MakeKeywordQuery({2, 3}, t),
  };
  std::vector<core::QueryOutcome> outcomes(batch.size());
  module.OnQueryBatch(batch.data(), batch.size(), outcomes.data());
  EXPECT_EQ(sizes->count(), 1u);
  EXPECT_DOUBLE_EQ(sizes->sum(), 4.0);

  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("latest_kernel_tier"), std::string::npos);
  EXPECT_NE(text.find("latest_batch_size"), std::string::npos);
}

// Every query, scalar or batched, feeds each stage histogram exactly
// once from its QueryStageBreakdown.
TEST(StageLatencyTest, EveryQueryFeedsEachStageOnce) {
  core::LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 10;
  config.monitor_window = 8;
  auto module_result = core::LatestModule::Create(config);
  ASSERT_TRUE(module_result.ok());
  core::LatestModule& module = **module_result;

  constexpr size_t kBatch = 4;
  std::vector<stream::Query> batch(kBatch);
  std::vector<core::QueryOutcome> outcomes(kBatch);
  std::vector<core::QueryStageBreakdown> stages(kBatch);
  size_t batch_calls = 0;
  const auto objects = testing_support::MakeClusteredObjects(3000, 3, 2000);
  for (const auto& obj : objects) {
    module.OnObject(obj);
    if (obj.timestamp < 1000 || obj.oid % 25 != 0) continue;
    if (obj.oid % 50 == 0) {
      stream::Query q = testing_support::MakeSpatialQuery({20, 20, 40, 40});
      q.timestamp = obj.timestamp;
      module.OnQuery(q);
      continue;
    }
    for (size_t i = 0; i < kBatch; ++i) {
      const double lo = 10.0 * static_cast<double>(i + 1);
      batch[i] = testing_support::MakeSpatialQuery({lo, lo, lo + 30, lo + 30});
      batch[i].timestamp = obj.timestamp;
    }
    const util::Stopwatch wall;
    module.OnQueryBatch(batch.data(), kBatch, outcomes.data(), stages.data());
    const double wall_ms = wall.ElapsedMillis();
    ++batch_calls;
    // Stage times never exceed the total they belong to.
    double stage_sum_ms = 0.0;
    for (const core::QueryStageBreakdown& stage : stages) {
      stage_sum_ms +=
          stage.ground_truth_ms + stage.estimate_ms + stage.model_ms;
    }
    EXPECT_LE(stage_sum_ms, wall_ms);
  }
  ASSERT_GT(batch_calls, 0u);
  ASSERT_GT(module.queries_answered(), batch_calls * kBatch);

  const MetricsRegistry& registry = module.telemetry().registry();
  for (const char* stage : {"ground_truth", "estimate", "model_update"}) {
    const Histogram* histogram =
        registry.FindHistogram("latest_stage_latency_ms", {{"stage", stage}});
    ASSERT_NE(histogram, nullptr) << stage;
    EXPECT_EQ(histogram->count(), module.queries_answered()) << stage;
  }
  const std::string text = registry.PrometheusText();
  EXPECT_EQ(text.find("stage=\"tokenize\""), std::string::npos);
  EXPECT_EQ(text.find("_traces_"), std::string::npos);  // No trace counters.

  // Lifetime accessors: every object counted, the CMS extension disabled
  // by default, and the active estimator's spatial cell measured.
  EXPECT_EQ(module.objects_ingested(), 3000u);
  EXPECT_TRUE(module.IsEnabled(estimators::EstimatorKind::kH4096));
  EXPECT_FALSE(module.IsEnabled(estimators::EstimatorKind::kCmSketch));
  EXPECT_GT(module.scoreboard().AccuracyOf(stream::QueryType::kSpatial,
                                           module.active_kind()),
            0.0);
}

}  // namespace
}  // namespace latest::obs
