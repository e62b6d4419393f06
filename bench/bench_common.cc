#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics_registry.h"
#include "workload/stream_driver.h"

namespace latest::bench {

double BenchScale() {
  const char* env = std::getenv("LATEST_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::atof(env);
  return std::clamp(scale, 0.05, 100.0);
}

core::LatestConfig DefaultModuleConfig(const workload::DatasetSpec& dataset,
                                       uint32_t num_queries) {
  core::LatestConfig config;
  config.bounds = dataset.bounds;
  config.window.window_length_ms = 60LL * 60 * 1000;
  config.window.num_slices = 16;
  config.pretrain_queries =
      std::max<uint32_t>(200, static_cast<uint32_t>(num_queries / 10));
  // Monitoring and hysteresis windows scale with the query volume so a
  // LATEST_BENCH_SCALE=4 run behaves like the default run stretched in
  // time rather than a jitterier one.
  config.monitor_window = std::max<uint32_t>(128, num_queries / 32);
  config.min_queries_between_switches =
      std::max<uint32_t>(256, num_queries / 16);
  config.maintain_shadow_estimators = true;
  config.seed = 42;
  return config;
}

TimelineResult RunTimeline(const workload::DatasetSpec& dataset_spec,
                           const workload::WorkloadSpec& workload_spec,
                           const core::LatestConfig& config,
                           uint32_t num_bins) {
  workload::DatasetGenerator dataset(dataset_spec);
  workload::QueryGenerator queries(workload_spec, dataset_spec);
  auto module_result = core::LatestModule::Create(config);
  if (!module_result.ok()) {
    std::fprintf(stderr, "bad module config: %s\n",
                 module_result.status().ToString().c_str());
    std::exit(1);
  }
  core::LatestModule& module = **module_result;

  TimelineResult result;
  result.bins.resize(num_bins);
  const uint32_t incremental_total =
      workload_spec.num_queries > config.pretrain_queries
          ? workload_spec.num_queries - config.pretrain_queries
          : 1;

  workload::StreamDriver driver(&dataset, &queries,
                                /*query_start_ms=*/config.window
                                    .window_length_ms,
                                dataset_spec.duration_ms);
  driver.AttachTelemetry(&module.telemetry().registry());
  obs::Histogram active_latency(obs::Histogram::LatencyBucketsMs());
  uint64_t incremental_index = 0;
  uint64_t tau_hits = 0;
  driver.Run(
      [&](const stream::GeoTextObject& obj) { module.OnObject(obj); },
      [&](const stream::Query& q, uint32_t /*index*/) {
        const core::QueryOutcome outcome = module.OnQuery(q);
        if (outcome.phase != core::Phase::kIncremental) return;
        const uint32_t bin = std::min<uint32_t>(
            num_bins - 1,
            static_cast<uint32_t>(incremental_index * num_bins /
                                  incremental_total));
        BinStats& stats = result.bins[bin];
        for (const auto& m : outcome.measurements) {
          const auto k = static_cast<uint32_t>(m.kind);
          stats.latency_sum_ms[k] += m.latency_ms;
          stats.accuracy_sum[k] += m.accuracy;
        }
        ++stats.count;
        stats.active = outcome.active;
        result.mean_active_accuracy += outcome.accuracy;
        result.mean_active_latency_ms += outcome.latency_ms;
        if (outcome.accuracy >= config.tau) ++tau_hits;
        active_latency.Observe(outcome.latency_ms);
        ++incremental_index;
      });

  result.incremental_queries = incremental_index;
  if (incremental_index > 0) {
    result.mean_active_accuracy /= static_cast<double>(incremental_index);
    result.mean_active_latency_ms /= static_cast<double>(incremental_index);
    result.tau_hit_rate =
        static_cast<double>(tau_hits) / static_cast<double>(incremental_index);
    result.p50_latency_ms = active_latency.Percentile(50.0);
    result.p95_latency_ms = active_latency.Percentile(95.0);
    result.p99_latency_ms = active_latency.Percentile(99.0);
  }
  for (const auto& sw : module.switch_log()) {
    result.switches.push_back(TimelineSwitch{
        static_cast<uint32_t>(std::min<uint64_t>(
            100, sw.query_index * 100 / std::max<uint64_t>(1,
                                                           incremental_index))),
        sw.from, sw.to});
  }
  result.final_active = module.active_kind();
  return result;
}

namespace {

void PrintTimelinePanel(const char* panel_title, const TimelineResult& result,
                        bool latency) {
  std::printf("%s\n", panel_title);
  std::printf("  %-5s", "t");
  for (uint32_t k = 0; k < estimators::kNumPaperEstimatorKinds; ++k) {
    std::printf(" %10s",
                estimators::EstimatorKindName(
                    static_cast<estimators::EstimatorKind>(k)));
  }
  std::printf("\n");
  const uint32_t num_bins = static_cast<uint32_t>(result.bins.size());
  for (uint32_t b = 0; b < num_bins; ++b) {
    const BinStats& stats = result.bins[b];
    std::printf("  t%-4u", b * 100 / num_bins);
    for (uint32_t k = 0; k < estimators::kNumPaperEstimatorKinds; ++k) {
      const double v = latency ? stats.MeanLatency(k) : stats.MeanAccuracy(k);
      const char mark =
          static_cast<uint32_t>(stats.active) == k ? '*' : ' ';
      if (latency) {
        std::printf("  %8.4f%c", v, mark);
      } else {
        std::printf("  %8.3f%c", v, mark);
      }
    }
    std::printf("\n");
  }
}

}  // namespace

void PrintTimelineFigure(const std::string& title,
                         const TimelineResult& result) {
  std::printf("%s\n", title.c_str());
  std::printf("(* = estimator currently employed by LATEST, the paper's "
              "dotted line)\n\n");
  PrintTimelinePanel("(a) estimation query latency (ms)", result,
                     /*latency=*/true);
  std::printf("\n");
  PrintTimelinePanel("(b) estimation accuracy", result, /*latency=*/false);
  std::printf("\nswitches during the incremental phase:\n");
  if (result.switches.empty()) {
    std::printf("  (none — the workload never degrades the active "
                "estimator below tau)\n");
  }
  for (size_t i = 0; i < result.switches.size(); ++i) {
    const auto& sw = result.switches[i];
    std::printf("  S%zu at t%u: %s -> %s\n", i + 1, sw.t,
                estimators::EstimatorKindName(sw.from),
                estimators::EstimatorKindName(sw.to));
  }
  std::printf(
      "\nmean active-estimator accuracy %.3f (tau hit rate %.3f), latency "
      "%.4f ms over %llu incremental queries; final estimator %s\n",
      result.mean_active_accuracy, result.tau_hit_rate,
      result.mean_active_latency_ms,
      static_cast<unsigned long long>(result.incremental_queries),
      estimators::EstimatorKindName(result.final_active));
  std::printf(
      "active-estimator latency percentiles: p50 %.4f ms, p95 %.4f ms, "
      "p99 %.4f ms\n",
      result.p50_latency_ms, result.p95_latency_ms, result.p99_latency_ms);
  // One machine-readable line per figure for log scraping / regression
  // tracking.
  std::printf(
      "RESULT_JSON {\"experiment\":\"%s\",\"incremental_queries\":%llu,"
      "\"mean_accuracy\":%.6f,\"tau_hit_rate\":%.6f,\"mean_latency_ms\":%.6f,"
      "\"p50_latency_ms\":%.6f,\"p95_latency_ms\":%.6f,"
      "\"p99_latency_ms\":%.6f,\"switches\":%zu,\"final_active\":\"%s\"}\n\n",
      title.c_str(),
      static_cast<unsigned long long>(result.incremental_queries),
      result.mean_active_accuracy, result.tau_hit_rate,
      result.mean_active_latency_ms,
      result.p50_latency_ms, result.p95_latency_ms, result.p99_latency_ms,
      result.switches.size(),
      estimators::EstimatorKindName(result.final_active));
}

void PrintSweepFigure(const std::string& title, const std::string& x_label,
                      const std::vector<SweepPoint>& points) {
  std::printf("%s\n", title.c_str());
  std::printf("(* = LATEST choice at this sweep point)\n\n");
  for (const bool latency : {true, false}) {
    std::printf("(%c) estimation %s\n", latency ? 'a' : 'b',
                latency ? "query latency (ms)" : "accuracy");
    std::printf("  %-14s", x_label.c_str());
    for (uint32_t k = 0; k < estimators::kNumPaperEstimatorKinds; ++k) {
      std::printf(" %10s",
                  estimators::EstimatorKindName(
                      static_cast<estimators::EstimatorKind>(k)));
    }
    std::printf("\n");
    for (const SweepPoint& p : points) {
      std::printf("  %-14s", p.label.c_str());
      for (uint32_t k = 0; k < estimators::kNumPaperEstimatorKinds; ++k) {
        if (!p.included[k]) {
          std::printf("  %9s", "-");
          continue;
        }
        const char mark = static_cast<uint32_t>(p.choice) == k ? '*' : ' ';
        if (latency) {
          std::printf("  %8.4f%c", p.latency_ms[k], mark);
        } else {
          std::printf("  %8.3f%c", p.accuracy[k], mark);
        }
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  // Machine-readable summary: one line per sweep point with mean and tail
  // latency per included estimator.
  for (const SweepPoint& p : points) {
    std::printf("RESULT_JSON {\"experiment\":\"%s\",\"point\":\"%s\","
                "\"estimators\":{",
                title.c_str(), p.label.c_str());
    bool first = true;
    for (uint32_t k = 0; k < estimators::kNumPaperEstimatorKinds; ++k) {
      if (!p.included[k]) continue;
      std::printf("%s\"%s\":{\"mean_latency_ms\":%.6f,"
                  "\"p95_latency_ms\":%.6f,\"p99_latency_ms\":%.6f,"
                  "\"accuracy\":%.6f}",
                  first ? "" : ",",
                  estimators::EstimatorKindName(
                      static_cast<estimators::EstimatorKind>(k)),
                  p.latency_ms[k], p.p95_latency_ms[k], p.p99_latency_ms[k],
                  p.accuracy[k]);
      first = false;
    }
    std::printf("},\"choice\":\"%s\"}\n",
                estimators::EstimatorKindName(p.choice));
  }
  std::printf("\n");
}

void PrintHeader(const std::string& experiment, const std::string& detail) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n%s\n", experiment.c_str(), detail.c_str());
  std::printf("bench scale: %.2f (set LATEST_BENCH_SCALE to change)\n",
              BenchScale());
  std::printf("==============================================================="
              "=\n\n");
}

}  // namespace latest::bench
