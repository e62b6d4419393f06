// Prometheus text-exposition conformance, pinned by a golden file.
//
// The golden at tests/testdata/prometheus_conformance.golden locks in:
//   - label-value escaping (backslash, double quote, line feed),
//   - HELP-text escaping (backslash and line feed only; quotes literal),
//   - exactly one # HELP / # TYPE header per family even when instances
//     of the family are registered interleaved with other families,
//   - stable (name, labels) sort independent of registration order,
//   - cumulative histogram buckets with `le` labels, +Inf, _sum, _count,
//   - the estimation-quality families (latest_estimator_error_*,
//     latest_drift_*) exactly as the real ErrorAccountant/DriftMonitor
//     export them, so a rename or re-labelling shows up as a diff here.
//
// Regenerate after an intentional format change with:
//   LATEST_UPDATE_GOLDEN=1 ./metrics_conformance_test

#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "estimators/estimator.h"
#include "obs/drift_detector.h"
#include "obs/error_accounting.h"
#include "obs/metrics_registry.h"

namespace latest::obs {
namespace {

std::string GoldenPath() {
  return std::string(LATEST_TESTDATA_DIR) + "/prometheus_conformance.golden";
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

/// Attaches the real quality-observability components so the golden pins
/// their exposition verbatim: every estimator kind's error slots plus
/// one drift series. The components are locals — the registry owns the
/// metric instances, so the recorded values survive their destruction.
void PopulateQualityFamilies(MetricsRegistry* registry) {
  ErrorAccountant accountant(/*tau=*/0.62);
  accountant.AttachMetrics(registry);
  // RSH: one clean measurement, one tau violation (accuracy 0.1 < tau).
  accountant.Record(estimators::EstimatorKind::kRsh, 90.0, 100.0);
  accountant.Record(estimators::EstimatorKind::kRsh, 10.0, 100.0);
  // H4096: a perfect estimate only.
  accountant.Record(estimators::EstimatorKind::kH4096, 100.0, 100.0);

  DriftMonitor monitor;
  monitor.AddSeries("error_RSH");
  monitor.AttachMetrics(registry);
}

/// Serve-plane families as net/serve_server registers them: the
/// per-class queue-wait ladder.
void PopulateServeFamilies(MetricsRegistry* registry) {
  Histogram* query_wait = registry->GetHistogram(
      "latest_serve_queue_wait_ms", "Admission queue wait per class",
      {0.5, 1.0, 5.0}, {{"class", "query"}});
  query_wait->Observe(0.25);
  query_wait->Observe(7.5);
  registry
      ->GetHistogram("latest_serve_queue_wait_ms",
                     "Admission queue wait per class", {0.5, 1.0, 5.0},
                     {{"class", "ingest"}})
      ->Observe(0.75);
  registry
      ->GetCounter("latest_serve_frames_in_total", "RPC frames received")
      ->Increment(3);
}

/// Builds the registry whose exposition the golden file pins. Instances
/// are registered deliberately out of exposition order — the knn counter
/// before the box counter, the zebra gauge first — so any dependence on
/// registration order breaks the comparison.
void PopulateConformanceRegistry(MetricsRegistry* registry) {
  registry->GetGauge("zebra_gauge", "Registered first, exposed last")
      ->Set(2.5);
  registry
      ->GetCounter("latest_queries_by_kind_total", "Queries by kind",
                   {{"kind", "knn"}})
      ->Increment(4);
  registry
      ->GetGauge("awkward_label_values",
                 "Label values exercising every escape",
                 {{"path", "C:\\dir\\file"},
                  {"quote", "he said \"hi\""},
                  {"text", "line1\nline2"}})
      ->Set(1.0);
  registry
      ->GetCounter("latest_queries_by_kind_total", "Queries by kind",
                   {{"kind", "box"}})
      ->Increment(9);
  registry
      ->GetCounter("help_escapes_total",
                   "Backslash \\ and\nnewline stay \"literal\" quotes")
      ->Increment(1);
  Histogram* latency = registry->GetHistogram("small_latency_ms",
                                              "Tiny ladder", {1.0, 2.0, 5.0});
  latency->Observe(0.5);
  latency->Observe(1.5);
  latency->Observe(10.0);
  PopulateQualityFamilies(registry);
  PopulateServeFamilies(registry);
}

TEST(MetricsConformanceTest, PrometheusTextMatchesGolden) {
  MetricsRegistry registry;
  PopulateConformanceRegistry(&registry);
  const std::string actual = registry.PrometheusText();

  if (std::getenv("LATEST_UPDATE_GOLDEN") != nullptr) {
    std::FILE* f = std::fopen(GoldenPath().c_str(), "wb");
    ASSERT_NE(f, nullptr) << "cannot rewrite " << GoldenPath();
    std::fwrite(actual.data(), 1, actual.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "golden rewritten";
  }

  const std::string expected = ReadFileOrEmpty(GoldenPath());
  ASSERT_FALSE(expected.empty()) << "missing golden: " << GoldenPath();
  EXPECT_EQ(actual, expected);
}

TEST(MetricsConformanceTest, ExpositionIsRegistrationOrderIndependent) {
  // Same instances, opposite registration order: identical exposition.
  MetricsRegistry forward;
  PopulateConformanceRegistry(&forward);

  MetricsRegistry reverse;
  PopulateServeFamilies(&reverse);    // Last in forward, first here.
  PopulateQualityFamilies(&reverse);
  Histogram* latency = reverse.GetHistogram("small_latency_ms", "Tiny ladder",
                                            {1.0, 2.0, 5.0});
  latency->Observe(0.5);
  latency->Observe(1.5);
  latency->Observe(10.0);
  reverse
      .GetCounter("help_escapes_total",
                  "Backslash \\ and\nnewline stay \"literal\" quotes")
      ->Increment(1);
  reverse
      .GetCounter("latest_queries_by_kind_total", "Queries by kind",
                  {{"kind", "box"}})
      ->Increment(9);
  reverse
      .GetGauge("awkward_label_values",
                "Label values exercising every escape",
                {{"path", "C:\\dir\\file"},
                 {"quote", "he said \"hi\""},
                 {"text", "line1\nline2"}})
      ->Set(1.0);
  reverse
      .GetCounter("latest_queries_by_kind_total", "Queries by kind",
                  {{"kind", "knn"}})
      ->Increment(4);
  reverse.GetGauge("zebra_gauge", "Registered first, exposed last")->Set(2.5);

  EXPECT_EQ(forward.PrometheusText(), reverse.PrometheusText());
}

TEST(MetricsConformanceTest, EachFamilyHasExactlyOneHelpAndType) {
  MetricsRegistry registry;
  PopulateConformanceRegistry(&registry);
  const std::string text = registry.PrometheusText();
  for (const char* family :
       {"awkward_label_values", "help_escapes_total",
        "latest_queries_by_kind_total", "small_latency_ms", "zebra_gauge",
        "latest_estimator_error_samples_total",
        "latest_estimator_error_qerror", "latest_drift_detections_total",
        "latest_drift_active", "latest_drift_active_series",
        "latest_serve_queue_wait_ms", "latest_serve_frames_in_total"}) {
    for (const char* directive : {"# HELP ", "# TYPE "}) {
      const std::string needle = std::string(directive) + family + " ";
      size_t count = 0;
      for (size_t pos = text.find(needle); pos != std::string::npos;
           pos = text.find(needle, pos + 1)) {
        ++count;
      }
      EXPECT_EQ(count, 1u) << directive << family;
    }
  }
}

}  // namespace
}  // namespace latest::obs
