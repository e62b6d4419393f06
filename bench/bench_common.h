// Shared infrastructure for the paper-reproduction benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation (Section VI) as aligned text tables: timeline experiments
// (estimator switching, Figs. 3-8 and 12), portfolio sweeps (Figs. 9-11
// and 13), and the index-overhead comparison (Table I).
//
// Scaling: every harness honours LATEST_BENCH_SCALE (a double; default 1)
// multiplying dataset sizes and query volumes, so the same binaries run
// from smoke-test size to paper-like volume.

#ifndef LATEST_BENCH_BENCH_COMMON_H_
#define LATEST_BENCH_BENCH_COMMON_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/latest_module.h"
#include "workload/dataset.h"
#include "workload/query_workload.h"

namespace latest::bench {

/// LATEST_BENCH_SCALE environment knob (default 1.0, clamped to
/// [0.05, 100]).
double BenchScale();

/// Default module configuration for a dataset: one-hour window, shadow
/// (evaluation) mode, pre-training sized to the query volume.
core::LatestConfig DefaultModuleConfig(const workload::DatasetSpec& dataset,
                                       uint32_t num_queries);

/// Per-estimator aggregates within one timeline bin.
struct BinStats {
  std::array<double, estimators::kNumEstimatorKinds> latency_sum_ms = {};
  std::array<double, estimators::kNumEstimatorKinds> accuracy_sum = {};
  uint64_t count = 0;
  estimators::EstimatorKind active = estimators::EstimatorKind::kRsh;

  double MeanLatency(uint32_t kind) const {
    return count ? latency_sum_ms[kind] / static_cast<double>(count) : 0.0;
  }
  double MeanAccuracy(uint32_t kind) const {
    return count ? accuracy_sum[kind] / static_cast<double>(count) : 0.0;
  }
};

/// A switch event mapped onto the t0..t100 timeline.
struct TimelineSwitch {
  uint32_t t = 0;  // Percent of the incremental phase.
  estimators::EstimatorKind from;
  estimators::EstimatorKind to;
};

/// Result of a timeline experiment over the incremental learning phase.
struct TimelineResult {
  std::vector<BinStats> bins;  // One per timeline step.
  std::vector<TimelineSwitch> switches;
  double mean_active_accuracy = 0.0;
  double mean_active_latency_ms = 0.0;
  /// Active-estimator estimate-latency percentiles over the incremental
  /// phase (telemetry histogram, linear interpolation within buckets).
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// Fraction of incremental queries whose active-estimator accuracy met
  /// the switching threshold tau — the paper's quality target, and the
  /// accuracy metric bench_regress.py gates on (it is deterministic for
  /// a fixed workload seed, unlike latency).
  double tau_hit_rate = 0.0;
  uint64_t incremental_queries = 0;
  estimators::EstimatorKind final_active = estimators::EstimatorKind::kRsh;
};

/// Runs the full three-phase stream in shadow (evaluation) mode and
/// aggregates the incremental phase into `num_bins` timeline bins.
TimelineResult RunTimeline(const workload::DatasetSpec& dataset_spec,
                           const workload::WorkloadSpec& workload_spec,
                           const core::LatestConfig& config,
                           uint32_t num_bins = 20);

/// Prints the two panels of a switching figure: (a) latency and (b)
/// accuracy per timeline bin per estimator, the active estimator starred
/// (the paper's dotted line), plus the switch list.
void PrintTimelineFigure(const std::string& title,
                         const TimelineResult& result);

/// One sweep point of a portfolio sweep: per-estimator mean latency and
/// accuracy over a query batch, plus LATEST's alpha-blended choice.
struct SweepPoint {
  std::string label;
  std::array<double, estimators::kNumEstimatorKinds> latency_ms = {};
  std::array<double, estimators::kNumEstimatorKinds> accuracy = {};
  /// Per-estimator latency percentiles over the evaluation batch.
  std::array<double, estimators::kNumEstimatorKinds> p95_latency_ms = {};
  std::array<double, estimators::kNumEstimatorKinds> p99_latency_ms = {};
  std::array<bool, estimators::kNumEstimatorKinds> included = {};
  estimators::EstimatorKind choice = estimators::EstimatorKind::kRsh;
};

/// Prints the two panels of a sweep figure (latency and accuracy vs the
/// swept parameter), LATEST's choice starred.
void PrintSweepFigure(const std::string& title, const std::string& x_label,
                      const std::vector<SweepPoint>& points);

/// Simple header line for a bench binary.
void PrintHeader(const std::string& experiment, const std::string& detail);

}  // namespace latest::bench

#endif  // LATEST_BENCH_BENCH_COMMON_H_
