// Per-estimator online error accounting over the ground-truth log.
//
// The scoreboard (core/scoreboard.h) keeps a single EWMA accuracy per
// (query type, estimator) for the switch decision; it answers "who is
// best right now" but not "how wrong has RS-L been lately, and is that
// getting worse". The ErrorAccountant keeps richer error statistics per
// estimator kind — EWMA relative error, q-error quantiles, and the rate
// of tau violations — fed from the same measurements the lifecycle
// already produces when ground truth lands. DeepSampling-style
// governance (pick the estimator by predicted error) and ROADMAP item 5
// (drift-aware replay) both start from exactly this series.
//
// Strictly observational: nothing here feeds back into lifecycle
// decisions and nothing is persisted, so snapshot fingerprints and the
// determinism contract are untouched.

#ifndef LATEST_OBS_ERROR_ACCOUNTING_H_
#define LATEST_OBS_ERROR_ACCOUNTING_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "estimators/estimator.h"

namespace latest::obs {

class Counter;          // obs/metrics_registry.h
class Gauge;            // obs/metrics_registry.h
class Histogram;        // obs/metrics_registry.h
class MetricsRegistry;  // obs/metrics_registry.h

/// Error statistics of one estimator kind, as accumulated so far.
struct EstimatorErrorStats {
  estimators::EstimatorKind kind = estimators::EstimatorKind::kH4096;
  /// Ground-truth measurements folded in.
  uint64_t samples = 0;
  /// EWMA of relative error |est - actual| / max(actual, 1).
  double ewma_relative_error = 0.0;
  /// EWMA of accuracy (1 - relative error, floored at 0) — the same
  /// quantity the switch monitor thresholds against tau.
  double ewma_accuracy = 0.0;
  /// Measurements whose accuracy fell below tau.
  uint64_t tau_violations = 0;
  /// Lifetime tau-violation rate in [0, 1].
  double tau_violation_rate = 0.0;
  /// q-error quantiles from the histogram (1 == perfect).
  double qerror_p50 = 1.0;
  double qerror_p95 = 1.0;
  double qerror_p99 = 1.0;
  /// Largest q-error seen.
  double max_qerror = 1.0;
};

/// Maintains per-estimator error series and mirrors them into
/// `latest_estimator_error_*` registry metrics. Thread-safe; callers
/// feed it from the query path at ground-truth time.
class ErrorAccountant {
 public:
  /// `tau` is the switch threshold violations are counted against;
  /// `ewma_alpha` is the smoothing factor of the error EWMAs.
  explicit ErrorAccountant(double tau, double ewma_alpha = 0.05);

  /// Registers the exported metric families. The registry must outlive
  /// the accountant. Metrics carry an `estimator` label per kind:
  ///   latest_estimator_error_samples_total
  ///   latest_estimator_error_ewma_relative
  ///   latest_estimator_error_ewma_accuracy
  ///   latest_estimator_error_tau_violations_total
  ///   latest_estimator_error_tau_violation_rate
  ///   latest_estimator_error_qerror (histogram)
  void AttachMetrics(MetricsRegistry* registry);

  /// Folds one ground-truth measurement into `kind`'s series.
  /// `estimate` is the estimator's selectivity prediction, `actual` the
  /// exact count once ground truth landed.
  void Record(estimators::EstimatorKind kind, double estimate,
              double actual);

  /// Statistics for every kind with at least one sample.
  std::vector<EstimatorErrorStats> AllStats() const;

  /// The EWMA relative error of `kind` — the series the per-estimator
  /// drift detectors subscribe to.
  double EwmaRelativeError(estimators::EstimatorKind kind) const;

  double tau() const { return tau_; }

  /// Relative error of one prediction: |est - actual| / max(actual, 1).
  static double RelativeError(double estimate, double actual);

  /// q-error of one prediction: max(e/a, a/e) with both floored at 1.
  static double QError(double estimate, double actual);

 private:
  struct Slot {
    uint64_t samples = 0;
    double ewma_relative_error = 0.0;
    double ewma_accuracy = 0.0;
    uint64_t tau_violations = 0;
    double max_qerror = 1.0;
    // Exported instances, resolved once at AttachMetrics.
    Counter* samples_counter = nullptr;
    Gauge* ewma_relative_gauge = nullptr;
    Gauge* ewma_accuracy_gauge = nullptr;
    Counter* tau_violation_counter = nullptr;
    Gauge* tau_violation_rate_gauge = nullptr;
    Histogram* qerror_histogram = nullptr;
    // Local quantile histogram, always present (registry optional).
    std::vector<uint64_t> qerror_buckets;
  };

  void FillStats(const Slot& slot, estimators::EstimatorKind kind,
                 EstimatorErrorStats* out) const;
  double QErrorQuantileLocked(const Slot& slot, double q) const;

  const double tau_;
  const double ewma_alpha_;
  mutable std::mutex mu_;
  Slot slots_[estimators::kNumEstimatorKinds];
};

/// Bucket ladder for q-error histograms: geometric 1..1024 plus +Inf.
std::vector<double> QErrorBuckets();

}  // namespace latest::obs

#endif  // LATEST_OBS_ERROR_ACCOUNTING_H_
