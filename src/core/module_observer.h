// ModuleObserver: everything LatestModule reports but never decides on.
//
// LatestModule (core/latest_module.h) is the paper's Section V state
// machine. Its metrics, the estimation-quality plane (error accounting,
// drift detection, switch audit), the SLO monitor, and the introspection
// server live here, behind four hooks the module calls: OnIngest,
// OnSliceRotated, OnQueryFinished and OnSwitch.
//
// The observer reads module state through a const reference and never
// writes it, so observability cannot change the lifecycle: outcomes and
// snapshot bytes are the same with the quality plane on, off, or served
// over HTTP (quality_obs_test pins this).

#ifndef LATEST_CORE_MODULE_OBSERVER_H_
#define LATEST_CORE_MODULE_OBSERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "estimators/estimator.h"
#include "obs/audit_trail.h"
#include "obs/drift_detector.h"
#include "obs/error_accounting.h"
#include "obs/slo_monitor.h"
#include "obs/statusz.h"
#include "obs/telemetry.h"
#include "stream/object.h"
#include "stream/query.h"
#include "util/status.h"

namespace latest::core {

class LatestModule;
struct QueryOutcome;
struct QueryStageBreakdown;

class ModuleObserver {
 public:
  /// Switch-audit ring capacity and counterfactual window (queries).
  static constexpr uint32_t kAuditCapacity = 256;
  static constexpr uint32_t kAuditResolutionWindow = 32;

  /// Registers the observational metrics in `telemetry`, builds the SLO
  /// monitor and, when config().quality.enabled, the quality plane.
  /// `module` and `telemetry` must outlive the observer.
  ModuleObserver(const LatestModule& module, obs::Telemetry* telemetry);
  ~ModuleObserver();
  ModuleObserver(const ModuleObserver&) = delete;
  ModuleObserver& operator=(const ModuleObserver&) = delete;

  /// Starts the introspection server when config().enable_introspection
  /// is set; a no-op otherwise.
  util::Status StartIntrospection();

  /// After `obj` is in the system log and every live estimator.
  void OnIngest(const stream::GeoTextObject& obj);

  /// Once per sealed slice, after the module rotated its structures.
  void OnSliceRotated();

  /// After the query with lifetime ordinal `ordinal` (0-based) finished.
  void OnQueryFinished(const QueryOutcome& outcome, uint64_t ordinal,
                       const QueryStageBreakdown& stages);

  /// Before the module replaces its active estimator with `to`.
  void OnSwitch(const stream::Query& q, const std::array<double, 3>& weights,
                estimators::EstimatorKind to,
                estimators::EstimatorKind recommended,
                bool had_prefilled_candidate);

  /// Queries in one batched ground-truth pass (OnQueryBatch, k >= 2).
  void OnTruthBatch(size_t queries);

  /// Re-publishes every gauge from module state (after LoadState).
  void Resync();

  /// Declarative SLO monitor over the module's registry (always present;
  /// rules come from LatestConfig::slo_rules or the defaults).
  obs::SloMonitor& slo_monitor() { return *slo_monitor_; }

  /// The embedded introspection server, or null when
  /// LatestConfig::enable_introspection is false.
  obs::IntrospectionServer* introspection() { return introspection_.get(); }

  /// Estimation-quality components; null when quality.enabled is false.
  obs::ErrorAccountant* error_accountant() { return error_accountant_.get(); }
  obs::DriftMonitor* drift_monitor() { return drift_monitor_.get(); }
  obs::SwitchAuditTrail* audit_trail() { return audit_trail_.get(); }

  /// Lifetime drift detections summed over every monitored series (0
  /// when quality.enabled is false). The event ring, which every event
  /// type shares, forgets old detections; this count does not.
  uint64_t drift_detections() const;

 private:
  void RegisterMetrics();
  void SetWindowGauges();
  void SetModelGauges();
  void MirrorStreamTime();

  const LatestModule& module_;
  obs::Telemetry& telemetry_;

  obs::Gauge* monitor_accuracy_gauge_ = nullptr;
  obs::Gauge* window_population_gauge_ = nullptr;
  obs::Gauge* store_live_rows_gauge_ = nullptr;
  obs::Gauge* store_arena_bytes_gauge_ = nullptr;
  obs::Gauge* store_slices_gauge_ = nullptr;
  obs::Gauge* model_records_gauge_ = nullptr;
  obs::Gauge* model_leaves_gauge_ = nullptr;
  obs::Gauge* model_depth_gauge_ = nullptr;
  obs::Histogram* accuracy_histogram_ = nullptr;
  obs::Histogram* batch_size_histogram_ = nullptr;
  std::array<obs::Histogram*, estimators::kNumEstimatorKinds>
      estimator_latency_histograms_{};
  obs::Histogram* ground_truth_stage_histogram_ = nullptr;
  obs::Histogram* estimate_stage_histogram_ = nullptr;
  obs::Histogram* model_stage_histogram_ = nullptr;

  std::unique_ptr<obs::SloMonitor> slo_monitor_;
  /// The module's event time, mirrored for the SLO ticker's event stamps.
  std::atomic<int64_t> stream_time_ms_{0};

  /// Estimation-quality plane (null when quality.enabled is false).
  std::unique_ptr<obs::ErrorAccountant> error_accountant_;
  std::unique_ptr<obs::DriftMonitor> drift_monitor_;
  std::unique_ptr<obs::SwitchAuditTrail> audit_trail_;

  /// Drift series handles, resolved once at construction.
  std::array<obs::DriftMonitor::SeriesId, estimators::kNumEstimatorKinds>
      error_series_{};
  obs::DriftMonitor::SeriesId vocab_churn_series_ = 0;
  obs::DriftMonitor::SeriesId centroid_series_ = 0;

  /// (kind, accuracy) pairs of the last query, for audit resolution.
  std::vector<std::pair<int32_t, double>> measured_;

  /// Ingest-feature drift state: per-slice keyword vocabulary and
  /// spatial centroid accumulators, folded into the drift monitor at
  /// slice rotation.
  std::unordered_map<stream::KeywordId, uint64_t> vocab_last_slice_;
  uint64_t ingest_slice_index_ = 0;
  uint64_t slice_distinct_keywords_ = 0;
  uint64_t slice_new_keywords_ = 0;
  double slice_sum_x_ = 0.0;
  double slice_sum_y_ = 0.0;
  uint64_t slice_objects_ = 0;
  bool centroid_initialized_ = false;
  double centroid_x_ = 0.0;
  double centroid_y_ = 0.0;

  /// Declared last so it stops before the components it serves.
  std::unique_ptr<obs::IntrospectionServer> introspection_;
};

}  // namespace latest::core

#endif  // LATEST_CORE_MODULE_OBSERVER_H_
