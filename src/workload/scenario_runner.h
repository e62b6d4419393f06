// Drift-aware scenario replay harness.
//
// ServingConfig builds the module configuration every entry point runs
// (latest_serve in production mode, latest_stream_run and the replay
// harness in shadow mode), so the scenario gates measure the
// configuration that ships.
//
// RunScenario drives a full LATEST lifecycle (warm-up, pre-training,
// incremental) over a ScenarioStream with the shadow-mode ServingConfig
// and measures how the module weathered the scenario's injected drifts:
//
//   * accuracy trajectory — per-window-slice mean active-estimator
//     accuracy over the incremental phase;
//   * detection delay — answered queries between each injection's onset
//     and the first matching drift detection (ingest centroid series for
//     spatial injections, vocabulary-churn series for vocab injections);
//   * time-to-recover — window slices between an injection settling and
//     the slice-mean accuracy being back at/above tau;
//   * switch count, audit-trail counterfactual regret, tau hit rate;
//   * (validate_predictions mode) mean absolute error of the
//     scoreboard's predicted accuracy/latency against the realized
//     shadow measurements — the DeepSampling-style calibration check.
//
// The outcome carries the scenario's acceptance-gate verdict and a
// deterministic state digest CRC; ToResultJson renders the RESULT_JSON
// line consumed by tools/latest_scenario_run, the CI scenario matrix,
// and scripts/bench_regress.py.

#ifndef LATEST_WORKLOAD_SCENARIO_RUNNER_H_
#define LATEST_WORKLOAD_SCENARIO_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/latest_module.h"
#include "util/status.h"
#include "workload/scenario.h"

namespace latest::workload {

/// Which estimators a served module maintains.
enum class ServingMode {
  /// Only the active estimator and a pre-filling candidate (Section
  /// V-C/V-D): what latest_serve deploys.
  kProduction,
  /// Every enabled estimator maintained and measured per query: the
  /// paper's evaluation mode, which the scenario gates measure.
  kShadow,
};

/// The serving-shape module configuration every entry point runs: the
/// spec's bounds and seed, a 1 s window in 10 slices, pre-train and
/// hysteresis windows short enough to reach the incremental phase within
/// laptop-scale streams, H4096 as the default estimator, and alpha = 0 so
/// wall clock stays out of every decision. Deployment settings
/// (introspection, SLO ticker cadence) are the caller's.
core::LatestConfig ServingConfig(const ScenarioSpec& spec, ServingMode mode);

/// Per-injection verdict of one replay.
struct InjectionOutcome {
  DriftInjection injection;
  /// True when a matching drift detection fired at/after the onset.
  bool detected = false;
  /// Answered queries between the onset and the first matching
  /// detection (valid when `detected`).
  uint64_t detection_delay_queries = 0;
  /// True when some slice at/after the injection settled had its mean
  /// active accuracy at/above tau.
  bool recovered = false;
  /// Slices from settling until that first healthy slice (0 = accuracy
  /// never dipped below tau after the injection; valid when
  /// `recovered`).
  int64_t recover_slices = 0;
};

/// Everything one replay measured.
struct ScenarioOutcome {
  ScenarioSpec spec;
  ScenarioGate gate;

  uint64_t objects = 0;
  uint64_t queries = 0;
  uint64_t incremental_queries = 0;
  /// Mean active-estimator accuracy over the incremental phase.
  double mean_accuracy = 0.0;
  /// Fraction of incremental queries with active accuracy >= tau.
  double tau_hit_rate = 0.0;
  double tau = 0.0;
  uint64_t switches = 0;
  /// Non-coalesced drift detections across all monitored series.
  uint64_t drift_detections = 0;
  uint64_t audit_entries = 0;
  uint64_t audit_resolved = 0;
  double cumulative_regret = 0.0;

  std::vector<InjectionOutcome> injections;

  /// Per-window-slice mean active accuracy over the incremental phase;
  /// slices without queries hold -1.
  std::vector<double> accuracy_trajectory;

  /// DeepSampling-style prediction validation (validate_predictions
  /// mode; 0 samples otherwise). The latency MAE is informational only
  /// — wall clock is not deterministic.
  uint64_t prediction_samples = 0;
  double accuracy_prediction_mae = 0.0;
  double latency_prediction_mae_ms = 0.0;

  /// CRC-32 of the module's deterministic lifecycle digest.
  uint32_t state_crc = 0;

  bool gates_passed = true;
  std::vector<std::string> gate_failures;

  /// Worst detection delay over detected injections (0 when none).
  uint64_t DetectionDelayMax() const;
  /// Worst recovery over recovered injections (0 when none).
  int64_t RecoverSlicesMax() const;
  /// True when every gated (spatial/vocab) injection was detected.
  bool AllDetected() const;
  /// True when every injection recovered.
  bool AllRecovered() const;
};

/// Replays one scenario end-to-end. Fails with InvalidArgument on a bad
/// spec and propagates module-creation errors.
util::Result<ScenarioOutcome> RunScenario(const ScenarioCatalogEntry& entry);

/// The single-line RESULT_JSON payload (without the "RESULT_JSON "
/// prefix) for dashboards, CI gates, and bench_regress tolerance bands.
std::string ToResultJson(const ScenarioOutcome& outcome);

}  // namespace latest::workload

#endif  // LATEST_WORKLOAD_SCENARIO_RUNNER_H_
