// Online drift detection over error and ingest-feature series.
//
// One test per monitored series: Page-Hinkley, a CUSUM-style test on the
// deviation of each sample from the running mean. O(1) state and O(1)
// work per sample, fast on abrupt steps, and it accumulates slow ramps
// once their rise outpaces the tolerated slack.
//
// DriftMonitor multiplexes registered series over one detector each,
// emits one kDriftDetected event per firing (with a cooldown so a
// sustained shift does not spam the log), exports `latest_drift_*`
// metrics, and exposes an `active drift` gauge that DefaultLatestSloRules
// thresholds — "active" decays after the cooldown so the SLO recovers
// once the series has been stable again, unlike a latched counter.
//
// The detector settings are constants (drift_detector.cc): the scenario
// gates' detection-delay bounds were tuned against them, so every entry
// point runs the detector the gates measure.
//
// Strictly observational: detections never feed back into lifecycle
// decisions (determinism contract), they only page humans and SLOs.

#ifndef LATEST_OBS_DRIFT_DETECTOR_H_
#define LATEST_OBS_DRIFT_DETECTOR_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace latest::obs {

class Counter;          // obs/metrics_registry.h
class Gauge;            // obs/metrics_registry.h
class MetricsRegistry;  // obs/metrics_registry.h
class EventLog;         // obs/event_log.h

/// Page–Hinkley test for upward mean shifts. Reset() after a detection
/// to re-arm.
///
/// The cumulative statistic under a stationary series is a reflected
/// random walk whose excursions scale like sigma^2 / (2 * delta), so the
/// threshold lambda sits well above that: uniform +/-0.05 sample noise
/// (sigma ~= 0.029) excurses ~0.04, while a 0.3+ mean step still
/// accumulates past lambda within a handful of samples. Nothing fires
/// before the running mean has settled over a minimum sample count.
class PageHinkley {
 public:
  /// Folds one sample; true when a drift is detected by this sample.
  bool Update(double value);

  void Reset();

  uint64_t samples() const { return samples_; }

 private:
  uint64_t samples_ = 0;
  double mean_ = 0.0;
  double cumulative_ = 0.0;
  double minimum_ = 0.0;
};

/// A detection, as reported by DriftMonitor::Drains.
struct DriftDetection {
  std::string series;
  /// The sample value that triggered the detection.
  double value = 0.0;
  /// Samples folded into this series when the detection fired.
  uint64_t sample_index = 0;
  /// Stream event time (ms) and lifetime query count passed to Observe —
  /// what the replay harness uses to compute time-to-detect against an
  /// injected drift's onset.
  int64_t timestamp = 0;
  uint64_t query_count = 0;
};

/// Multiplexes named series over one Page-Hinkley test each, with
/// cooldown, events, and metrics. Thread-safe.
class DriftMonitor {
 public:
  /// Handle of a registered series, valid for the monitor's lifetime.
  using SeriesId = uint32_t;

  /// Registers a series and returns its handle. Idempotent: a name
  /// already registered returns its existing handle. Resolve handles
  /// once, off the hot path; Observe then does no name lookup.
  SeriesId AddSeries(const std::string& name);

  /// Exports:
  ///   latest_drift_detections_total{series=...}
  ///   latest_drift_active{series=...}   (1 during cooldown, else 0)
  ///   latest_drift_active_series        (count of series in cooldown)
  /// The registry must outlive the monitor.
  void AttachMetrics(MetricsRegistry* registry);

  /// Events (kDriftDetected) are appended here on detection; optional.
  void AttachEventLog(EventLog* event_log);

  /// Folds one sample into the series `id` (from AddSeries).
  /// `timestamp`/`query_count` annotate the event on detection. Returns
  /// true when a (non-coalesced) drift was detected by this sample.
  bool Observe(SeriesId id, double value, int64_t timestamp = 0,
               uint64_t query_count = 0);

  /// Detections since the last drain, oldest first.
  std::vector<DriftDetection> Drain();

  /// Lifetime detections on one series (coalesced ones excluded).
  uint64_t detections(const std::string& series) const;

  /// Series currently inside their post-detection cooldown.
  uint64_t active_series() const;

 private:
  struct Series {
    PageHinkley ph;
    uint64_t samples = 0;
    uint64_t detections = 0;
    /// Samples remaining in the post-detection cooldown (0 = armed).
    uint64_t cooldown_left = 0;
    Counter* detections_counter = nullptr;
    Gauge* active_gauge = nullptr;
  };

  void ExportActiveLocked();
  /// Creates `entry`'s per-series metrics in registry_ (non-null).
  void RegisterSeriesMetricsLocked(std::pair<std::string, Series>* entry);

  mutable std::mutex mu_;
  // Insertion-ordered so exposition and tests are deterministic.
  std::vector<std::pair<std::string, Series>> series_;
  std::vector<DriftDetection> pending_;
  MetricsRegistry* registry_ = nullptr;
  EventLog* event_log_ = nullptr;
  Gauge* active_series_gauge_ = nullptr;
};

}  // namespace latest::obs

#endif  // LATEST_OBS_DRIFT_DETECTOR_H_
