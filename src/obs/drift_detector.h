// Online drift detection over error and ingest-feature series.
//
// Two complementary detectors per monitored series:
//
//   * Page–Hinkley: a CUSUM-style test on the deviation of each sample
//     from the running mean. Cheap (O(1) state), fast on abrupt steps,
//     parameterised by a tolerated slack `delta` and a decision
//     threshold `lambda`.
//   * AdwinLite: an ADWIN-flavoured adaptive window — a bounded ring of
//     recent samples, repeatedly split into "older | recent" halves at
//     exponentially spaced cut points; a drift fires when any split's
//     sub-window means differ by more than the Hoeffding bound
//     eps = sqrt(ln(2/confidence)/2 * (1/n0 + 1/n1)). Slower to react
//     than PH on big steps but catches slow ramps PH's slack absorbs,
//     and self-tunes to the series variance.
//
// DriftMonitor multiplexes registered series over both detectors, emits one
// kDriftDetected event per firing (with a cooldown so a sustained shift
// does not spam the log), exports `latest_drift_*` metrics, and exposes
// an `active drift` gauge that DefaultLatestSloRules thresholds —
// "active" decays after `cooldown_ticks` samples so the SLO recovers
// once the series has been stable again, unlike a latched counter.
//
// Strictly observational: detections never feed back into lifecycle
// decisions (determinism contract), they only page humans and SLOs.

#ifndef LATEST_OBS_DRIFT_DETECTOR_H_
#define LATEST_OBS_DRIFT_DETECTOR_H_

#include <cstdint>
#include <deque>
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
class PageHinkley {
 public:
  /// `delta` is the tolerated per-sample slack (shifts smaller than
  /// delta never fire); `lambda` the cumulative-deviation threshold;
  /// `min_samples` suppresses detections before the mean has settled.
  ///
  /// The cumulative statistic under a stationary series is a reflected
  /// random walk whose excursions scale like sigma^2 / (2 * delta), so
  /// lambda must sit well above that to keep the false-positive rate
  /// negligible. The defaults tolerate uniform +/-0.05 sample noise
  /// (sigma ~= 0.029, expected excursion ~= 0.04) while a 0.3+ mean
  /// step still accumulates fast enough to fire within a handful of
  /// samples.
  PageHinkley(double delta = 0.01, double lambda = 0.5,
              uint64_t min_samples = 30);

  /// Folds one sample; true when a drift is detected by this sample.
  bool Update(double value);

  void Reset();

  uint64_t samples() const { return samples_; }
  double mean() const { return mean_; }
  /// Current cumulative test statistic (m_t - M_t).
  double statistic() const { return cumulative_ - minimum_; }

 private:
  const double delta_;
  const double lambda_;
  const uint64_t min_samples_;
  uint64_t samples_ = 0;
  double mean_ = 0.0;
  double cumulative_ = 0.0;
  double minimum_ = 0.0;
};

/// ADWIN-style adaptive window over a bounded sample ring.
class AdwinLite {
 public:
  /// `confidence` is the Hoeffding delta (smaller = fewer false
  /// positives); `max_window` bounds memory; `min_samples` the smallest
  /// window checked for a cut.
  AdwinLite(double confidence = 0.002, size_t max_window = 256,
            uint64_t min_samples = 32);

  /// Folds one sample; true when the window was cut (drift). On
  /// detection the stale prefix is discarded, so the detector re-arms
  /// on the post-change distribution automatically.
  bool Update(double value);

  size_t window_size() const { return window_.size(); }
  double window_mean() const;

 private:
  const double confidence_;
  const size_t max_window_;
  const uint64_t min_samples_;
  std::deque<double> window_;
  double window_sum_ = 0.0;
  uint64_t samples_ = 0;
};

/// A detection, as reported by DriftMonitor::Drains.
struct DriftDetection {
  std::string series;
  /// "page_hinkley" or "adwin".
  std::string detector;
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

/// Multiplexes named series over PH + AdwinLite pairs, with cooldown,
/// events, and metrics. Thread-safe.
class DriftMonitor {
 public:
  struct Options {
    double ph_delta = 0.01;
    double ph_lambda = 0.5;
    uint64_t ph_min_samples = 30;
    double adwin_confidence = 0.002;
    size_t adwin_max_window = 256;
    uint64_t adwin_min_samples = 32;
    /// Samples after a detection during which further detections on the
    /// same series are coalesced and `active` stays raised.
    uint64_t cooldown_samples = 64;
  };

  DriftMonitor();
  explicit DriftMonitor(Options options);

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
    AdwinLite adwin;
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

  const Options options_;
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
