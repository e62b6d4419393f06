#include "obs/drift_detector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/event_log.h"
#include "obs/metrics_registry.h"

namespace latest::obs {

PageHinkley::PageHinkley(double delta, double lambda, uint64_t min_samples)
    : delta_(delta), lambda_(lambda), min_samples_(std::max<uint64_t>(2, min_samples)) {}

bool PageHinkley::Update(double value) {
  ++samples_;
  mean_ += (value - mean_) / static_cast<double>(samples_);
  // Deviation above the running mean, minus the tolerated slack. The
  // cumulative sum only grows while samples sit persistently above the
  // historical mean; its running minimum anchors the test.
  cumulative_ += value - mean_ - delta_;
  minimum_ = std::min(minimum_, cumulative_);
  if (samples_ < min_samples_) return false;
  return cumulative_ - minimum_ > lambda_;
}

void PageHinkley::Reset() {
  samples_ = 0;
  mean_ = 0.0;
  cumulative_ = 0.0;
  minimum_ = 0.0;
}

AdwinLite::AdwinLite(double confidence, size_t max_window,
                     uint64_t min_samples)
    : confidence_(std::clamp(confidence, 1e-9, 0.5)),
      max_window_(std::max<size_t>(8, max_window)),
      min_samples_(std::max<uint64_t>(8, min_samples)) {}

double AdwinLite::window_mean() const {
  return window_.empty()
             ? 0.0
             : window_sum_ / static_cast<double>(window_.size());
}

bool AdwinLite::Update(double value) {
  ++samples_;
  window_.push_back(value);
  window_sum_ += value;
  if (window_.size() > max_window_) {
    window_sum_ -= window_.front();
    window_.pop_front();
  }
  const size_t n = window_.size();
  if (samples_ < min_samples_ || n < 2 * 4) return false;

  // Check exponentially spaced cuts from the recent end: the newest 4,
  // 8, 16, ... samples against everything older. Exponential spacing
  // keeps the per-update cost at O(log n) mean computations while still
  // bracketing any change point within a factor of two.
  double suffix_sum = 0.0;
  size_t suffix_len = 0;
  size_t next_check = 4;
  const double ln_term = std::log(2.0 / confidence_);
  for (size_t i = 0; i < n - 4; ++i) {
    suffix_sum += window_[n - 1 - i];
    ++suffix_len;
    if (suffix_len != next_check) continue;
    next_check *= 2;
    const size_t prefix_len = n - suffix_len;
    const double suffix_mean =
        suffix_sum / static_cast<double>(suffix_len);
    const double prefix_mean = (window_sum_ - suffix_sum) /
                               static_cast<double>(prefix_len);
    const double inv_harmonic = 1.0 / static_cast<double>(suffix_len) +
                                1.0 / static_cast<double>(prefix_len);
    const double eps = std::sqrt(ln_term / 2.0 * inv_harmonic);
    if (std::abs(suffix_mean - prefix_mean) > eps) {
      // Drop the stale prefix: the window restarts on the post-change
      // distribution, which re-arms the detector without a hard reset.
      while (window_.size() > suffix_len) {
        window_sum_ -= window_.front();
        window_.pop_front();
      }
      return true;
    }
  }
  return false;
}

DriftMonitor::DriftMonitor() : DriftMonitor(Options()) {}

DriftMonitor::DriftMonitor(Options options) : options_(options) {}

DriftMonitor::SeriesId DriftMonitor::AddSeries(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].first == name) return static_cast<SeriesId>(i);
  }
  series_.emplace_back(
      name, Series{PageHinkley(options_.ph_delta, options_.ph_lambda,
                               options_.ph_min_samples),
                   AdwinLite(options_.adwin_confidence,
                             options_.adwin_max_window,
                             options_.adwin_min_samples)});
  if (registry_ != nullptr) RegisterSeriesMetricsLocked(&series_.back());
  return static_cast<SeriesId>(series_.size() - 1);
}

void DriftMonitor::RegisterSeriesMetricsLocked(
    std::pair<std::string, Series>* entry) {
  entry->second.detections_counter = registry_->GetCounter(
      "latest_drift_detections_total",
      "Drift detections per monitored series (cooldown-coalesced)",
      {{"series", entry->first}});
  entry->second.active_gauge = registry_->GetGauge(
      "latest_drift_active",
      "1 while the series is inside its post-detection cooldown",
      {{"series", entry->first}});
}

void DriftMonitor::AttachMetrics(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  registry_ = registry;
  active_series_gauge_ = registry->GetGauge(
      "latest_drift_active_series",
      "Monitored series currently inside their post-detection cooldown");
  for (auto& entry : series_) RegisterSeriesMetricsLocked(&entry);
}

void DriftMonitor::AttachEventLog(EventLog* event_log) {
  std::lock_guard<std::mutex> lock(mu_);
  event_log_ = event_log;
}

void DriftMonitor::ExportActiveLocked() {
  if (active_series_gauge_ == nullptr) return;
  uint64_t active = 0;
  for (const auto& [name, series] : series_) {
    if (series.cooldown_left > 0) ++active;
  }
  active_series_gauge_->Set(static_cast<double>(active));
}

bool DriftMonitor::Observe(SeriesId id, double value, int64_t timestamp,
                           uint64_t query_count) {
  EventLog* event_log = nullptr;
  Event event;
  bool detected = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    assert(id < series_.size());
    const std::string& series_name = series_[id].first;
    Series* series = &series_[id].second;
    ++series->samples;

    const bool ph_fired = series->ph.Update(value);
    const bool adwin_fired = series->adwin.Update(value);
    if (ph_fired) series->ph.Reset();  // Re-arm on the new regime.

    if (series->cooldown_left > 0) {
      // Coalesce: a sustained shift raises one detection, not one per
      // sample. The cooldown re-extends while detectors keep firing so
      // `active` reflects "still drifting", and decays once quiet.
      --series->cooldown_left;
      if (ph_fired || adwin_fired) {
        series->cooldown_left = options_.cooldown_samples;
      }
      if (series->cooldown_left == 0 && series->active_gauge != nullptr) {
        series->active_gauge->Set(0.0);
      }
      ExportActiveLocked();
      return false;
    }

    if (!ph_fired && !adwin_fired) return false;

    detected = true;
    ++series->detections;
    series->cooldown_left = options_.cooldown_samples;
    if (series->detections_counter != nullptr) {
      series->detections_counter->Increment();
    }
    if (series->active_gauge != nullptr) series->active_gauge->Set(1.0);
    ExportActiveLocked();

    DriftDetection detection;
    detection.series = series_name;
    detection.detector = ph_fired ? "page_hinkley" : "adwin";
    detection.value = value;
    detection.sample_index = series->samples;
    detection.timestamp = timestamp;
    detection.query_count = query_count;
    pending_.push_back(detection);

    if (event_log_ != nullptr) {
      event.type = EventType::kDriftDetected;
      event.timestamp = timestamp;
      event.query_count = query_count;
      event.detail = value;
      event.note = series_name + "/" + detection.detector;
      event_log = event_log_;
    }
  }
  // Append outside mu_ (the event log has its own lock; keeps lock
  // ordering trivially acyclic).
  if (event_log != nullptr) event_log->Append(event);
  return detected;
}

std::vector<DriftDetection> DriftMonitor::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DriftDetection> out;
  out.swap(pending_);
  return out;
}

uint64_t DriftMonitor::detections(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [existing, series] : series_) {
    if (existing == name) return series.detections;
  }
  return 0;
}

uint64_t DriftMonitor::active_series() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t active = 0;
  for (const auto& [name, series] : series_) {
    if (series.cooldown_left > 0) ++active;
  }
  return active;
}

}  // namespace latest::obs
