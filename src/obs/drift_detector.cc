#include "obs/drift_detector.h"

#include <algorithm>
#include <cassert>

#include "obs/event_log.h"
#include "obs/metrics_registry.h"

namespace latest::obs {

namespace {

// The settings the scenario gates' detection-delay bounds were tuned
// with. The gradual scenarios (centroid_drift, vocab_churn) raise the
// cumulative statistic to ~0.4 before their ramps settle, so lambda sits
// at 0.35, still ~100x above the stationary ingest series' noise
// excursions (sigma^2 / (2 delta)).
constexpr double kDelta = 0.01;   // Tolerated per-sample slack.
constexpr double kLambda = 0.35;  // Cumulative-deviation threshold.
constexpr uint64_t kMinSamples = 30;
/// Samples after a detection during which further detections on the
/// same series are coalesced and `active` stays raised.
constexpr uint64_t kCooldownSamples = 64;

}  // namespace

bool PageHinkley::Update(double value) {
  ++samples_;
  mean_ += (value - mean_) / static_cast<double>(samples_);
  // Deviation above the running mean, minus the tolerated slack. The
  // cumulative sum only grows while samples sit persistently above the
  // historical mean; its running minimum anchors the test.
  cumulative_ += value - mean_ - kDelta;
  minimum_ = std::min(minimum_, cumulative_);
  if (samples_ < kMinSamples) return false;
  return cumulative_ - minimum_ > kLambda;
}

void PageHinkley::Reset() {
  samples_ = 0;
  mean_ = 0.0;
  cumulative_ = 0.0;
  minimum_ = 0.0;
}

DriftMonitor::SeriesId DriftMonitor::AddSeries(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].first == name) return static_cast<SeriesId>(i);
  }
  series_.emplace_back(name, Series{});
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

    const bool fired = series->ph.Update(value);
    if (fired) series->ph.Reset();  // Re-arm on the new regime.

    if (series->cooldown_left > 0) {
      // Coalesce: a sustained shift raises one detection, not one per
      // sample. The cooldown re-extends while the detector keeps firing so
      // `active` reflects "still drifting", and decays once quiet.
      --series->cooldown_left;
      if (fired) series->cooldown_left = kCooldownSamples;
      if (series->cooldown_left == 0 && series->active_gauge != nullptr) {
        series->active_gauge->Set(0.0);
      }
      ExportActiveLocked();
      return false;
    }

    if (!fired) return false;

    detected = true;
    ++series->detections;
    series->cooldown_left = kCooldownSamples;
    if (series->detections_counter != nullptr) {
      series->detections_counter->Increment();
    }
    if (series->active_gauge != nullptr) series->active_gauge->Set(1.0);
    ExportActiveLocked();

    DriftDetection detection;
    detection.series = series_name;
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
      event.note = series_name;
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
