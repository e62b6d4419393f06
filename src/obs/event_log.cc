#include "obs/event_log.h"

#include <algorithm>
#include <cstdio>

#include "estimators/estimator.h"
#include "obs/metrics_registry.h"

namespace latest::obs {

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kPhaseChanged:
      return "phase_changed";
    case EventType::kAccuracyBelowPrefillThreshold:
      return "accuracy_below_prefill_threshold";
    case EventType::kAccuracyBelowSwitchThreshold:
      return "accuracy_below_switch_threshold";
    case EventType::kAccuracyRecovered:
      return "accuracy_recovered";
    case EventType::kPrefillStarted:
      return "prefill_started";
    case EventType::kPrefillAborted:
      return "prefill_aborted";
    case EventType::kSwitched:
      return "switched";
    case EventType::kModelRetrained:
      return "model_retrained";
    case EventType::kSloBreached:
      return "slo_breached";
    case EventType::kSloRecovered:
      return "slo_recovered";
    case EventType::kDriftDetected:
      return "drift_detected";
  }
  return "unknown";
}

EventSeverity SeverityOf(EventType type) {
  switch (type) {
    case EventType::kPhaseChanged:
    case EventType::kAccuracyRecovered:
    case EventType::kPrefillStarted:
    case EventType::kPrefillAborted:
    case EventType::kSwitched:
    case EventType::kModelRetrained:
    case EventType::kSloRecovered:
      return EventSeverity::kInfo;
    case EventType::kAccuracyBelowPrefillThreshold:
    case EventType::kAccuracyBelowSwitchThreshold:
    case EventType::kDriftDetected:
      return EventSeverity::kWarning;
    case EventType::kSloBreached:
      return EventSeverity::kError;
  }
  return EventSeverity::kInfo;
}

const char* SeverityName(EventSeverity severity) {
  switch (severity) {
    case EventSeverity::kInfo:
      return "info";
    case EventSeverity::kWarning:
      return "warning";
    case EventSeverity::kError:
      return "error";
  }
  return "unknown";
}

bool ParseSeverity(const std::string& text, EventSeverity* out) {
  for (size_t i = 0; i < kNumEventSeverities; ++i) {
    const EventSeverity severity = static_cast<EventSeverity>(i);
    if (text == SeverityName(severity)) {
      *out = severity;
      return true;
    }
  }
  return false;
}

EventLog::EventLog(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void EventLog::AttachMetrics(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  appended_counter_ = registry->GetCounter(
      "latest_events_appended_total",
      "Lifecycle events appended to the bounded event log");
  dropped_counter_ = registry->GetCounter(
      "latest_events_dropped_total",
      "Lifecycle events overwritten by ring wraparound (lost to export)");
}

void EventLog::Append(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    const size_t lost = static_cast<size_t>(SeverityOf(ring_[next_].type));
    ++dropped_by_severity_[lost];
    ring_[next_] = event;
    if (dropped_counter_ != nullptr) dropped_counter_->Increment();
  }
  if (appended_counter_ != nullptr) appended_counter_->Increment();
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t EventLog::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t EventLog::dropped_by_severity(EventSeverity severity) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_by_severity_[static_cast<size_t>(severity)];
}

std::vector<Event> EventLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // `next_` points at the oldest entry once the ring has wrapped.
    out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<ptrdiff_t>(next_));
  }
  return out;
}

std::vector<Event> EventLog::SnapshotOfType(EventType type) const {
  std::vector<Event> all = Snapshot();
  std::vector<Event> out;
  for (const Event& event : all) {
    if (event.type == type) out.push_back(event);
  }
  return out;
}

std::vector<Event> EventLog::SnapshotOfSeverity(EventSeverity severity) const {
  std::vector<Event> all = Snapshot();
  std::vector<Event> out;
  for (const Event& event : all) {
    if (SeverityOf(event.type) == severity) out.push_back(event);
  }
  return out;
}

namespace {

const char* PhaseLabel(int32_t phase) {
  switch (phase) {
    case 0:
      return "warmup";
    case 1:
      return "pretraining";
    case 2:
      return "incremental";
  }
  return "unknown";
}

const char* KindLabel(int32_t kind) {
  if (kind < 0 ||
      kind >= static_cast<int32_t>(estimators::kNumEstimatorKinds)) {
    return "-";
  }
  return estimators::EstimatorKindName(
      static_cast<estimators::EstimatorKind>(kind));
}

}  // namespace

std::string FormatEvent(const Event& event) {
  char line[256];
  switch (event.type) {
    case EventType::kPhaseChanged:
      std::snprintf(line, sizeof(line),
                    "[t=%lld q=%llu] phase_changed %s -> %s",
                    static_cast<long long>(event.timestamp),
                    static_cast<unsigned long long>(event.query_count),
                    PhaseLabel(static_cast<int32_t>(event.detail)),
                    PhaseLabel(event.phase));
      break;
    case EventType::kSwitched:
      std::snprintf(line, sizeof(line),
                    "[t=%lld q=%llu] switched %s -> %s "
                    "(monitor_accuracy=%.3f, recommended=%s)",
                    static_cast<long long>(event.timestamp),
                    static_cast<unsigned long long>(event.query_count),
                    KindLabel(event.from_estimator),
                    KindLabel(event.to_estimator), event.monitor_accuracy,
                    KindLabel(event.recommended));
      break;
    case EventType::kPrefillStarted:
    case EventType::kPrefillAborted:
      std::snprintf(line, sizeof(line),
                    "[t=%lld q=%llu] %s candidate=%s "
                    "(active=%s, monitor_accuracy=%.3f)",
                    static_cast<long long>(event.timestamp),
                    static_cast<unsigned long long>(event.query_count),
                    EventTypeName(event.type), KindLabel(event.to_estimator),
                    KindLabel(event.from_estimator), event.monitor_accuracy);
      break;
    case EventType::kAccuracyBelowPrefillThreshold:
    case EventType::kAccuracyBelowSwitchThreshold:
    case EventType::kAccuracyRecovered:
      std::snprintf(line, sizeof(line),
                    "[t=%lld q=%llu] %s threshold=%.3f "
                    "monitor_accuracy=%.3f (active=%s)",
                    static_cast<long long>(event.timestamp),
                    static_cast<unsigned long long>(event.query_count),
                    EventTypeName(event.type), event.detail,
                    event.monitor_accuracy, KindLabel(event.from_estimator));
      break;
    case EventType::kModelRetrained:
      std::snprintf(line, sizeof(line),
                    "[t=%lld q=%llu] %s (mean_error=%.3f)",
                    static_cast<long long>(event.timestamp),
                    static_cast<unsigned long long>(event.query_count),
                    EventTypeName(event.type), event.detail);
      break;
    case EventType::kSloBreached:
    case EventType::kSloRecovered:
      std::snprintf(line, sizeof(line),
                    "[t=%lld q=%llu] %s rule=%s value=%.4f",
                    static_cast<long long>(event.timestamp),
                    static_cast<unsigned long long>(event.query_count),
                    EventTypeName(event.type), event.note.c_str(),
                    event.detail);
      break;
    case EventType::kDriftDetected:
      std::snprintf(line, sizeof(line),
                    "[t=%lld q=%llu] drift_detected series=%s value=%.4f",
                    static_cast<long long>(event.timestamp),
                    static_cast<unsigned long long>(event.query_count),
                    event.note.c_str(), event.detail);
      break;
  }
  return line;
}

std::string FormatEventLog(const EventLog& log) {
  std::string out;
  for (const Event& event : log.Snapshot()) {
    out += FormatEvent(event);
    out += "\n";
  }
  return out;
}

}  // namespace latest::obs
