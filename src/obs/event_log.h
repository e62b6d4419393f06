// Structured event log of the LATEST lifecycle.
//
// The switch log of the original module answered "when did LATEST
// switch"; an operator also needs "why": which thresholds were crossed,
// what the learning model recommended, which pre-fills were started and
// then abandoned, and when the model was dropped for retraining. Every
// lifecycle decision appends one typed Event to a bounded ring; the ring
// overwrites its oldest entries so a long-running deployment holds the
// recent decision history at a fixed memory cost.

#ifndef LATEST_OBS_EVENT_LOG_H_
#define LATEST_OBS_EVENT_LOG_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace latest::obs {

class Counter;          // obs/metrics_registry.h
class MetricsRegistry;  // obs/metrics_registry.h

/// Lifecycle event kinds, ordered roughly by when they appear in a
/// stream's life.
enum class EventType : uint32_t {
  /// Phase machine advanced (warmup -> pretraining -> incremental).
  kPhaseChanged = 0,
  /// Moving accuracy fell below the pre-fill threshold tau/beta.
  kAccuracyBelowPrefillThreshold = 1,
  /// Moving accuracy fell below the switch threshold tau.
  kAccuracyBelowSwitchThreshold = 2,
  /// Moving accuracy recovered above the pre-fill threshold.
  kAccuracyRecovered = 3,
  /// A replacement estimator started pre-filling (Section V-D).
  kPrefillStarted = 4,
  /// Accuracy recovered before the switch fired; candidate discarded.
  kPrefillAborted = 5,
  /// The active estimator was switched.
  kSwitched = 6,
  /// The automatic retraining trigger dropped the learning model.
  kModelRetrained = 7,
  /// A declarative SLO rule started breaching (obs/slo_monitor.h).
  kSloBreached = 9,
  /// A breached SLO rule returned inside its threshold.
  kSloRecovered = 10,
  /// A drift detector fired over an error or ingest-feature series
  /// (obs/drift_detector.h). `note` names the series.
  kDriftDetected = 11,
};

/// Stable display name ("phase_changed", "prefill_started", ...).
const char* EventTypeName(EventType type);

/// Coarse severity classes for filtering the event stream. Each
/// EventType maps to exactly one severity (SeverityOf), so severity is
/// derived, never stored.
enum class EventSeverity : uint32_t {
  kInfo = 0,     // Routine lifecycle progress (phase change, recovery).
  kWarning = 1,  // Degradation signals (threshold crossings, drift).
  kError = 2,    // Breaches (SLO breach).
};

constexpr size_t kNumEventSeverities = 3;

/// The fixed severity class of an event type.
EventSeverity SeverityOf(EventType type);

/// Stable display name ("info", "warning", "error").
const char* SeverityName(EventSeverity severity);

/// Parses a severity name (as produced by SeverityName); returns false
/// on unknown input. Used by the /statusz ?severity= query filter.
bool ParseSeverity(const std::string& text, EventSeverity* out);

/// One lifecycle event. Estimator fields hold EstimatorKind indices, or
/// -1 when not applicable, so the log stays a plain-data type without a
/// dependency on the core module headers.
struct Event {
  EventType type = EventType::kPhaseChanged;
  /// Stream event time (ms) when the event fired.
  int64_t timestamp = 0;
  /// Queries answered over the module lifetime when the event fired.
  uint64_t query_count = 0;
  /// Lifecycle phase at emission (0 warmup, 1 pretraining, 2 incremental).
  int32_t phase = 0;
  /// Estimator the event moves away from (-1 when not applicable).
  int32_t from_estimator = -1;
  /// Estimator the event moves toward (-1 when not applicable).
  int32_t to_estimator = -1;
  /// The learning model's recommendation at decision time (-1 when the
  /// decision did not consult the model).
  int32_t recommended = -1;
  /// Moving-average accuracy of the monitor at emission.
  double monitor_accuracy = 0.0;
  /// Event-specific payload: the crossed threshold for threshold events,
  /// the previous phase for kPhaseChanged, mean error for retrains, the
  /// observed series value for SLO events.
  double detail = 0.0;
  /// Free-form tag: the rule name for SLO events, empty otherwise.
  std::string note;
};

/// Bounded ring of lifecycle events; appends overwrite the oldest entry
/// once `capacity` is reached. Thread-safe (event rates are low).
class EventLog {
 public:
  explicit EventLog(size_t capacity = 1024);

  /// Mirrors append/drop volumes into `latest_events_appended_total` and
  /// `latest_events_dropped_total` so bounded-ring loss is visible on
  /// /metrics instead of silent. The registry must outlive the log.
  void AttachMetrics(MetricsRegistry* registry);

  void Append(const Event& event);

  size_t capacity() const { return capacity_; }

  /// Events currently retained (<= capacity).
  size_t size() const;

  /// Events appended over the log's lifetime, including overwritten ones.
  uint64_t total_appended() const;


  /// Events of one severity overwritten by ring wraparound. Lets the
  /// /statusz severity filter report what its view is missing.
  uint64_t dropped_by_severity(EventSeverity severity) const;

  /// Retained events, oldest first.
  std::vector<Event> Snapshot() const;

  /// Retained events of one type, oldest first.
  std::vector<Event> SnapshotOfType(EventType type) const;

  /// Retained events of one severity, oldest first.
  std::vector<Event> SnapshotOfSeverity(EventSeverity severity) const;

 private:
  mutable std::mutex mu_;
  std::vector<Event> ring_;
  size_t capacity_;
  size_t next_ = 0;     // Ring write position.
  uint64_t total_ = 0;  // Lifetime appends.
  uint64_t dropped_by_severity_[kNumEventSeverities] = {0, 0, 0};
  Counter* appended_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
};

/// One-line human-readable rendering of an event.
std::string FormatEvent(const Event& event);

/// Multi-line rendering of the whole retained log, oldest first.
std::string FormatEventLog(const EventLog& log);

}  // namespace latest::obs

#endif  // LATEST_OBS_EVENT_LOG_H_
