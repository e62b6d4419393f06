// Telemetry bundle: one metrics registry and one lifecycle event log,
// owned together so instrumented components share a single exposition
// surface.

#ifndef LATEST_OBS_TELEMETRY_H_
#define LATEST_OBS_TELEMETRY_H_

#include <cstddef>

#include "obs/event_log.h"
#include "obs/metrics_registry.h"

namespace latest::obs {

/// Shared observability state of one instrumented module.
class Telemetry {
 public:
  /// Lifecycle events retained (ring; oldest overwritten).
  static constexpr size_t kEventLogCapacity = 1024;

  Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

 private:
  MetricsRegistry registry_;
  EventLog events_;
};

}  // namespace latest::obs

#endif  // LATEST_OBS_TELEMETRY_H_
