#include "obs/telemetry.h"

namespace latest::obs {

Telemetry::Telemetry() : events_(kEventLogCapacity) {
  events_.AttachMetrics(&registry_);
}

}  // namespace latest::obs
