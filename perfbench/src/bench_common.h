// Shared pieces of the serve-plane benchmark: the workload table, the
// module and batcher configuration every program builds from it, the
// seeded event source, and small timing/statistics helpers.
//
// The server host, the load generator and the traced layer run all call
// the same functions here, so a workload means the same module shape and
// the same generated events in every process.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/latest_module.h"
#include "net/batcher.h"
#include "workload/scenario.h"

namespace perfbench {

/// Open loop: events are due on the scenario's event-time axis (1 event
/// ms = 1 wall ms), whatever the server does. Closed loop: each
/// connection keeps `window` requests outstanding.
enum class Loop { kOpen, kClosed };

struct Workload {
  const char* name;
  const char* scenario;
  /// Evaluation mode (every estimator measured on every query).
  bool shadow;
  /// Ingest routed through persist::CheckpointManager (WAL on).
  bool wal;
  Loop loop;
  /// Event-time object rate; at 1000 ms windows this is also the number
  /// of live objects per window divided by 1000.
  double objects_per_ms;
  /// Event-time length of one scenario cycle. Later cycles reseed and
  /// continue the event clock.
  int64_t cycle_ms;
  /// Closed loop: outstanding requests per connection.
  uint32_t window;
  /// Event-time range the traced run replays through the layers.
  int64_t trace_from_ms;
  int64_t trace_until_ms;
};

/// The benchmark's workloads. BENCHMARK.json gates the two open-loop
/// ones; the closed-loop ones run the same way but follow the host's
/// instruction rate too closely to gate (perfbench/NOTES.md).
const std::vector<Workload>& Workloads();
/// Null for an unknown name.
const Workload* FindWorkload(std::string_view name);

/// Connections of a timed run: with the server's IO and batch threads,
/// the single client thread makes 3 busy threads on a 4-core machine.
inline constexpr uint32_t kConnections = 4;

/// Unmeasured lead-in of every served run: the module's 1000 ms warm-up
/// window, its 40 pre-training queries, and connection start-up.
inline constexpr int64_t kWarmupMs = 1500;

/// Module configuration of a workload: the latest_serve shape (1000 ms
/// window in 10 slices, alpha = 0, H4096 first, its default module seed
/// 5), production or evaluation mode. The workload seed only shapes the
/// generated events. Introspection, spans and the profiler stay off.
latest::core::LatestConfig ModuleConfig(const Workload& workload);

/// latest_serve's default admission settings (2000 us tick, 64 queries
/// per batch).
latest::net::BatcherConfig ServeBatcherConfig();

/// The workload's stream: its catalog scenario, sized to
/// objects_per_ms * cycle, repeated with a fresh seed per cycle. The
/// first cycle (warm-up and pre-training) is the same for every seed;
/// later cycles are drawn from `seed`. Event time and object ids keep
/// increasing across cycles.
class EventSource {
 public:
  EventSource(const Workload& workload, uint64_t seed);

  latest::workload::ScenarioEvent Next();

 private:
  void StartCycle();

  const Workload& workload_;
  const uint64_t seed_;
  const uint64_t objects_per_cycle_;
  uint64_t cycle_ = 0;
  std::unique_ptr<latest::workload::ScenarioStream> stream_;
};

/// Every event of the source with timestamp below `until_ms`.
std::vector<latest::workload::ScenarioEvent> EventsUntil(
    const Workload& workload, uint64_t seed, int64_t until_ms);

/// steady_clock nanoseconds (CLOCK_MONOTONIC, shared across processes).
int64_t NowNs();

/// User + system CPU time of this process, microseconds.
int64_t ProcessCpuUs();

/// Nearest-rank quantile; reorders `values`. 0 for an empty sample.
double Quantile(std::vector<double>* values, double q);

/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& values);

/// Appends `"key": value` pairs to a flat JSON object under construction.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value);
  JsonObject& Raw(std::string_view key, std::string_view json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
