// Declarative SLO drift monitors over registry series.
//
// The paper's accuracy monitor — "moving-average accuracy fell below
// beta·tau, start pre-filling" — is one instance of a general pattern:
// watch a time series, compare it against a threshold, debounce, and act
// on the crossing edge. SloMonitor generalizes it to *any* metric the
// registry exports: each SloRule names a series (gauge, counter, or a
// histogram quantile), a comparison, a threshold, and a debounce width in
// evaluation ticks. Crossing edges emit structured kSloBreached /
// kSloRecovered events into the lifecycle EventLog and flip per-rule
// `latest_slo_breached{rule=...}` gauges plus the aggregate
// `latest_slo_degraded` gauge that /healthz serves.
//
// Evaluation is pull-based and thread-safe: call EvaluateAll from a
// ticker thread (the introspection server does this) or from a test —
// rules see the same registry either way. Reading a missing series is
// not an error; the rule reports "no data" and does not breach.

#ifndef LATEST_OBS_SLO_MONITOR_H_
#define LATEST_OBS_SLO_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics_registry.h"

namespace latest::obs {

/// One declarative threshold rule over a registry series.
struct SloRule {
  /// Stable rule id; becomes the `rule` label and the event note.
  std::string name;

  /// Registry family name of the watched series.
  std::string metric;
  /// Label set selecting the instance (empty for unlabeled series).
  LabelSet labels;

  /// How to read the series.
  enum class Source : uint32_t {
    kGauge = 0,
    kCounter = 1,
    /// Interpolated quantile of a histogram family (see `quantile`).
    kHistogramQuantile = 2,
  };
  Source source = Source::kGauge;
  /// Quantile in (0, 1] for kHistogramQuantile (0.99 = p99).
  double quantile = 0.99;

  /// Breach condition: the rule is unhealthy while `value op threshold`.
  enum class Op : uint32_t { kBelow = 0, kAbove = 1 };
  Op op = Op::kBelow;
  double threshold = 0.0;

  /// Consecutive breaching evaluations before the rule fires (debounce).
  uint32_t for_ticks = 1;

  /// Human-readable rationale shown on /statusz.
  std::string description;
};

/// Point-in-time state of one rule.
struct SloRuleState {
  SloRule rule;
  bool has_value = false;   // False when the series does not exist yet.
  double last_value = 0.0;  // Last observed value (when has_value).
  bool breached = false;    // Debounced breach state.
  uint32_t consecutive_bad = 0;  // Current run of breaching evaluations.
  uint64_t breaches = 0;    // Lifetime breach transitions.
};

/// Evaluates a set of SloRules against one registry; emits lifecycle
/// events on breach/recovery edges. Thread-safe.
class SloMonitor {
 public:
  /// Both pointers are borrowed and must outlive the monitor. `events`
  /// may be null (gauges only, no structured records).
  SloMonitor(MetricsRegistry* registry, EventLog* events);
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  void AddRule(const SloRule& rule);

  /// Evaluates every rule once; returns the number currently breached.
  /// `timestamp` (stream event time, ms) and `query_count` (queries
  /// answered so far) stamp the emitted events.
  size_t EvaluateAll(int64_t timestamp = 0, uint64_t query_count = 0);

  /// True while at least one rule is breached (drives /healthz).
  bool degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }

  /// Names of currently-breached rules.
  std::vector<std::string> BreachedRules() const;

  std::vector<SloRuleState> States() const;

  uint64_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

 private:
  struct RuleEntry {
    SloRuleState state;
    Gauge* breached_gauge = nullptr;
    Counter* breaches_counter = nullptr;
  };

  /// Reads the rule's series; false when the series is absent.
  bool ReadValue(const SloRule& rule, double* out) const;

  MetricsRegistry* registry_;
  EventLog* events_;
  mutable std::mutex mu_;
  std::vector<RuleEntry> rules_;
  std::atomic<bool> degraded_{false};
  std::atomic<uint64_t> evaluations_{0};
  Gauge* degraded_gauge_ = nullptr;
  Gauge* rules_gauge_ = nullptr;
};

/// The default rule set for a LATEST deployment: the paper's accuracy
/// monitor (moving accuracy below the switch threshold tau), estimate
/// p99 latency, WAL replay lag, resident-slice growth, and drift
/// (monitored series inside their post-detection cooldown, from
/// obs/drift_detector.h — self-recovering because the gauge decays once
/// the series is stable again). Callers tune or replace per deployment;
/// thresholds <= 0 skip that rule (max_active_drift < 0 skips drift; 0
/// means "any active drift breaches").
std::vector<SloRule> DefaultLatestSloRules(double tau,
                                           double p99_latency_ms = 50.0,
                                           double max_wal_lag_records = 1e6,
                                           double max_resident_slices = 0.0,
                                           double max_active_drift = 0.0);

/// SLO rules for the serving data plane (latest_serve_* series from
/// net/serve_server): p99 admission-to-response latency and query
/// admission queue depth. Breaching either flips /healthz to degraded,
/// which in turn shrinks the serve plane's effective query capacity —
/// the feedback loop that sheds load before the estimation path
/// saturates. Thresholds <= 0 skip that rule.
std::vector<SloRule> ServeSloRules(double p99_query_latency_ms = 250.0,
                                   double max_query_queue_depth = 3072.0);

}  // namespace latest::obs

#endif  // LATEST_OBS_SLO_MONITOR_H_
