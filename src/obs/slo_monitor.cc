#include "obs/slo_monitor.h"

#include <algorithm>
#include <cstdio>

namespace latest::obs {

SloMonitor::SloMonitor(MetricsRegistry* registry, EventLog* events)
    : registry_(registry), events_(events) {
  degraded_gauge_ = registry_->GetGauge(
      "latest_slo_degraded",
      "1 while at least one SLO rule is breached (drives /healthz)");
  rules_gauge_ = registry_->GetGauge("latest_slo_rules",
                                    "Number of installed SLO rules");
}

void SloMonitor::AddRule(const SloRule& rule) {
  RuleEntry entry;
  entry.state.rule = rule;
  entry.breached_gauge = registry_->GetGauge(
      "latest_slo_breached", "1 while this SLO rule is breached",
      {{"rule", rule.name}});
  entry.breaches_counter = registry_->GetCounter(
      "latest_slo_breaches_total", "Breach transitions of this SLO rule",
      {{"rule", rule.name}});
  std::lock_guard<std::mutex> lock(mu_);
  rules_.push_back(std::move(entry));
  rules_gauge_->Set(static_cast<double>(rules_.size()));
}

bool SloMonitor::ReadValue(const SloRule& rule, double* out) const {
  switch (rule.source) {
    case SloRule::Source::kGauge: {
      const Gauge* gauge = registry_->FindGauge(rule.metric, rule.labels);
      if (gauge == nullptr) return false;
      *out = gauge->value();
      return true;
    }
    case SloRule::Source::kCounter: {
      const Counter* counter = registry_->FindCounter(rule.metric, rule.labels);
      if (counter == nullptr) return false;
      *out = static_cast<double>(counter->value());
      return true;
    }
    case SloRule::Source::kHistogramQuantile: {
      const Histogram* histogram =
          registry_->FindHistogram(rule.metric, rule.labels);
      if (histogram == nullptr || histogram->count() == 0) return false;
      *out = histogram->Quantile(rule.quantile);
      return true;
    }
  }
  return false;
}

size_t SloMonitor::EvaluateAll(int64_t timestamp, uint64_t query_count) {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  size_t breached_now = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (RuleEntry& entry : rules_) {
    SloRuleState& state = entry.state;
    double value = 0.0;
    state.has_value = ReadValue(state.rule, &value);
    if (state.has_value) state.last_value = value;

    bool bad = false;
    if (state.has_value) {
      bad = state.rule.op == SloRule::Op::kBelow
                ? value < state.rule.threshold
                : value > state.rule.threshold;
    }
    state.consecutive_bad = bad ? state.consecutive_bad + 1 : 0;

    const uint32_t debounce = std::max<uint32_t>(1, state.rule.for_ticks);
    const bool breached = state.consecutive_bad >= debounce;
    if (breached && !state.breached) {
      ++state.breaches;
      entry.breaches_counter->Increment();
      if (events_ != nullptr) {
        Event event;
        event.type = EventType::kSloBreached;
        event.timestamp = timestamp;
        event.query_count = query_count;
        event.detail = state.last_value;
        event.note = state.rule.name;
        events_->Append(event);
      }
    } else if (!breached && state.breached) {
      if (events_ != nullptr) {
        Event event;
        event.type = EventType::kSloRecovered;
        event.timestamp = timestamp;
        event.query_count = query_count;
        event.detail = state.last_value;
        event.note = state.rule.name;
        events_->Append(event);
      }
    }
    state.breached = breached;
    entry.breached_gauge->Set(breached ? 1.0 : 0.0);
    if (breached) ++breached_now;
  }
  degraded_.store(breached_now > 0, std::memory_order_relaxed);
  degraded_gauge_->Set(breached_now > 0 ? 1.0 : 0.0);
  return breached_now;
}

std::vector<std::string> SloMonitor::BreachedRules() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const RuleEntry& entry : rules_) {
    if (entry.state.breached) out.push_back(entry.state.rule.name);
  }
  return out;
}

std::vector<SloRuleState> SloMonitor::States() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloRuleState> out;
  out.reserve(rules_.size());
  for (const RuleEntry& entry : rules_) out.push_back(entry.state);
  return out;
}

std::vector<SloRule> DefaultLatestSloRules(double tau, double p99_latency_ms,
                                           double max_wal_lag_records,
                                           double max_resident_slices,
                                           double max_active_drift) {
  std::vector<SloRule> rules;
  if (tau > 0.0) {
    SloRule accuracy;
    accuracy.name = "monitor_accuracy";
    accuracy.metric = "latest_monitor_accuracy";
    accuracy.source = SloRule::Source::kGauge;
    accuracy.op = SloRule::Op::kBelow;
    accuracy.threshold = tau;
    accuracy.for_ticks = 3;
    char desc[128];
    std::snprintf(desc, sizeof(desc),
                  "moving-average estimate accuracy below tau=%.3f", tau);
    accuracy.description = desc;
    rules.push_back(std::move(accuracy));
  }
  if (p99_latency_ms > 0.0) {
    SloRule latency;
    latency.name = "estimate_p99_latency";
    latency.metric = "latest_stage_latency_ms";
    latency.labels = {{"stage", "estimate"}};
    latency.source = SloRule::Source::kHistogramQuantile;
    latency.quantile = 0.99;
    latency.op = SloRule::Op::kAbove;
    latency.threshold = p99_latency_ms;
    latency.for_ticks = 2;
    char desc[128];
    std::snprintf(desc, sizeof(desc),
                  "p99 estimate-stage latency above %.1fms", p99_latency_ms);
    latency.description = desc;
    rules.push_back(std::move(latency));
  }
  if (max_wal_lag_records > 0.0) {
    SloRule wal;
    wal.name = "wal_replay_lag";
    wal.metric = "persist_wal_lag_records";
    wal.source = SloRule::Source::kGauge;
    wal.op = SloRule::Op::kAbove;
    wal.threshold = max_wal_lag_records;
    wal.for_ticks = 2;
    char desc[128];
    std::snprintf(desc, sizeof(desc),
                  "WAL records past the last snapshot above %.0f "
                  "(recovery time at risk)",
                  max_wal_lag_records);
    wal.description = desc;
    rules.push_back(std::move(wal));
  }
  if (max_resident_slices > 0.0) {
    SloRule slices;
    slices.name = "resident_slices";
    slices.metric = "latest_store_slices_resident";
    slices.source = SloRule::Source::kGauge;
    slices.op = SloRule::Op::kAbove;
    slices.threshold = max_resident_slices;
    slices.for_ticks = 2;
    char desc[128];
    std::snprintf(desc, sizeof(desc),
                  "resident window slices above %.0f (eviction stalled)",
                  max_resident_slices);
    slices.description = desc;
    rules.push_back(std::move(slices));
  }
  if (max_active_drift >= 0.0) {
    SloRule drift;
    drift.name = "drift_active";
    drift.metric = "latest_drift_active_series";
    drift.source = SloRule::Source::kGauge;
    drift.op = SloRule::Op::kAbove;
    drift.threshold = max_active_drift;
    drift.for_ticks = 1;
    char desc[128];
    std::snprintf(desc, sizeof(desc),
                  "more than %.0f monitored series in active drift "
                  "(error or ingest distribution shifted)",
                  max_active_drift);
    drift.description = desc;
    rules.push_back(std::move(drift));
  }
  return rules;
}

std::vector<SloRule> ServeSloRules(double p99_query_latency_ms,
                                   double max_query_queue_depth) {
  std::vector<SloRule> rules;
  if (p99_query_latency_ms > 0.0) {
    SloRule latency;
    latency.name = "serve_p99_latency";
    latency.metric = "latest_serve_query_latency_ms";
    latency.source = SloRule::Source::kHistogramQuantile;
    latency.quantile = 0.99;
    latency.op = SloRule::Op::kAbove;
    latency.threshold = p99_query_latency_ms;
    latency.for_ticks = 2;
    char desc[128];
    std::snprintf(desc, sizeof(desc),
                  "p99 serve admission-to-response latency above %.1fms",
                  p99_query_latency_ms);
    latency.description = desc;
    rules.push_back(std::move(latency));
  }
  if (max_query_queue_depth > 0.0) {
    SloRule depth;
    depth.name = "serve_query_queue";
    depth.metric = "latest_serve_queue_depth";
    depth.labels = {{"class", "query"}};
    depth.source = SloRule::Source::kGauge;
    depth.op = SloRule::Op::kAbove;
    depth.threshold = max_query_queue_depth;
    depth.for_ticks = 1;
    char desc[128];
    std::snprintf(desc, sizeof(desc),
                  "serve query admission queue above %.0f "
                  "(batch thread falling behind)",
                  max_query_queue_depth);
    depth.description = desc;
    rules.push_back(std::move(depth));
  }
  return rules;
}

}  // namespace latest::obs
