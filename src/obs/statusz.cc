#include "obs/statusz.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "estimators/estimator.h"
#include "obs/audit_trail.h"
#include "obs/drift_detector.h"
#include "obs/error_accounting.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/request_trace.h"
#include "obs/slo_monitor.h"
#include "obs/span.h"
#include "obs/trace_export.h"

namespace latest::obs {

namespace {

constexpr std::string_view kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

const char* PhaseName(int32_t phase) {
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

const char* EstimatorName(int32_t kind) {
  if (kind < 0 ||
      kind >= static_cast<int32_t>(estimators::kNumEstimatorKinds)) {
    return "-";
  }
  return estimators::EstimatorKindName(
      static_cast<estimators::EstimatorKind>(kind));
}

double GaugeOr(const MetricsRegistry* registry, std::string_view name,
               double fallback, const LabelSet& labels = {}) {
  const Gauge* gauge = registry->FindGauge(name, labels);
  return gauge != nullptr ? gauge->value() : fallback;
}

double CounterOr(const MetricsRegistry* registry, std::string_view name,
                 double fallback, const LabelSet& labels = {}) {
  const Counter* counter = registry->FindCounter(name, labels);
  return counter != nullptr ? static_cast<double>(counter->value()) : fallback;
}

void AppendF(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  *out += buffer;
}

void AppendHtmlEscaped(std::string* out, std::string_view value) {
  for (char c : value) {
    switch (c) {
      case '<':
        *out += "&lt;";
        break;
      case '>':
        *out += "&gt;";
        break;
      case '&':
        *out += "&amp;";
        break;
      default:
        *out += c;
    }
  }
}

}  // namespace

IntrospectionServer::IntrospectionServer(IntrospectionSources sources,
                                         IntrospectionInfo info)
    : sources_(sources), info_(std::move(info)) {
  server_.Handle("/", [this](const HttpRequest& request) {
    return HandleIndex(request);
  });
  server_.Handle("/metrics", [this](const HttpRequest& request) {
    return HandleMetrics(request);
  });
  server_.Handle("/healthz", [this](const HttpRequest& request) {
    return HandleHealthz(request);
  });
  server_.Handle("/statusz", [this](const HttpRequest& request) {
    return HandleStatusz(request);
  });
  server_.Handle("/tracez", [this](const HttpRequest& request) {
    return HandleTracez(request);
  });
  server_.Handle("/switchz", [this](const HttpRequest& request) {
    return HandleSwitchz(request);
  });
  server_.Handle("/requestz", [this](const HttpRequest& request) {
    return HandleRequestz(request);
  });
  server_.Handle("/profilez", [this](const HttpRequest& request) {
    return HandleProfilez(request);
  });
}

IntrospectionServer::~IntrospectionServer() { Stop(); }

util::Status IntrospectionServer::Start(uint16_t port, uint32_t slo_tick_ms) {
  if (sources_.registry == nullptr) {
    return util::Status::InvalidArgument(
        "IntrospectionServer requires a metrics registry");
  }
  util::Status status = server_.Start(port);
  if (!status.ok()) return status;
  if (slo_tick_ms > 0 && sources_.slo != nullptr) {
    ticker_running_.store(true, std::memory_order_release);
    ticker_ = std::thread([this, slo_tick_ms] { SloTickerLoop(slo_tick_ms); });
  }
  return util::Status::Ok();
}

void IntrospectionServer::Stop() {
  if (ticker_running_.exchange(false, std::memory_order_acq_rel)) {
    if (ticker_.joinable()) ticker_.join();
  }
  server_.Stop();
}

void IntrospectionServer::SloTickerLoop(uint32_t tick_ms) {
  // Sleep in short slices so Stop() never waits a full tick.
  constexpr uint32_t kSliceMs = 20;
  uint32_t elapsed = tick_ms;  // Evaluate immediately on startup.
  while (ticker_running_.load(std::memory_order_acquire)) {
    if (elapsed >= tick_ms) {
      elapsed = 0;
      int64_t timestamp = 0;
      uint64_t query_count = 0;
      if (sources_.event_clock) sources_.event_clock(&timestamp, &query_count);
      sources_.slo->EvaluateAll(timestamp, query_count);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kSliceMs));
    elapsed += kSliceMs;
  }
}

bool IntrospectionServer::degraded() const {
  return sources_.slo != nullptr && sources_.slo->degraded();
}

HttpResponse IntrospectionServer::HandleMetrics(const HttpRequest&) const {
  HttpResponse response;
  response.content_type = std::string(kPrometheusContentType);
  response.body = sources_.registry->PrometheusText();
  return response;
}

HttpResponse IntrospectionServer::HandleHealthz(const HttpRequest&) const {
  const MetricsRegistry* registry = sources_.registry;
  const bool is_degraded = degraded();
  const int32_t phase =
      static_cast<int32_t>(GaugeOr(registry, "latest_phase", -1.0));
  const double wal_lag = GaugeOr(registry, "persist_wal_lag_records", -1.0);

  std::string body = "{\"status\":\"";
  body += is_degraded ? "degraded" : "ok";
  body += "\",\"phase\":\"";
  body += phase >= 0 ? PhaseName(phase) : "unknown";
  body += "\"";
  if (wal_lag >= 0.0) {
    AppendF(&body, ",\"wal_lag_records\":%.0f", wal_lag);
  }
  body += ",\"breached_rules\":[";
  if (sources_.slo != nullptr) {
    bool first = true;
    for (const std::string& rule : sources_.slo->BreachedRules()) {
      if (!first) body += ",";
      first = false;
      body += "\"";
      AppendJsonEscaped(rule, &body);
      body += "\"";
    }
  }
  body += "]}\n";

  HttpResponse response;
  response.status = is_degraded ? 503 : 200;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

HttpResponse IntrospectionServer::HandleStatusz(
    const HttpRequest& request) const {
  const MetricsRegistry* registry = sources_.registry;
  std::string page =
      "<!DOCTYPE html><html><head><title>latest statusz</title></head>"
      "<body><pre>\n";
  AppendF(&page, "=== LATEST introspection: %s ===\n\n",
          info_.instance.c_str());

  // Lifecycle.
  const int32_t phase =
      static_cast<int32_t>(GaugeOr(registry, "latest_phase", -1.0));
  const int32_t active =
      static_cast<int32_t>(GaugeOr(registry, "latest_active_estimator", -1.0));
  const int32_t candidate = static_cast<int32_t>(
      GaugeOr(registry, "latest_candidate_estimator", -1.0));
  const double accuracy = GaugeOr(registry, "latest_monitor_accuracy", 0.0);
  page += "-- lifecycle --\n";
  AppendF(&page, "phase:              %s\n",
          phase >= 0 ? PhaseName(phase) : "unknown");
  AppendF(&page, "active estimator:   %s\n", EstimatorName(active));
  AppendF(&page, "candidate:          %s\n", EstimatorName(candidate));
  AppendF(&page, "monitor accuracy:   %.4f", accuracy);
  if (info_.tau > 0.0 && info_.prefill_threshold > 0.0) {
    const char* verdict = accuracy < info_.tau              ? "BELOW TAU"
                          : accuracy < info_.prefill_threshold ? "below prefill"
                                                               : "healthy";
    AppendF(&page, "  (switch tau=%.3f, prefill=%.3f: %s)", info_.tau,
            info_.prefill_threshold, verdict);
  }
  page += "\n";
  AppendF(&page, "queries answered:   %.0f\n",
          CounterOr(registry, "latest_queries_total", 0.0));
  AppendF(&page, "switches:           %.0f\n",
          CounterOr(registry, "latest_switches_total", 0.0));

  // Window / store occupancy.
  page += "\n-- window store --\n";
  AppendF(&page, "window population:  %.0f\n",
          GaugeOr(registry, "latest_window_population", 0.0));
  AppendF(&page, "live rows:          %.0f\n",
          GaugeOr(registry, "latest_store_live_rows", 0.0));
  AppendF(&page, "resident slices:    %.0f\n",
          GaugeOr(registry, "latest_store_slices_resident", 0.0));
  AppendF(&page, "arena bytes:        %.0f\n",
          GaugeOr(registry, "latest_store_arena_bytes", 0.0));

  // Persistence.
  page += "\n-- runtime --\n";
  AppendF(&page, "wal lag (records):  %.0f\n",
          GaugeOr(registry, "persist_wal_lag_records", 0.0));
  AppendF(&page, "wal bytes:          %.0f\n",
          GaugeOr(registry, "persist_wal_bytes", 0.0));
  AppendF(&page, "snapshots taken:    %.0f\n",
          CounterOr(registry, "persist_snapshots_total", 0.0));

  // Serving data plane (present once a ServeServer has registered its
  // metrics into this registry).
  if (registry->FindCounter("latest_serve_frames_in_total", {}) !=
      nullptr) {
    page += "\n-- serving data plane --\n";
    AppendF(&page, "connections:        %.0f\n",
            GaugeOr(registry, "latest_serve_connections", 0.0));
    AppendF(&page, "queue depth:        query=%.0f ingest=%.0f\n",
            GaugeOr(registry, "latest_serve_queue_depth", 0.0,
                    {{"class", "query"}}),
            GaugeOr(registry, "latest_serve_queue_depth", 0.0,
                    {{"class", "ingest"}}));
    AppendF(&page, "frames:             in=%.0f out=%.0f\n",
            CounterOr(registry, "latest_serve_frames_in_total", 0.0),
            CounterOr(registry, "latest_serve_frames_out_total", 0.0));
    AppendF(&page, "served:             queries=%.0f ingests=%.0f\n",
            CounterOr(registry, "latest_serve_queries_total", 0.0),
            CounterOr(registry, "latest_serve_ingests_total", 0.0));
    AppendF(&page, "shed:               query=%.0f ingest=%.0f\n",
            CounterOr(registry, "latest_serve_shed_total", 0.0,
                      {{"class", "query"}}),
            CounterOr(registry, "latest_serve_shed_total", 0.0,
                      {{"class", "ingest"}}));
    const Histogram* batch_size =
        registry->FindHistogram("latest_serve_batch_size", {});
    if (batch_size != nullptr && batch_size->count() > 0) {
      AppendF(&page,
              "batch size:         p50=%.1f p95=%.1f p99=%.1f n=%" PRIu64
              "\n",
              batch_size->Quantile(0.5), batch_size->Quantile(0.95),
              batch_size->Quantile(0.99), batch_size->count());
    }
    for (const char* klass : {"query", "ingest"}) {
      const Histogram* wait = registry->FindHistogram(
          "latest_serve_queue_wait_ms", {{"class", klass}});
      if (wait == nullptr || wait->count() == 0) continue;
      AppendF(&page,
              "queue wait (%s): %sp50=%.3fms p99=%.3fms n=%" PRIu64 "\n",
              klass, std::string_view(klass) == "query" ? " " : "",
              wait->Quantile(0.5), wait->Quantile(0.99), wait->count());
    }
    if (const RequestTraceStore* requests = GetRequestTraceStore()) {
      AppendF(&page, "requests traced:    %" PRIu64 " (see /requestz)\n",
              requests->total_appended());
    }
  }

  // Scoreboard: moving-average accuracy per (query type, estimator).
  const std::vector<MetricsRegistry::Sample> scoreboard =
      registry->Samples("latest_scoreboard_accuracy");
  if (!scoreboard.empty()) {
    page += "\n-- scoreboard (moving accuracy) --\n";
    for (const MetricsRegistry::Sample& sample : scoreboard) {
      std::string labels;
      for (const auto& [key, value] : sample.labels) {
        if (!labels.empty()) labels += " ";
        labels += key + "=" + value;
      }
      AppendF(&page, "  %-40s %.4f", labels.c_str(), sample.value);
      if (info_.tau > 0.0) {
        page += sample.value < info_.tau ? "  [below tau]" : "";
      }
      page += "\n";
    }
  }

  // Stage latency percentiles.
  bool stage_header = false;
  for (const char* stage : {"ground_truth", "estimate", "model_update"}) {
    const Histogram* histogram = registry->FindHistogram(
        "latest_stage_latency_ms", {{"stage", stage}});
    if (histogram == nullptr || histogram->count() == 0) continue;
    if (!stage_header) {
      page += "\n-- stage latency (ms) --\n";
      stage_header = true;
    }
    AppendF(&page, "  %-12s p50=%.4f p95=%.4f p99=%.4f n=%" PRIu64 "\n",
            stage, histogram->Quantile(0.5), histogram->Quantile(0.95),
            histogram->Quantile(0.99), histogram->count());
  }

  // SLO rules.
  if (sources_.slo != nullptr) {
    page += "\n-- slo rules --\n";
    for (const SloRuleState& state : sources_.slo->States()) {
      const char* verdict = state.breached    ? "BREACHED"
                            : !state.has_value ? "no data"
                                               : "ok";
      AppendF(&page, "  %-24s %-8s value=%.4f threshold=%s%.4f",
              state.rule.name.c_str(), verdict, state.last_value,
              state.rule.op == SloRule::Op::kBelow ? "<" : ">",
              state.rule.threshold);
      if (!state.rule.description.empty()) {
        page += "  (";
        AppendHtmlEscaped(&page, state.rule.description);
        page += ")";
      }
      page += "\n";
    }
  }

  // Per-estimator error accounting.
  if (sources_.errors != nullptr) {
    const std::vector<EstimatorErrorStats> stats = sources_.errors->AllStats();
    if (!stats.empty()) {
      page += "\n-- estimator error accounting --\n";
      page +=
          "  estimator   samples  ewma_rel  ewma_acc  tau_viol  "
          "qerr_p50  qerr_p95  qerr_p99\n";
      for (const EstimatorErrorStats& stat : stats) {
        AppendF(&page,
                "  %-10s %8" PRIu64
                "  %8.4f  %8.4f  %7.1f%%  %8.2f  %8.2f  %8.2f\n",
                estimators::EstimatorKindName(stat.kind), stat.samples,
                stat.ewma_relative_error, stat.ewma_accuracy,
                100.0 * stat.tau_violation_rate, stat.qerror_p50,
                stat.qerror_p95, stat.qerror_p99);
      }
    }
  }

  // Drift detectors.
  if (sources_.drift != nullptr) {
    AppendF(&page, "\n-- drift --\nactive series:      %" PRIu64 "\n",
            sources_.drift->active_series());
  }

  // Recent lifecycle events (newest last). `?severity=info|warning|error`
  // filters; drop counts per severity show what the bounded ring lost.
  if (sources_.events != nullptr) {
    const std::string severity_param = request.QueryParam("severity");
    EventSeverity filter = EventSeverity::kInfo;
    const bool filtered =
        !severity_param.empty() && ParseSeverity(severity_param, &filter);
    std::vector<Event> events = filtered
                                    ? sources_.events->SnapshotOfSeverity(filter)
                                    : sources_.events->Snapshot();
    if (filtered) {
      AppendF(&page, "\n-- recent events (severity=%s) --\n",
              SeverityName(filter));
    } else if (!severity_param.empty()) {
      AppendF(&page,
              "\n-- recent events (unknown severity \"%s\"; showing all) --\n",
              severity_param.c_str());
    } else {
      page += "\n-- recent events --\n";
    }
    AppendF(&page, "  dropped: info=%" PRIu64 " warning=%" PRIu64
                   " error=%" PRIu64 "\n",
            sources_.events->dropped_by_severity(EventSeverity::kInfo),
            sources_.events->dropped_by_severity(EventSeverity::kWarning),
            sources_.events->dropped_by_severity(EventSeverity::kError));
    constexpr size_t kMaxShown = 20;
    const size_t start =
        events.size() > kMaxShown ? events.size() - kMaxShown : 0;
    for (size_t i = start; i < events.size(); ++i) {
      page += "  [";
      page += SeverityName(SeverityOf(events[i].type));
      page += "] ";
      AppendHtmlEscaped(&page, FormatEvent(events[i]));
      page += "\n";
    }
    if (events.empty()) page += "  (none)\n";
  }

  AppendF(&page, "\nrequests served: %" PRIu64 "\n",
          server_.requests_served());
  page += "</pre></body></html>\n";

  HttpResponse response;
  response.content_type = "text/html; charset=utf-8";
  response.body = std::move(page);
  return response;
}

HttpResponse IntrospectionServer::HandleTracez(
    const HttpRequest& request) const {
  HttpResponse response;
  SpanCollector* spans = GetSpanCollector();
  if (request.HasQueryParam("dump")) {
    if (spans == nullptr) {
      response.status = 404;
      response.body = "span tracing is not enabled (no collector installed)\n";
      return response;
    }
    response.content_type = "application/json";
    response.body = TraceEventJson(*spans, info_.instance);
    return response;
  }

  std::string body = "tracez\n\n";
  if (spans == nullptr) {
    body += "span collector: not installed\n";
  } else {
    AppendF(&body,
            "span collector: capacity=%zu sample_every=%u\n"
            "roots seen:     %" PRIu64 "\n"
            "recorded:       %" PRIu64 "\n"
            "dropped:        %" PRIu64 "\n",
            spans->capacity(), spans->sample_every(), spans->roots_seen(),
            spans->recorded(), spans->dropped());
    body += "\nGET /tracez?dump for Chrome trace-event JSON "
            "(load in Perfetto / chrome://tracing)\n";
  }
  response.body = std::move(body);
  return response;
}

HttpResponse IntrospectionServer::HandleSwitchz(
    const HttpRequest& request) const {
  HttpResponse response;
  if (sources_.audit == nullptr) {
    response.status = 404;
    response.body = "switch audit trail is not enabled\n";
    return response;
  }
  const SwitchAuditTrail::Summary summary = sources_.audit->GetSummary();
  const std::vector<SwitchAuditEntry> entries = sources_.audit->Snapshot();

  if (request.HasQueryParam("json")) {
    std::string body;
    AppendF(&body,
            "{\"recorded\":%" PRIu64 ",\"resolved\":%" PRIu64
            ",\"optimal\":%" PRIu64 ",\"cumulative_regret\":%.6f",
            summary.total_recorded, summary.total_resolved,
            summary.optimal_choices, summary.cumulative_regret);
    body += ",\"entries\":[";
    for (size_t i = 0; i < entries.size(); ++i) {
      const SwitchAuditEntry& entry = entries[i];
      if (i > 0) body += ",";
      AppendF(&body,
              "{\"id\":%" PRIu64 ",\"t\":%" PRId64 ",\"q\":%" PRIu64
              ",\"trigger\":\"",
              entry.id, entry.timestamp, entry.query_count);
      AppendJsonEscaped(entry.trigger, &body);
      AppendF(&body,
              "\",\"from\":\"%s\",\"chosen\":\"%s\",\"recommended\":\"%s\""
              ",\"monitor_accuracy\":%.6f,\"resolved\":%s",
              EstimatorName(entry.from_estimator),
              EstimatorName(entry.chosen_estimator),
              EstimatorName(entry.recommended_estimator),
              entry.monitor_accuracy, entry.resolved ? "true" : "false");
      body += ",\"features\":[";
      for (size_t f = 0; f < entry.features.size(); ++f) {
        if (f > 0) body += ",";
        AppendF(&body, "%.6f", entry.features[f]);
      }
      body += "]";
      if (entry.resolved) {
        AppendF(&body, ",\"counterfactual_best\":\"%s\",\"regret\":%.6f",
                EstimatorName(entry.counterfactual_best), entry.regret);
      }
      body += "}";
    }
    body += "]}\n";
    response.content_type = "application/json";
    response.body = std::move(body);
    return response;
  }

  std::string page =
      "<!DOCTYPE html><html><head><title>latest switchz</title></head>"
      "<body><pre>\n";
  AppendF(&page, "=== switch-decision audit trail: %s ===\n\n",
          info_.instance.c_str());
  AppendF(&page,
          "recorded:          %" PRIu64 "\nresolved:          %" PRIu64
          "\noptimal choices:   %" PRIu64 "\ncumulative regret: %.4f\n",
          summary.total_recorded, summary.total_resolved,
          summary.optimal_choices, summary.cumulative_regret);
  if (summary.total_resolved > 0) {
    AppendF(&page, "mean regret:       %.4f\n",
            summary.cumulative_regret /
                static_cast<double>(summary.total_resolved));
  }
  page += "\n-- entries (oldest first) --\n";
  for (const SwitchAuditEntry& entry : entries) {
    AppendF(&page,
            "#%" PRIu64 " [t=%" PRId64 " q=%" PRIu64 "] %s %s -> %s "
            "(recommended=%s, monitor_accuracy=%.4f)\n",
            entry.id, entry.timestamp, entry.query_count,
            entry.trigger.c_str(), EstimatorName(entry.from_estimator),
            EstimatorName(entry.chosen_estimator),
            EstimatorName(entry.recommended_estimator),
            entry.monitor_accuracy);
    page += "   features: [";
    for (size_t f = 0; f < entry.features.size(); ++f) {
      if (f > 0) page += ", ";
      AppendF(&page, "%.4f", entry.features[f]);
    }
    page += "]\n   scores:   ";
    bool first_score = true;
    for (size_t k = 0; k < entry.scores.size(); ++k) {
      if (entry.scores[k] == 0.0) continue;
      if (!first_score) page += ", ";
      first_score = false;
      AppendF(&page, "%s=%.4f", EstimatorName(static_cast<int32_t>(k)),
              entry.scores[k]);
    }
    if (first_score) page += "(none)";
    page += "\n";
    if (entry.resolved) {
      AppendF(&page,
              "   post-hoc: best=%s regret=%.4f over %u queries (",
              EstimatorName(entry.counterfactual_best), entry.regret,
              entry.resolution_samples);
      bool first_acc = true;
      for (size_t k = 0; k < entry.posthoc_accuracy.size(); ++k) {
        if (entry.posthoc_accuracy[k] < 0.0) continue;
        if (!first_acc) page += ", ";
        first_acc = false;
        AppendF(&page, "%s=%.4f", EstimatorName(static_cast<int32_t>(k)),
                entry.posthoc_accuracy[k]);
      }
      page += ")\n";
    } else {
      page += "   post-hoc: (unresolved)\n";
    }
  }
  if (entries.empty()) page += "  (no switch decisions recorded)\n";
  page += "\nGET /switchz?json for the machine-readable form\n";
  page += "</pre></body></html>\n";
  response.content_type = "text/html; charset=utf-8";
  response.body = std::move(page);
  return response;
}

namespace {

const char* RequestClassName(RequestTraceStore::RequestClass klass) {
  return klass == RequestTraceStore::RequestClass::kQuery ? "query"
                                                          : "ingest";
}

void AppendRecordJson(std::string* out,
                      const RequestTraceStore::Record& record) {
  AppendF(out,
          "{\"request_id\":%" PRIu64 ",\"trace_id\":%" PRIu64
          ",\"conn\":%" PRIu64 ",\"publish_seq\":%" PRIu64
          ",\"class\":\"%s\",\"sampled\":%s,\"root_span_id\":%" PRIu64,
          record.request_id, record.trace_id, record.conn_id,
          record.publish_seq, RequestClassName(record.request_class),
          record.trace_sampled ? "true" : "false", record.root_span_id);
  AppendF(out,
          ",\"stages_ns\":{\"queue_wait\":%" PRId64
          ",\"batch_form\":%" PRId64 ",\"module\":%" PRId64
          ",\"serialize\":%" PRId64 ",\"flush\":%" PRId64 "}",
          record.queue_wait_ns, record.batch_form_ns, record.module_ns,
          record.serialize_ns, record.flush_ns);
  AppendF(out,
          ",\"module_detail_ns\":{\"ground_truth\":%" PRId64
          ",\"estimate\":%" PRId64 ",\"model\":%" PRId64 "}",
          record.ground_truth_ns, record.estimate_ns, record.model_ns);
  AppendF(out, ",\"total_ns\":%" PRId64 ",\"flushed\":%s}",
          record.total_ns, record.flushed ? "true" : "false");
}

void AppendWaterfall(std::string* out,
                     const RequestTraceStore::Record& record) {
  AppendF(out,
          "req=%016" PRIx64 " trace=%016" PRIx64
          " class=%-6s total=%.3fms%s\n",
          record.request_id, record.trace_id,
          RequestClassName(record.request_class),
          static_cast<double>(record.total_ns) / 1e6,
          record.trace_sampled ? "  [sampled]" : "");
  struct StageCell {
    const char* name;
    int64_t ns;
  };
  const StageCell stages[] = {{"queue_wait", record.queue_wait_ns},
                              {"batch_form", record.batch_form_ns},
                              {"module", record.module_ns},
                              {"serialize", record.serialize_ns},
                              {"flush", record.flush_ns}};
  // One proportional bar per stage, scaled so the whole request spans
  // kBarWidth characters.
  constexpr int kBarWidth = 50;
  const double total =
      static_cast<double>(std::max<int64_t>(1, record.total_ns));
  for (const StageCell& stage : stages) {
    const int width = static_cast<int>(
        static_cast<double>(stage.ns) / total * kBarWidth + 0.5);
    AppendF(out, "    %-10s %8.3fms  ", stage.name,
            static_cast<double>(stage.ns) / 1e6);
    for (int i = 0; i < width; ++i) *out += '#';
    *out += '\n';
  }
  if (record.request_class == RequestTraceStore::RequestClass::kQuery) {
    AppendF(out,
            "    module detail: ground_truth=%.3fms estimate=%.3fms "
            "model=%.3fms\n",
            static_cast<double>(record.ground_truth_ns) / 1e6,
            static_cast<double>(record.estimate_ns) / 1e6,
            static_cast<double>(record.model_ns) / 1e6);
  }
}

}  // namespace

HttpResponse IntrospectionServer::HandleRequestz(
    const HttpRequest& request) const {
  HttpResponse response;
  RequestTraceStore* store = GetRequestTraceStore();
  if (store == nullptr) {
    response.status = 404;
    response.body =
        "request tracing is not enabled (no serve plane running)\n";
    return response;
  }
  const std::vector<RequestTraceStore::Record> slowest = store->Slowest();
  const std::vector<RequestTraceStore::Record> recent = store->Recent();

  if (request.HasQueryParam("json")) {
    std::string body;
    AppendF(&body,
            "{\"total_appended\":%" PRIu64 ",\"recent_retained\":%zu"
            ",\"slowest\":[",
            store->total_appended(), recent.size());
    for (size_t i = 0; i < slowest.size(); ++i) {
      if (i > 0) body += ",";
      AppendRecordJson(&body, slowest[i]);
    }
    body += "],\"recent\":[";
    for (size_t i = 0; i < recent.size(); ++i) {
      if (i > 0) body += ",";
      AppendRecordJson(&body, recent[i]);
    }
    body += "]}\n";
    response.content_type = "application/json";
    response.body = std::move(body);
    return response;
  }

  std::string page =
      "<!DOCTYPE html><html><head><title>latest requestz</title></head>"
      "<body><pre>\n";
  AppendF(&page, "=== serve-plane request waterfalls: %s ===\n\n",
          info_.instance.c_str());
  AppendF(&page,
          "requests traced: %" PRIu64 " (recent ring %zu/%zu, slowest "
          "board %zu/%zu)\n",
          store->total_appended(), recent.size(),
          RequestTraceStore::kRecentCapacity, slowest.size(),
          RequestTraceStore::kTopK);
  page +=
      "stages: queue_wait -> batch_form -> module -> serialize -> flush "
      "(contiguous; sums to total)\n";
  page += "\n-- slowest requests --\n";
  for (size_t i = 0; i < slowest.size(); ++i) {
    AppendF(&page, "\n#%zu ", i + 1);
    AppendWaterfall(&page, slowest[i]);
  }
  if (slowest.empty()) page += "  (no flushed requests yet)\n";
  page += "\nGET /requestz?json for the machine-readable form\n";
  page += "</pre></body></html>\n";
  response.content_type = "text/html; charset=utf-8";
  response.body = std::move(page);
  return response;
}

HttpResponse IntrospectionServer::HandleProfilez(
    const HttpRequest& request) const {
  HttpResponse response;
  Profiler* profiler = GetProfiler();
  if (profiler == nullptr) {
    response.status = 404;
    response.body = "profiler is not enabled (no profiler installed)\n";
    return response;
  }
  double seconds = 2.0;
  const std::string param = request.QueryParam("seconds");
  if (!param.empty()) {
    seconds = std::strtod(param.c_str(), nullptr);
    if (seconds <= 0.0) seconds = 2.0;
  }
  const std::string folded = profiler->CollectFolded(seconds);
  response.content_type = "text/plain; charset=utf-8";
  if (folded.empty()) {
    response.body = "(no samples: the process consumed no CPU time "
                    "during the window)\n";
  } else {
    response.body = folded;
  }
  return response;
}

HttpResponse IntrospectionServer::HandleIndex(const HttpRequest&) const {
  std::string body = "latest introspection endpoints:\n";
  for (const std::string& path : server_.paths()) {
    body += "  " + path + "\n";
  }
  HttpResponse response;
  response.body = std::move(body);
  return response;
}

}  // namespace latest::obs
