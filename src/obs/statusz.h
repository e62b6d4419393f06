// The live introspection plane: one embedded HTTP server exposing the
// telemetry a running LATEST instance already collects.
//
// Endpoints:
//   /          index of registered endpoints
//   /metrics   Prometheus text exposition (version 0.0.4)
//   /healthz   JSON health verdict; 200 while healthy, 503 once any SLO
//              rule is breached or the checkpoint freshness bound is blown
//   /statusz   human-readable lifecycle page: phase, active/candidate
//              estimator, monitor accuracy vs the tau and tau/beta
//              thresholds, window occupancy, WAL lag,
//              scoreboard, SLO rule states, stage latencies, recent events
//   /tracez    span/trace collector status; /tracez?dump returns the
//              retained spans as Chrome trace-event JSON for Perfetto
//   /requestz  serve-plane request waterfalls: top-K slowest requests
//              with per-stage latency attribution (queue_wait →
//              batch_form → module → serialize → flush); ?json for the
//              machine-readable form
//   /profilez  sampling self-profiler: ?seconds=N (default 2) samples
//              the process with SIGPROF and returns folded stacks for
//              flamegraph tooling
//
// Everything is rendered from thread-safe sources (the metrics registry,
// event log, span collector, SLO monitor), never from live module
// state, so scrapes race with the ingest thread without synchronization
// beyond what those sources already provide. The server optionally runs a
// ticker thread that re-evaluates the SLO monitor at a fixed cadence, so
// /healthz stays fresh even when the stream is idle.

#ifndef LATEST_OBS_STATUSZ_H_
#define LATEST_OBS_STATUSZ_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "obs/http_server.h"
#include "util/status.h"

namespace latest::obs {

class DriftMonitor;
class ErrorAccountant;
class EventLog;
class MetricsRegistry;
class SloMonitor;
class SwitchAuditTrail;

/// Borrowed data sources; all must outlive the server. Only `registry`
/// is required — null members simply leave the matching sections out.
struct IntrospectionSources {
  MetricsRegistry* registry = nullptr;
  EventLog* events = nullptr;
  SloMonitor* slo = nullptr;
  /// Estimation-quality plane (obs/error_accounting.h & friends).
  ErrorAccountant* errors = nullptr;
  DriftMonitor* drift = nullptr;
  SwitchAuditTrail* audit = nullptr;
  /// Stamps the SLO ticker's events with the stream's event time (ms)
  /// and the queries answered so far. Runs on the ticker thread, so it
  /// must only read thread-safe state. Unset leaves both 0.
  std::function<void(int64_t* timestamp, uint64_t* query_count)>
      event_clock;
  // Spans (/tracez), request waterfalls (/requestz), and the sampling
  // profiler (/profilez) are read through their process-global accessors
  // (obs/span.h, obs/request_trace.h, obs/profiler.h) at request time,
  // so the pages see whatever the running process has installed — even
  // components created after this server started.
};

/// Static deployment facts rendered on /statusz (thresholds are config,
/// not series, so they cannot be read back out of the registry).
struct IntrospectionInfo {
  /// Accuracy switch threshold tau; <= 0 hides the threshold row.
  double tau = 0.0;
  /// Pre-fill threshold tau/beta; <= 0 hides the row.
  double prefill_threshold = 0.0;
  /// Free-form deployment label shown in the page header.
  std::string instance = "latest";
};

class IntrospectionServer {
 public:
  explicit IntrospectionServer(IntrospectionSources sources,
                               IntrospectionInfo info = {});
  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;
  ~IntrospectionServer();

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving. When
  /// `slo_tick_ms` > 0 and an SLO monitor is wired, also starts a ticker
  /// thread calling SloMonitor::EvaluateAll every `slo_tick_ms`.
  util::Status Start(uint16_t port, uint32_t slo_tick_ms = 1000);

  void Stop();

  bool running() const { return server_.running(); }
  uint16_t port() const { return server_.port(); }
  uint64_t requests_served() const { return server_.requests_served(); }

  /// True while the instance should answer /healthz with 503.
  bool degraded() const;

  // Handlers, exposed for tests (each renders one endpoint's body).
  HttpResponse HandleMetrics(const HttpRequest& request) const;
  HttpResponse HandleHealthz(const HttpRequest& request) const;
  HttpResponse HandleStatusz(const HttpRequest& request) const;
  HttpResponse HandleTracez(const HttpRequest& request) const;
  /// Switch-decision audit trail with regret summary; ?json for the
  /// machine-readable form.
  HttpResponse HandleSwitchz(const HttpRequest& request) const;
  /// Serve-plane request waterfalls (process-global RequestTraceStore);
  /// ?json for the machine-readable form.
  HttpResponse HandleRequestz(const HttpRequest& request) const;
  /// Runs the process-global sampling profiler for ?seconds=N (default
  /// 2) and returns folded stacks. Blocks the serving thread for the
  /// whole window by design.
  HttpResponse HandleProfilez(const HttpRequest& request) const;
  HttpResponse HandleIndex(const HttpRequest& request) const;

 private:
  void SloTickerLoop(uint32_t tick_ms);

  IntrospectionSources sources_;
  IntrospectionInfo info_;
  HttpServer server_;
  std::thread ticker_;
  std::atomic<bool> ticker_running_{false};
};

}  // namespace latest::obs

#endif  // LATEST_OBS_STATUSZ_H_
