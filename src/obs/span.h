// End-to-end span tracing of the LATEST runtime.
//
// A Span is an RAII scope timer: construction opens the span, destruction
// closes it and appends one SpanRecord to a thread-safe bounded ring. A
// thread-local stack links spans into parent/child trees (ingest →
// slice_seal → evict; query → ground_truth / estimate / model_update /
// switch), and the collector stamps every record with a stable per-thread
// id so the export (obs/trace_export.h) renders one track per thread.
//
// Cost model. Tracing is off by default: the process-global collector
// pointer is null and the Span constructor is a single relaxed atomic
// load plus one branch — cheap enough to leave LATEST_SPAN annotations on
// every hot path, including per-object ingest (verified by
// bench_ingest_throughput). When a collector is installed, sampling
// happens per *root* span: every Nth root is traced and its children ride
// along, so one sampled query yields its complete stage tree while the
// other N-1 queries still pay only the pointer check plus a thread-local
// depth update.

#ifndef LATEST_OBS_SPAN_H_
#define LATEST_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics_registry.h"

namespace latest::obs {

/// One closed span. `name` must point at a string literal (records
/// outlive the scope that created them).
struct SpanRecord {
  const char* name = nullptr;
  /// Start offset from the collector's epoch, nanoseconds.
  int64_t start_ns = 0;
  /// Wall-clock duration, nanoseconds.
  int64_t duration_ns = 0;
  /// Stable per-thread track id (1-based, assignment order).
  uint32_t tid = 0;
  /// Collector-unique span id (1-based) and parent span id (0 = root).
  uint64_t id = 0;
  uint64_t parent_id = 0;
  /// Request-scoped trace id shared by every span in one trace tree.
  /// For locally rooted trees this is the root span's id; for trees
  /// continued from a remote client it is the client-generated id from
  /// the wire trace-context. 0 on legacy records.
  uint64_t trace_id = 0;
};

/// Portable handle for continuing a span tree on another thread (or,
/// via the wire protocol, another process). A span's context() can be
/// handed to a different thread, which opens a child with
/// `Span(name, context)` — linkage survives because the parent span id
/// travels with the handle instead of living in thread-local state.
struct TraceContext {
  uint64_t trace_id = 0;
  /// The span to parent under (0 = new root within the trace).
  uint64_t span_id = 0;
  /// Whether the originating tree was selected for recording. A
  /// continued span inherits this instead of re-rolling root sampling,
  /// so one request is either traced end-to-end or not at all.
  bool sampled = false;
};

/// Bounded, thread-safe ring of closed spans plus the root-sampling
/// decision. Install with SetSpanCollector to enable tracing process-wide.
class SpanCollector {
 public:
  /// Traces every `sample_every`-th root span (1 = all, 0 = none).
  /// `registry` (optional) receives recorded/dropped counters so ring
  /// loss is visible on /metrics.
  explicit SpanCollector(size_t capacity, uint32_t sample_every = 1,
                         MetricsRegistry* registry = nullptr);
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Root-sampling decision; increments the root counter.
  bool SampleRoot() {
    if (sample_every_ == 0) return false;
    return roots_seen_.fetch_add(1, std::memory_order_relaxed) %
               sample_every_ ==
           0;
  }

  uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Nanoseconds since the collector's construction (steady clock).
  int64_t NowNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Converts a steady_clock timestamp expressed as microseconds since
  /// the steady epoch (the serve plane's tick domain) into this
  /// collector's ns-since-construction domain. Both clocks are
  /// steady_clock, so the conversion is one subtraction.
  int64_t NanosFromSteadyMicros(int64_t steady_micros) const {
    const int64_t epoch_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            epoch_.time_since_epoch())
            .count();
    return steady_micros * 1000 - epoch_ns;
  }

  void Record(const SpanRecord& record);

  /// Spans recorded over the collector's lifetime.
  uint64_t recorded() const;
  /// Spans overwritten by ring wraparound (lost to the export).
  uint64_t dropped() const;
  /// Root spans that consulted the sampler (traced or not).
  uint64_t roots_seen() const {
    return roots_seen_.load(std::memory_order_relaxed);
  }

  uint32_t sample_every() const { return sample_every_; }
  size_t capacity() const { return capacity_; }

  /// Retained spans, oldest first.
  std::vector<SpanRecord> Snapshot() const;

 private:
  const size_t capacity_;
  const uint32_t sample_every_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> roots_seen_{0};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;
  size_t next_ = 0;
  uint64_t total_ = 0;
  Counter* recorded_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
};

/// Installs (or clears, with null) the process-global collector. The
/// caller keeps ownership and must not destroy the collector until after
/// clearing it here and letting in-flight spans close.
void SetSpanCollector(SpanCollector* collector);

/// The installed collector, or null when tracing is disabled.
SpanCollector* GetSpanCollector();

/// The calling thread's stable track id, assigning one on first use.
/// Lets code that synthesizes SpanRecords directly (e.g. retroactive
/// queue_wait spans built from batcher ticks) stamp them onto the same
/// track as this thread's RAII spans.
uint32_t CurrentThreadTid();

/// RAII scope span. `name` must be a string literal. When tracing is
/// globally disabled the constructor costs one atomic load and one
/// branch and the destructor one branch.
class Span {
 public:
  explicit Span(const char* name) {
    if (GetSpanCollector() != nullptr) Begin(name);
  }

  /// Continues a span tree carried over from another thread (or from
  /// the wire): the new span parents under `parent.span_id`, inherits
  /// `parent.trace_id`, and bypasses root sampling — `parent.sampled`
  /// decides recording, so a request is traced end-to-end or not at
  /// all. Children opened on this thread while the span is live link
  /// under it as usual.
  Span(const char* name, const TraceContext& parent) {
    if (GetSpanCollector() != nullptr) BeginLinked(name, parent);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (depth_tracked_) Finish();
  }

  /// Handle for continuing this tree on another thread. For an
  /// unsampled span the context is unsampled too (ids zero), which a
  /// downstream `Span(name, ctx)` treats as "do not record".
  TraceContext context() const;

 private:
  void Begin(const char* name);
  void BeginLinked(const char* name, const TraceContext& parent);
  void Finish();

  SpanCollector* collector_ = nullptr;  // Null when unsampled.
  bool depth_tracked_ = false;
  bool linked_ = false;  // Opened via TraceContext continuation.
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t saved_parent_ = 0;
  uint64_t saved_trace_ = 0;
  uint64_t remote_parent_ = 0;  // Wire/cross-thread parent span id.
  bool saved_sampling_ = false;
};

}  // namespace latest::obs

/// Scope-span annotation: `LATEST_SPAN("ground_truth");` times the
/// enclosing scope under that name when tracing is enabled.
#define LATEST_SPAN_CONCAT_(a, b) a##b
#define LATEST_SPAN_CONCAT(a, b) LATEST_SPAN_CONCAT_(a, b)
#define LATEST_SPAN(name) \
  ::latest::obs::Span LATEST_SPAN_CONCAT(latest_span_, __LINE__)(name)

#endif  // LATEST_OBS_SPAN_H_
