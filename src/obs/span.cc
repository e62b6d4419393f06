#include "obs/span.h"

#include <algorithm>

namespace latest::obs {

namespace {

std::atomic<SpanCollector*> g_collector{nullptr};

/// Sequential thread-track ids, assigned on a thread's first sampled span.
std::atomic<uint32_t> g_next_tid{1};

struct SpanTls {
  uint64_t parent_id = 0;  // Innermost open sampled span on this thread.
  uint64_t trace_id = 0;   // Trace of the innermost open sampled tree.
  uint32_t depth = 0;      // Open spans (sampled or not) on this thread.
  bool sampling = false;   // Root decision, inherited by children.
  uint32_t tid = 0;        // 0 until assigned.
};

SpanTls& Tls() {
  thread_local SpanTls tls;
  return tls;
}

}  // namespace

SpanCollector::SpanCollector(size_t capacity, uint32_t sample_every,
                             MetricsRegistry* registry)
    : capacity_(std::max<size_t>(1, capacity)),
      sample_every_(sample_every),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_);
  if (registry != nullptr) {
    recorded_counter_ = registry->GetCounter(
        "latest_spans_recorded_total",
        "Trace spans recorded over the collector lifetime");
    dropped_counter_ = registry->GetCounter(
        "latest_spans_dropped_total",
        "Trace spans overwritten by ring wraparound (lost to export)");
  }
}

void SpanCollector::Record(const SpanRecord& record) {
  if (recorded_counter_ != nullptr) recorded_counter_->Increment();
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
  } else {
    ring_[next_] = record;
    if (dropped_counter_ != nullptr) dropped_counter_->Increment();
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

uint64_t SpanCollector::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t SpanCollector::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

std::vector<SpanRecord> SpanCollector::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<ptrdiff_t>(next_));
  }
  return out;
}

void SetSpanCollector(SpanCollector* collector) {
  g_collector.store(collector, std::memory_order_release);
}

SpanCollector* GetSpanCollector() {
  return g_collector.load(std::memory_order_acquire);
}

uint32_t CurrentThreadTid() {
  SpanTls& tls = Tls();
  if (tls.tid == 0) {
    tls.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return tls.tid;
}

TraceContext Span::context() const {
  TraceContext ctx;
  if (collector_ != nullptr) {
    ctx.trace_id = trace_id_;
    ctx.span_id = id_;
    ctx.sampled = true;
  }
  return ctx;
}

void Span::Begin(const char* name) {
  SpanCollector* collector = GetSpanCollector();
  if (collector == nullptr) return;  // Cleared since the inline check.
  SpanTls& tls = Tls();
  if (tls.depth == 0) tls.sampling = collector->SampleRoot();
  ++tls.depth;
  depth_tracked_ = true;
  if (!tls.sampling) return;
  collector_ = collector;
  name_ = name;
  id_ = collector->NextId();
  saved_parent_ = tls.parent_id;
  saved_trace_ = tls.trace_id;
  tls.parent_id = id_;
  // A fresh root names its trace after itself; children inherit.
  if (saved_parent_ == 0) tls.trace_id = id_;
  trace_id_ = tls.trace_id;
  if (tls.tid == 0) {
    tls.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  start_ns_ = collector->NowNanos();
}

void Span::BeginLinked(const char* name, const TraceContext& parent) {
  SpanCollector* collector = GetSpanCollector();
  if (collector == nullptr) return;  // Cleared since the inline check.
  SpanTls& tls = Tls();
  ++tls.depth;
  depth_tracked_ = true;
  linked_ = true;
  saved_sampling_ = tls.sampling;
  tls.sampling = parent.sampled;
  if (!parent.sampled) return;
  collector_ = collector;
  name_ = name;
  id_ = collector->NextId();
  saved_parent_ = tls.parent_id;
  saved_trace_ = tls.trace_id;
  tls.parent_id = id_;
  tls.trace_id = parent.trace_id;
  trace_id_ = parent.trace_id;
  // The record parents under the remote span, not this thread's stack.
  remote_parent_ = parent.span_id;
  if (tls.tid == 0) {
    tls.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  start_ns_ = collector->NowNanos();
}

void Span::Finish() {
  SpanTls& tls = Tls();
  if (collector_ != nullptr) {
    SpanRecord record;
    record.name = name_;
    record.start_ns = start_ns_;
    record.duration_ns = collector_->NowNanos() - start_ns_;
    record.tid = tls.tid;
    record.id = id_;
    record.parent_id = linked_ ? remote_parent_ : saved_parent_;
    record.trace_id = trace_id_;
    tls.parent_id = saved_parent_;
    tls.trace_id = saved_trace_;
    collector_->Record(record);
  }
  if (linked_) tls.sampling = saved_sampling_;
  if (tls.depth > 0) --tls.depth;
}

}  // namespace latest::obs
