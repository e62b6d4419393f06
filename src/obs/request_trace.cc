#include "obs/request_trace.h"

#include <algorithm>
#include <atomic>

namespace latest::obs {

namespace {
std::atomic<RequestTraceStore*> g_request_trace{nullptr};
}  // namespace

void SetRequestTraceStore(RequestTraceStore* store) {
  g_request_trace.store(store, std::memory_order_release);
}

RequestTraceStore* GetRequestTraceStore() {
  return g_request_trace.load(std::memory_order_acquire);
}

RequestTraceStore::RequestTraceStore() {
  ring_.reserve(kRecentCapacity);
  slowest_.reserve(kTopK + 1);
}

void RequestTraceStore::Append(Record record) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  if (ring_.size() < kRecentCapacity) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
  }
  next_ = (next_ + 1) % kRecentCapacity;
}

void RequestTraceStore::CompleteFlush(uint64_t publish_seq,
                                      int64_t flush_micros,
                                      std::vector<Record>* completed) {
  std::lock_guard<std::mutex> lock(mu_);
  // Flushes complete in publish order, so the unflushed records form the
  // newest end of the ring: records published after `publish_seq` first
  // (their bytes are not out yet), then the ones this flush completes.
  const size_t n = ring_.size();
  for (size_t back = 1; back <= n; ++back) {
    Record& record = ring_[(next_ + n - back) % n];
    if (record.publish_seq > publish_seq) continue;
    if (record.flushed) break;
    record.flushed = true;
    record.flush_ns =
        std::max<int64_t>(0, flush_micros - record.handoff_micros) * 1000;
    record.total_ns =
        std::max<int64_t>(0, flush_micros - record.admit_micros) * 1000;
    if (completed != nullptr) completed->push_back(record);
    // Promote onto the slowest-K board (insertion sort: the board is
    // tiny and mostly already sorted).
    if (slowest_.size() < kTopK ||
        record.total_ns > slowest_.back().total_ns) {
      const auto at = std::upper_bound(
          slowest_.begin(), slowest_.end(), record,
          [](const Record& a, const Record& b) {
            return a.total_ns > b.total_ns;
          });
      slowest_.insert(at, record);
      if (slowest_.size() > kTopK) slowest_.pop_back();
    }
  }
}

std::vector<RequestTraceStore::Record> RequestTraceStore::Recent() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Record> out;
  out.reserve(ring_.size());
  if (ring_.size() < kRecentCapacity) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<ptrdiff_t>(next_));
  }
  return out;
}

std::vector<RequestTraceStore::Record> RequestTraceStore::Slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slowest_;
}

uint64_t RequestTraceStore::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

}  // namespace latest::obs
