// Per-request stage waterfalls for the serving data plane.
//
// The serve path records one RequestTraceStore::Record per completed
// request: identifiers (request id, wire trace id, connection), the
// request class, and the duration of every serving stage —
// queue_wait → batch_form → module → serialize → flush — plus the
// module's internal attribution for queries (ground truth vs estimator
// vs tree inference). Stages are contiguous by construction, so their
// sum reconciles with the end-to-end latency; /requestz renders the
// slowest retained requests as waterfalls and an e2e test asserts the
// reconciliation.
//
// The batch thread publishes responses as soon as each is encoded, and
// the IO thread flushes whatever has been published. A record is
// appended flush-incomplete at its publish, before its bytes become
// visible to the IO thread, and patched by CompleteFlush(publish_seq)
// once they reach the kernel: only then does it become eligible for the
// slowest-K board, keeping the board's totals final.
//
// Strictly observational and bounded: a fixed recent ring plus a fixed
// slowest-K board, all under one mutex that only the serve threads and
// scrape handlers touch.

#ifndef LATEST_OBS_REQUEST_TRACE_H_
#define LATEST_OBS_REQUEST_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace latest::obs {

class RequestTraceStore {
 public:
  enum class RequestClass : uint8_t { kQuery = 0, kIngest = 1 };

  struct Record {
    uint64_t request_id = 0;
    uint64_t trace_id = 0;  // 0 when the client sent no trace context.
    uint64_t conn_id = 0;
    uint64_t publish_seq = 0;  // Flush-patch key (publish order).
    RequestClass request_class = RequestClass::kQuery;
    bool trace_sampled = false;
    /// Pre-allocated id of the request's root span (0 when the request
    /// is not span-traced); the module_run span on the batch thread
    /// parents under it before the root itself is emitted at flush.
    uint64_t root_span_id = 0;

    /// Steady-clock stage boundaries, microseconds since the steady
    /// epoch. Each boundary ends one stage and starts the next, so the
    /// stage durations sum to the end-to-end latency by construction.
    int64_t arrival_micros = 0;    // Socket readability (io_read start).
    int64_t admit_micros = 0;      // FIFO admission (queue_wait start).
    int64_t dequeue_micros = 0;    // Batch drain (batch_form start).
    int64_t run_start_micros = 0;  // Module run start (module start).
    int64_t run_end_micros = 0;    // Module run end (serialize start).
    int64_t handoff_micros = 0;    // Outbox publish (flush start).

    /// Stage durations, nanoseconds (derived from the stamps above at
    /// append time). `flush_ns` and `total_ns` stay 0 until
    /// CompleteFlush patches them.
    int64_t queue_wait_ns = 0;
    int64_t batch_form_ns = 0;
    int64_t module_ns = 0;
    int64_t serialize_ns = 0;
    int64_t flush_ns = 0;
    int64_t total_ns = 0;  // admit -> flush complete.

    /// Module-internal attribution (queries only), nanoseconds.
    int64_t ground_truth_ns = 0;
    int64_t estimate_ns = 0;
    int64_t model_ns = 0;

    bool flushed = false;
  };

  /// Records kept in the recent ring, and on the slowest board.
  static constexpr size_t kRecentCapacity = 256;
  static constexpr size_t kTopK = 32;

  RequestTraceStore();
  RequestTraceStore(const RequestTraceStore&) = delete;
  RequestTraceStore& operator=(const RequestTraceStore&) = delete;

  /// Appends one flush-incomplete record (batch thread, at publish,
  /// before the response bytes become visible). Records must arrive in
  /// non-decreasing publish_seq. Overwrites the oldest record once the
  /// ring is full.
  void Append(Record record);

  /// Finalises every retained unflushed record published at or before
  /// `publish_seq`: flush duration from the publish to `flush_micros`,
  /// total from admission, and promotion onto the slowest-K board (IO
  /// thread, once the published bytes were handed to the kernel). Walks
  /// back from the newest record and stops at the first flushed one, so
  /// the cost follows the records completed, not the ring size. When
  /// `completed` is non-null the finalised records are appended to it
  /// so the caller can emit spans without re-scanning the ring.
  void CompleteFlush(uint64_t publish_seq, int64_t flush_micros,
                     std::vector<Record>* completed = nullptr);

  /// Recent records, oldest first (flushed or not).
  std::vector<Record> Recent() const;

  /// Slowest flushed records, largest total first.
  std::vector<Record> Slowest() const;

  /// Records appended over the store's lifetime.
  uint64_t total_appended() const;

 private:
  mutable std::mutex mu_;
  std::vector<Record> ring_;
  size_t next_ = 0;
  uint64_t total_ = 0;
  std::vector<Record> slowest_;  // Sorted, largest total_ns first.
};

/// Installs (or clears, with null) the process-global request-trace
/// store read by /requestz and /statusz. Mirrors the span collector:
/// introspection handlers resolve the pointer at request time, so the
/// HTTP server can be created before the serve plane. The caller keeps
/// ownership and must clear before destruction.
void SetRequestTraceStore(RequestTraceStore* store);
RequestTraceStore* GetRequestTraceStore();

}  // namespace latest::obs

#endif  // LATEST_OBS_REQUEST_TRACE_H_
