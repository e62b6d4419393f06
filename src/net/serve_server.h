// The query-serving RPC server (the data plane of ROADMAP item 1).
//
// Two threads per server:
//
//   IO thread     poll() over the listen socket, a self-pipe, and every
//                 client connection (non-blocking, per-connection read /
//                 write buffers). Decodes frames, answers STATUS frames
//                 inline from mirrored atomics, admits INGEST/QUERY into
//                 the Batcher (writing RETRY_LATER itself on shed), and
//                 on every pass flushes whatever response bytes the batch
//                 thread has published.
//
//   batch thread  Blocks in Batcher::WaitForBatch; the only thread that
//                 touches the LatestModule. Group commit: when idle it
//                 takes the first admission at once, and each later
//                 batch is everything admitted while the previous one
//                 ran (up to max_batch queries), so batch size follows
//                 load. Applies ingests in order, coalesces admitted
//                 query runs through OnQueryBatch, and mirrors
//                 phase/active/counter state into atomics for the STATUS
//                 path.
//
// Responses are group-committed too. The batch thread publishes each
// ingest's ACK, and each query run's answers, into the shared outbox as
// soon as they are encoded, so no response waits for the rest of its
// batch. The exception is a saturated plane: when the batcher had to
// cap a batch at max_batch queries, work is still queued behind it, and
// that batch publishes once, at its end, so hundreds of tiny sends do
// not multiply client wakeups. The IO thread flushes at the top of every
// pass and, after a pass that found bytes, polls with timeout 0, so
// socket reads are never starved; only when it finds the outbox empty
// does it mark itself idle (under the outbox mutex, just before poll)
// and sleep with no timeout, and only a publish that finds that mark
// pokes the self-pipe — the mirror of the Batcher's consumer_waiting_
// handshake. A publish therefore either sees the IO thread idle and
// wakes it, or lands before the idle check and keeps it from sleeping.
//
// Shutdown drains: Stop() refuses new admissions, the batch thread
// finishes every already-admitted event (WaitForBatch returns false only
// when the FIFO is empty), responses are flushed, then sockets close.

#ifndef LATEST_NET_SERVE_SERVER_H_
#define LATEST_NET_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/latest_module.h"
#include "net/batcher.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/request_trace.h"
#include "util/status.h"

namespace latest::net {

struct ServeServerConfig {
  /// 0 picks an ephemeral port (read back via port()).
  uint16_t port = 0;
  BatcherConfig batcher;
  /// Upper bound on simultaneously open client connections; accepts
  /// beyond it are closed immediately.
  uint32_t max_connections = 256;
  /// Answer HELLO with HELLO_ACK (trace-context negotiation). False
  /// simulates a pre-tracing server: HELLO takes the unknown-frame
  /// path (ERROR + close) and clients fall back to untraced frames.
  bool accept_hello = true;
};

/// Counters mirrored for STATUS frames and metrics (single writer each;
/// relaxed loads elsewhere).
struct ServeStats {
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> frames_out{0};
  std::atomic<uint64_t> queries_answered{0};
  std::atomic<uint64_t> objects_ingested{0};
  std::atomic<uint64_t> shed_queries{0};
  std::atomic<uint64_t> shed_ingests{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> batches{0};
};

class ServeServer {
 public:
  /// The module must outlive the server. `ingest_hook`, when set,
  /// replaces the direct module->OnObject call on the batch thread — the
  /// serve tool routes ingest through the checkpoint manager this way
  /// without src/net depending on latest_persist.
  ServeServer(const ServeServerConfig& config, core::LatestModule* module,
              std::function<void(const stream::GeoTextObject&)> ingest_hook =
                  nullptr);
  ~ServeServer();
  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  util::Status Start();

  /// Drains admitted work, flushes responses, closes sockets. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  const ServeStats& stats() const { return stats_; }

  /// Current open connections (IO-thread-owned, relaxed mirror).
  uint64_t connections() const {
    return connections_gauge_val_.load(std::memory_order_relaxed);
  }

  /// Per-request stage waterfalls (also published process-globally via
  /// obs::SetRequestTraceStore while the server runs, for /requestz).
  const obs::RequestTraceStore& request_trace() const {
    return request_trace_;
  }

 private:
  struct Connection {
    Fd fd;
    FrameReader reader;
    std::string write_buffer;
    size_t write_offset = 0;
    bool closing = false;  // Flush pending bytes, then close.
  };

  void IoLoop();
  void BatchLoop();

  /// Decodes and dispatches every complete frame in `conn`'s reader.
  /// False poisons the connection (protocol error).
  bool DrainFrames(uint64_t conn_id, Connection* conn);

  /// Runs one drained batch through the module in arrival order,
  /// clamping timestamps in place. With `publish_each` it publishes each
  /// ingest's ACK and each query run's answers as soon as they are
  /// encoded; otherwise everything once, at the end of the batch.
  void ProcessBatch(std::vector<AdmittedEvent>& batch, bool publish_each);

  /// Batch thread: ends the serialize stage of every record in
  /// `pending_records_`, appends them to the trace store, then moves
  /// the encoded `pending_bytes_` into the shared outbox, waking the IO
  /// thread if it sleeps idle.
  void Publish();

  /// IO thread: moves published bytes into connection write buffers,
  /// sends them, finalises the flushed requests' trace records, and
  /// emits their stage spans. With nothing published it instead marks
  /// the thread idle (under the outbox mutex, so a later Publish sees
  /// the mark) and returns false.
  bool FlushOutbox();

  /// Mirrors the open-connection count (IO thread, at accept and close).
  void SetConnectionsGauge();

  /// Emits the synthetic serve_request span tree for one flushed
  /// record onto the installed span collector.
  void EmitRequestSpans(const obs::RequestTraceStore::Record& record,
                        int64_t flush_micros);

  void RegisterMetrics();

  const ServeServerConfig config_;
  core::LatestModule* const module_;
  std::function<void(const stream::GeoTextObject&)> ingest_hook_;
  Batcher batcher_;

  uint16_t port_ = 0;
  Fd listen_fd_;
  SelfPipe wake_;
  std::thread io_thread_;
  std::thread batch_thread_;
  std::atomic<bool> running_{false};

  // IO-thread-owned connection table.
  std::map<uint64_t, Connection> connections_;
  uint64_t next_conn_id_ = 1;
  std::atomic<uint64_t> connections_gauge_val_{0};

  // Batch thread -> IO thread response handoff (see the header
  // comment). `published_seq_` counts publishes; every record of a
  // publish is in request_trace_ before the count moves past it, so the
  // IO thread completes flushes by sequence without losing a record.
  std::mutex outbox_mu_;
  std::map<uint64_t, std::string> outbox_;  // conn_id -> published bytes.
  uint64_t published_seq_ = 0;
  uint64_t flushed_seq_ = 0;  // Last publish the IO thread took.
  /// Set under outbox_mu_ by an IO thread about to sleep on an empty
  /// outbox; a Publish that finds it set wakes the thread. The IO
  /// thread clears it, without the mutex, as soon as poll() returns.
  std::atomic<bool> io_idle_{false};
  std::map<uint64_t, std::string> flushing_;  // IO-thread-owned spare.

  // Batch-thread-owned encode scratch for the next publish: response
  // bytes in encode order, split into (conn_id, end offset) runs, plus
  // the matching flush-incomplete trace records.
  std::string pending_bytes_;
  std::vector<std::pair<uint64_t, size_t>> pending_runs_;
  std::vector<obs::RequestTraceStore::Record> pending_records_;

  // Per-request stage waterfalls (batch thread appends, IO thread
  // patches flush completion; internally locked).
  obs::RequestTraceStore request_trace_;

  ServeStats stats_;

  // Mirrored module state for IO-thread STATUS responses.
  std::atomic<uint32_t> phase_mirror_{0};
  std::atomic<uint32_t> active_kind_mirror_{0};

  // Monotonized stream clock (serving timestamps must not regress).
  int64_t last_timestamp_ = 0;

  // Metrics (owned by the module's registry; may be null when the
  // registry is unavailable).
  obs::Counter* frames_in_counter_ = nullptr;
  obs::Counter* frames_out_counter_ = nullptr;
  obs::Counter* queries_counter_ = nullptr;
  obs::Counter* ingests_counter_ = nullptr;
  obs::Counter* shed_query_counter_ = nullptr;
  obs::Counter* shed_ingest_counter_ = nullptr;
  obs::Counter* protocol_error_counter_ = nullptr;
  obs::Gauge* connections_gauge_ = nullptr;
  obs::Gauge* ingest_queue_gauge_ = nullptr;
  obs::Gauge* query_queue_gauge_ = nullptr;
  obs::Histogram* batch_size_histogram_ = nullptr;
  obs::Histogram* query_latency_histogram_ = nullptr;
  obs::Histogram* query_queue_wait_histogram_ = nullptr;
  obs::Histogram* ingest_queue_wait_histogram_ = nullptr;
};

}  // namespace latest::net

#endif  // LATEST_NET_SERVE_SERVER_H_
