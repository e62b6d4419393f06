// The query-serving RPC server (the data plane of ROADMAP item 1).
//
// Two threads per server:
//
//   IO thread     poll() over the listen socket, a self-pipe, and every
//                 client connection (non-blocking, per-connection read /
//                 write buffers). Decodes frames, answers STATUS frames
//                 inline from mirrored atomics, admits INGEST/QUERY into
//                 the Batcher (writing RETRY_LATER itself on shed), and
//                 flushes response bytes produced by the batch thread.
//
//   batch thread  Blocks in Batcher::WaitForBatch; the only thread that
//                 touches the LatestModule. Group commit: when idle it
//                 takes the first admission at once, and each later
//                 batch is everything admitted while the previous one
//                 ran (up to max_batch queries), so batch size follows
//                 load. Applies ingests in order, coalesces admitted
//                 query runs through OnQueryBatch, encodes the
//                 responses, hands them to the IO thread through a
//                 per-connection outbox, and mirrors phase/active/counter
//                 state into atomics for the STATUS path.
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
  /// encoding responses into `outbox` (conn_id -> bytes) and appending
  /// one flush-incomplete trace record per request to `records`.
  void ProcessBatch(const std::vector<AdmittedEvent>& batch,
                    uint64_t batch_seq,
                    std::map<uint64_t, std::string>* outbox,
                    std::vector<obs::RequestTraceStore::Record>* records);

  /// Moves batch-thread outbox bytes into connection write buffers,
  /// finalises the flushed batches' trace records, and emits their
  /// stage spans (IO thread).
  void FlushOutbox();

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

  // Batch thread -> IO thread response handoff. `pending_flush_seqs_`
  // rides along: batch sequence numbers whose responses entered the
  // outbox but whose flush completion has not been observed yet.
  std::mutex outbox_mu_;
  std::map<uint64_t, std::string> outbox_;
  std::vector<uint64_t> pending_flush_seqs_;

  // Per-request stage waterfalls (batch thread appends, IO thread
  // patches flush completion; internally locked).
  obs::RequestTraceStore request_trace_;
  uint64_t batch_seq_ = 0;  // Batch-thread-owned.

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
