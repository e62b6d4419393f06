#include "net/serve_server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "obs/span.h"

namespace latest::net {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t MicrosToNanos(int64_t end_micros, int64_t start_micros) {
  return std::max<int64_t>(0, end_micros - start_micros) * 1000;
}

}  // namespace

ServeServer::ServeServer(
    const ServeServerConfig& config, core::LatestModule* module,
    std::function<void(const stream::GeoTextObject&)> ingest_hook)
    : config_(config),
      module_(module),
      ingest_hook_(std::move(ingest_hook)),
      batcher_(config.batcher) {}

ServeServer::~ServeServer() { Stop(); }

void ServeServer::RegisterMetrics() {
  obs::MetricsRegistry& registry = module_->telemetry().registry();
  frames_in_counter_ = registry.GetCounter(
      "latest_serve_frames_in_total", "RPC frames received");
  frames_out_counter_ = registry.GetCounter(
      "latest_serve_frames_out_total", "RPC frames sent");
  queries_counter_ = registry.GetCounter(
      "latest_serve_queries_total", "Queries answered by the serve plane");
  ingests_counter_ = registry.GetCounter(
      "latest_serve_ingests_total", "Objects ingested by the serve plane");
  shed_query_counter_ = registry.GetCounter(
      "latest_serve_shed_total", "Requests shed with RETRY_LATER",
      {{"class", "query"}});
  shed_ingest_counter_ = registry.GetCounter(
      "latest_serve_shed_total", "Requests shed with RETRY_LATER",
      {{"class", "ingest"}});
  protocol_error_counter_ = registry.GetCounter(
      "latest_serve_protocol_errors_total",
      "Connections dropped for malformed frames");
  connections_gauge_ = registry.GetGauge(
      "latest_serve_connections", "Open client connections");
  ingest_queue_gauge_ = registry.GetGauge(
      "latest_serve_queue_depth", "Admission queue depth",
      {{"class", "ingest"}});
  query_queue_gauge_ = registry.GetGauge(
      "latest_serve_queue_depth", "Admission queue depth",
      {{"class", "query"}});
  batch_size_histogram_ = registry.GetHistogram(
      "latest_serve_batch_size", "Queries per admitted batch",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
  query_latency_histogram_ = registry.GetHistogram(
      "latest_serve_query_latency_ms",
      "Admission-to-response latency per query",
      obs::Histogram::LatencyBucketsMs());
  query_queue_wait_histogram_ = registry.GetHistogram(
      "latest_serve_queue_wait_ms",
      "Admission-to-dequeue wait before batch processing",
      obs::Histogram::LatencyBucketsMs(), {{"class", "query"}});
  ingest_queue_wait_histogram_ = registry.GetHistogram(
      "latest_serve_queue_wait_ms",
      "Admission-to-dequeue wait before batch processing",
      obs::Histogram::LatencyBucketsMs(), {{"class", "ingest"}});
}

util::Status ServeServer::Start() {
  if (running()) {
    return util::Status::FailedPrecondition("server already running");
  }
  auto listen_fd = ListenLoopback(config_.port, /*backlog=*/128, &port_);
  if (!listen_fd.ok()) return listen_fd.status();
  listen_fd_ = std::move(listen_fd).value();
  LATEST_RETURN_IF_ERROR(SetNonBlocking(listen_fd_.get()));
  if (const auto pipe_status = wake_.Open(); !pipe_status.ok()) {
    listen_fd_.Reset();
    return pipe_status;
  }
  RegisterMetrics();
  obs::SetRequestTraceStore(&request_trace_);
  phase_mirror_.store(static_cast<uint32_t>(module_->phase()),
                      std::memory_order_relaxed);
  active_kind_mirror_.store(static_cast<uint32_t>(module_->active_kind()),
                            std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  batch_thread_ = std::thread([this] { BatchLoop(); });
  io_thread_ = std::thread([this] { IoLoop(); });
  return util::Status::Ok();
}

void ServeServer::Stop() {
  if (!running()) return;
  // Drain order: refuse new admissions, let the batch thread finish every
  // already-admitted event, then let the IO thread flush the responses.
  batcher_.Stop();
  if (batch_thread_.joinable()) batch_thread_.join();
  running_.store(false, std::memory_order_release);
  wake_.Notify();
  if (io_thread_.joinable()) io_thread_.join();
  listen_fd_.Reset();
  wake_.Close();
  if (obs::GetRequestTraceStore() == &request_trace_) {
    obs::SetRequestTraceStore(nullptr);
  }
}

// ---------------------------------------------------------------------
// IO thread.
// ---------------------------------------------------------------------

namespace {

/// Sends as much buffered data as the socket accepts right now.
/// False on a fatal socket error.
bool TryFlush(int fd, std::string* buffer, size_t* offset) {
  while (*offset < buffer->size()) {
    const ssize_t n = ::send(fd, buffer->data() + *offset,
                             buffer->size() - *offset, MSG_NOSIGNAL);
    if (n > 0) {
      *offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  buffer->clear();
  *offset = 0;
  return true;
}

}  // namespace

void ServeServer::IoLoop() {
  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn_ids;
  char read_buffer[64 * 1024];

  while (running_.load(std::memory_order_acquire)) {
    // Sends what the batch thread has published. With nothing published
    // the thread marks itself idle and sleeps until a socket, a publish
    // or Stop() wakes it; otherwise it only looks at the sockets and
    // comes back to flush again, so neither side starves the other.
    const bool idle = !FlushOutbox();
    fds.clear();
    fd_conn_ids.clear();
    fds.push_back({listen_fd_.get(), POLLIN, 0});
    fds.push_back({wake_.read_fd(), POLLIN, 0});
    for (auto& [conn_id, conn] : connections_) {
      short events = POLLIN;
      if (conn.write_offset < conn.write_buffer.size()) events |= POLLOUT;
      fds.push_back({conn.fd.get(), events, 0});
      fd_conn_ids.push_back(conn_id);
    }
    const int ready = ::poll(fds.data(), fds.size(), idle ? -1 : 0);
    // Awake: a publish from here on needs no wakeup.
    io_idle_.store(false, std::memory_order_relaxed);
    if (ready < 0) continue;  // EINTR.

    if (fds[1].revents != 0) wake_.Drain();

    if ((fds[0].revents & POLLIN) != 0) {
      const size_t before = connections_.size();
      for (;;) {
        const int client = ::accept(listen_fd_.get(), nullptr, nullptr);
        if (client < 0) break;
        if (connections_.size() >= config_.max_connections) {
          ::close(client);
          continue;
        }
        if (!SetNonBlocking(client).ok()) {
          ::close(client);
          continue;
        }
        SetNoDelay(client);
        Connection conn;
        conn.fd = Fd(client);
        connections_.emplace(next_conn_id_++, std::move(conn));
      }
      if (connections_.size() != before) SetConnectionsGauge();
    }

    std::vector<uint64_t> to_close;
    for (size_t i = 2; i < fds.size(); ++i) {
      const uint64_t conn_id = fd_conn_ids[i - 2];
      auto it = connections_.find(conn_id);
      if (it == connections_.end()) continue;
      Connection& conn = it->second;
      const short revents = fds[i].revents;
      if ((revents & (POLLERR | POLLNVAL)) != 0) {
        to_close.push_back(conn_id);
        continue;
      }
      bool dead = false;
      if ((revents & (POLLIN | POLLHUP)) != 0 && !conn.closing) {
        for (;;) {
          const ssize_t n =
              ::recv(conn.fd.get(), read_buffer, sizeof(read_buffer), 0);
          if (n > 0) {
            conn.reader.Append(read_buffer, static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          dead = true;  // Peer closed (n == 0) or hard error.
          break;
        }
        if (!DrainFrames(conn_id, &conn)) {
          // Poisoned stream: flush what we owe (the ERROR frame), then
          // close. Further input is ignored.
          conn.closing = true;
        }
      } else if ((revents & POLLHUP) != 0) {
        dead = true;
      }
      if (!TryFlush(conn.fd.get(), &conn.write_buffer,
                    &conn.write_offset)) {
        dead = true;
      }
      const bool flushed = conn.write_offset >= conn.write_buffer.size();
      if (dead || (conn.closing && flushed)) to_close.push_back(conn_id);
    }
    for (const uint64_t conn_id : to_close) connections_.erase(conn_id);
    if (!to_close.empty()) SetConnectionsGauge();
  }

  // Shutdown: the batch thread has already drained, so everything owed
  // is in the outbox or connection buffers. Flush with a bounded effort,
  // then close.
  FlushOutbox();
  const int64_t deadline = NowMicros() + 500 * 1000;
  for (bool pending = true; pending && NowMicros() < deadline;) {
    pending = false;
    for (auto& [conn_id, conn] : connections_) {
      if (conn.write_offset >= conn.write_buffer.size()) continue;
      if (!TryFlush(conn.fd.get(), &conn.write_buffer,
                    &conn.write_offset)) {
        conn.write_buffer.clear();
        conn.write_offset = 0;
        continue;
      }
      if (conn.write_offset < conn.write_buffer.size()) pending = true;
    }
    if (pending) {
      // Brief poll for writability instead of spinning.
      std::vector<pollfd> wfds;
      for (auto& [conn_id, conn] : connections_) {
        if (conn.write_offset < conn.write_buffer.size()) {
          wfds.push_back({conn.fd.get(), POLLOUT, 0});
        }
      }
      if (!wfds.empty()) ::poll(wfds.data(), wfds.size(), 50);
    }
  }
  connections_.clear();
  SetConnectionsGauge();
}

void ServeServer::SetConnectionsGauge() {
  connections_gauge_val_.store(connections_.size(),
                               std::memory_order_relaxed);
  if (connections_gauge_ != nullptr) {
    connections_gauge_->Set(static_cast<double>(connections_.size()));
  }
}

bool ServeServer::DrainFrames(uint64_t conn_id, Connection* conn) {
  FrameReader::Frame frame;
  // One stamp per drain pass: the moment this connection's bytes became
  // readable. Starts the io_read stage of every frame in the pass.
  const int64_t arrival_micros = NowMicros();
  for (;;) {
    const FrameReader::Outcome outcome = conn->reader.Next(&frame);
    if (outcome == FrameReader::Outcome::kNeedMore) return true;
    if (outcome == FrameReader::Outcome::kProtocolError) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      if (protocol_error_counter_ != nullptr) {
        protocol_error_counter_->Increment();
      }
      EncodeError({0, "malformed frame"}, &conn->write_buffer);
      return false;
    }
    stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
    if (frames_in_counter_ != nullptr) frames_in_counter_->Increment();

    const bool degraded = module_->observer().slo_monitor().degraded();
    bool ok = true;
    switch (static_cast<FrameType>(frame.type)) {
      case FrameType::kStatus: {
        StatusRequest req;
        ok = DecodeStatus(frame.payload, &req);
        if (!ok) break;
        StatusResponse resp;
        resp.request_id = req.request_id;
        resp.phase = phase_mirror_.load(std::memory_order_relaxed);
        resp.active_kind =
            active_kind_mirror_.load(std::memory_order_relaxed);
        resp.objects_ingested =
            stats_.objects_ingested.load(std::memory_order_relaxed);
        resp.queries_answered =
            stats_.queries_answered.load(std::memory_order_relaxed);
        resp.shed = stats_.shed_queries.load(std::memory_order_relaxed) +
                    stats_.shed_ingests.load(std::memory_order_relaxed);
        EncodeStatusResponse(resp, &conn->write_buffer);
        stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
        if (frames_out_counter_ != nullptr) {
          frames_out_counter_->Increment();
        }
        break;
      }
      case FrameType::kHello: {
        HelloRequest req;
        ok = DecodeHello(frame.payload, &req);
        if (!ok) break;
        if (!config_.accept_hello) {
          // Pre-tracing servers treat HELLO as an unknown frame; keep
          // that path reachable so mixed-version tests can exercise
          // the client's untraced fallback.
          ok = false;
          break;
        }
        HelloAck ack;
        ack.request_id = req.request_id;
        ack.protocol_version = kProtocolVersion;
        ack.feature_flags = req.feature_flags & kFeatureTraceContext;
        EncodeHelloAck(ack, &conn->write_buffer);
        stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
        if (frames_out_counter_ != nullptr) {
          frames_out_counter_->Increment();
        }
        break;
      }
      case FrameType::kIngest: {
        IngestRequest req;
        ok = DecodeIngest(frame.payload, &req);
        if (!ok) break;
        AdmittedEvent event;
        event.kind = AdmittedEvent::Kind::kIngest;
        event.conn_id = conn_id;
        event.request_id = req.request_id;
        event.object = std::move(req.object);
        event.trace_id = req.trace.trace_id;
        event.trace_sampled = req.trace.present && req.trace.sampled;
        event.arrival_micros = arrival_micros;
        uint32_t backoff_ms = 0;
        if (batcher_.Admit(std::move(event), degraded, &backoff_ms) !=
            AdmitResult::kAdmitted) {
          stats_.shed_ingests.fetch_add(1, std::memory_order_relaxed);
          if (shed_ingest_counter_ != nullptr) {
            shed_ingest_counter_->Increment();
          }
          EncodeRetryLater(
              {req.request_id, static_cast<uint32_t>(FrameType::kIngest),
               backoff_ms},
              &conn->write_buffer);
          stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
          if (frames_out_counter_ != nullptr) {
            frames_out_counter_->Increment();
          }
        }
        break;
      }
      case FrameType::kQuery: {
        QueryRequest req;
        ok = DecodeQuery(frame.payload, &req);
        if (!ok) break;
        AdmittedEvent event;
        event.kind = AdmittedEvent::Kind::kQuery;
        event.conn_id = conn_id;
        event.request_id = req.request_id;
        event.query = std::move(req.query);
        event.trace_id = req.trace.trace_id;
        event.trace_sampled = req.trace.present && req.trace.sampled;
        event.arrival_micros = arrival_micros;
        uint32_t backoff_ms = 0;
        if (batcher_.Admit(std::move(event), degraded, &backoff_ms) !=
            AdmitResult::kAdmitted) {
          stats_.shed_queries.fetch_add(1, std::memory_order_relaxed);
          if (shed_query_counter_ != nullptr) {
            shed_query_counter_->Increment();
          }
          EncodeRetryLater(
              {req.request_id, static_cast<uint32_t>(FrameType::kQuery),
               backoff_ms},
              &conn->write_buffer);
          stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
          if (frames_out_counter_ != nullptr) {
            frames_out_counter_->Increment();
          }
        }
        break;
      }
      default:
        // A client sending response-typed frames is a protocol error.
        ok = false;
        break;
    }
    if (!ok) {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      if (protocol_error_counter_ != nullptr) {
        protocol_error_counter_->Increment();
      }
      EncodeError({0, "bad payload"}, &conn->write_buffer);
      return false;
    }
  }
}

bool ServeServer::FlushOutbox() {
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    if (published_seq_ == flushed_seq_) {
      io_idle_.store(true, std::memory_order_relaxed);
      return false;
    }
    flushed_seq_ = published_seq_;
    // The batch thread gets back the strings of the previous flush,
    // emptied but with their capacity, so publishing allocates nothing
    // once warm.
    outbox_.swap(flushing_);
  }
  for (auto it = flushing_.begin(); it != flushing_.end();) {
    auto conn = connections_.find(it->first);
    if (conn == connections_.end()) {  // Client already gone.
      it = flushing_.erase(it);
      continue;
    }
    if (!it->second.empty()) {
      Connection& c = conn->second;
      c.write_buffer += it->second;
      it->second.clear();
      TryFlush(c.fd.get(), &c.write_buffer, &c.write_offset);
    }
    ++it;
  }
  const int64_t flush_micros = NowMicros();
  std::vector<obs::RequestTraceStore::Record> completed;
  const bool want_spans = obs::GetSpanCollector() != nullptr;
  request_trace_.CompleteFlush(flushed_seq_, flush_micros,
                               want_spans ? &completed : nullptr);
  for (const auto& record : completed) {
    EmitRequestSpans(record, flush_micros);
  }
  return true;
}

void ServeServer::EmitRequestSpans(
    const obs::RequestTraceStore::Record& record, int64_t flush_micros) {
  obs::SpanCollector* collector = obs::GetSpanCollector();
  if (collector == nullptr || !record.trace_sampled ||
      record.root_span_id == 0) {
    return;
  }
  // Synthesized retroactively from the record's stage stamps: the
  // serving stages are only known complete here (flush time), long
  // after each stage ran, so RAII spans cannot cover them. The module
  // stage itself additionally carries a real RAII `module_run` span
  // recorded live on the batch thread (see ProcessBatch), giving the
  // trace tree spans on both the IO and batch threads.
  const uint32_t tid = obs::CurrentThreadTid();
  auto emit = [&](const char* name, uint64_t id, uint64_t parent_id,
                  int64_t start_micros, int64_t end_micros) {
    obs::SpanRecord span;
    span.name = name;
    span.start_ns = collector->NanosFromSteadyMicros(start_micros);
    span.duration_ns = MicrosToNanos(end_micros, start_micros);
    span.tid = tid;
    span.id = id;
    span.parent_id = parent_id;
    span.trace_id = record.trace_id;
    collector->Record(span);
  };
  const uint64_t root = record.root_span_id;
  emit("serve_request", root, 0, record.arrival_micros, flush_micros);
  emit("io_read", collector->NextId(), root, record.arrival_micros,
       record.admit_micros);
  emit("queue_wait", collector->NextId(), root, record.admit_micros,
       record.dequeue_micros);
  emit("batch_form", collector->NextId(), root, record.dequeue_micros,
       record.run_start_micros);
  emit(record.request_class == obs::RequestTraceStore::RequestClass::kQuery
           ? "module_query"
           : "module_ingest",
       collector->NextId(), root, record.run_start_micros,
       record.run_end_micros);
  emit("serialize", collector->NextId(), root, record.run_end_micros,
       record.handoff_micros);
  emit("flush", collector->NextId(), root, record.handoff_micros,
       flush_micros);
}

// ---------------------------------------------------------------------
// Batch thread.
// ---------------------------------------------------------------------

void ServeServer::BatchLoop() {
  std::vector<AdmittedEvent> batch;
  while (batcher_.WaitForBatch(&batch)) {
    // Queue depths change at admission and at dequeue; one read per
    // batch keeps the batcher mutex off the IO thread's flush path.
    const size_t ingest_depth = batcher_.ingest_depth();
    const size_t query_depth = batcher_.query_depth();
    if (ingest_queue_gauge_ != nullptr) {
      ingest_queue_gauge_->Set(static_cast<double>(ingest_depth));
    }
    if (query_queue_gauge_ != nullptr) {
      query_queue_gauge_->Set(static_cast<double>(query_depth));
    }
    // Work left in the FIFO means the batcher capped this batch at
    // max_batch queries: the plane is saturated. Then each batch is
    // published once, at its end. Per-response publishes of hundreds of
    // events would multiply sends and client wakeups, which on
    // perfbench's closed-loop saturate_flip (4-vCPU host) cut
    // throughput by a quarter.
    ProcessBatch(batch, /*publish_each=*/ingest_depth + query_depth == 0);
  }
}

void ServeServer::Publish() {
  if (pending_runs_.empty()) return;
  // The batch thread is the only writer of published_seq_.
  const uint64_t seq = published_seq_ + 1;
  // The publish ends every record's serialize stage. Append before the
  // bytes become visible: the IO thread only learns about `seq` under
  // outbox_mu_, so its CompleteFlush always finds the records.
  const int64_t publish_micros = NowMicros();
  for (auto& record : pending_records_) {
    record.publish_seq = seq;
    record.handoff_micros = publish_micros;
    record.serialize_ns = MicrosToNanos(publish_micros, record.run_end_micros);
    request_trace_.Append(std::move(record));
  }
  pending_records_.clear();
  // STATUS frames answer from these mirrors: refresh them before a
  // client can see this response and ask.
  phase_mirror_.store(static_cast<uint32_t>(module_->phase()),
                      std::memory_order_relaxed);
  active_kind_mirror_.store(static_cast<uint32_t>(module_->active_kind()),
                            std::memory_order_relaxed);
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    size_t begin = 0;
    for (const auto& [conn_id, end] : pending_runs_) {
      outbox_[conn_id].append(pending_bytes_, begin, end - begin);
      begin = end;
    }
    published_seq_ = seq;
    wake = io_idle_.exchange(false, std::memory_order_relaxed);
  }
  pending_bytes_.clear();
  pending_runs_.clear();
  if (wake) wake_.Notify();
}

void ServeServer::ProcessBatch(std::vector<AdmittedEvent>& batch,
                               bool publish_each) {
  obs::SpanCollector* collector = obs::GetSpanCollector();

  // Ends one encoded response in pending_bytes_, extending the last run
  // when it goes to the same connection.
  auto end_response = [this](uint64_t conn_id) {
    if (!pending_runs_.empty() && pending_runs_.back().first == conn_id) {
      pending_runs_.back().second = pending_bytes_.size();
    } else {
      pending_runs_.emplace_back(conn_id, pending_bytes_.size());
    }
  };

  // Scratch for the current contiguous query run.
  std::vector<stream::Query> queries;
  std::vector<const AdmittedEvent*> query_events;
  std::vector<core::QueryOutcome> outcomes;
  std::vector<core::QueryStageBreakdown> stage_breakdowns;
  std::vector<uint64_t> root_span_ids;
  size_t batch_queries = 0;

  // Stage-boundary stamps shared across a contiguous run: every request
  // in the run gets the same module window, so per-request stage sums
  // still reconcile exactly with the end-to-end latency.
  auto start_record = [&](const AdmittedEvent& event,
                          obs::RequestTraceStore::RequestClass klass,
                          int64_t run_start_micros, uint64_t root_span_id) {
    obs::RequestTraceStore::Record record;
    record.request_id = event.request_id;
    record.trace_id = event.trace_id;
    record.conn_id = event.conn_id;
    record.request_class = klass;
    record.trace_sampled = event.trace_sampled;
    record.root_span_id = root_span_id;
    record.arrival_micros = event.arrival_micros;
    record.admit_micros = event.admit_micros;
    record.dequeue_micros = event.dequeue_micros;
    record.run_start_micros = run_start_micros;
    record.queue_wait_ns =
        MicrosToNanos(event.dequeue_micros, event.admit_micros);
    record.batch_form_ns =
        MicrosToNanos(run_start_micros, event.dequeue_micros);
    return record;
  };

  auto observe_queue_wait = [&](const AdmittedEvent& event,
                                obs::Histogram* histogram) {
    if (histogram == nullptr) return;
    const double wait_ms =
        static_cast<double>(std::max<int64_t>(
            0, event.dequeue_micros - event.admit_micros)) /
        1000.0;
    histogram->Observe(wait_ms);
  };

  auto flush_queries = [&] {
    if (queries.empty()) return;
    outcomes.resize(queries.size());
    stage_breakdowns.assign(queries.size(), core::QueryStageBreakdown{});
    // Pre-allocate the root span id of every sampled request in the
    // run, then run the module under a span linked to the first one:
    // the module's internal LATEST_SPANs (ground_truth / estimate /
    // model_update) land on the batch thread's track inside the same
    // trace, while the root itself is emitted later by the IO thread
    // at flush completion.
    root_span_ids.assign(queries.size(), 0);
    obs::TraceContext run_link;
    if (collector != nullptr) {
      for (size_t i = 0; i < query_events.size(); ++i) {
        if (!query_events[i]->trace_sampled) continue;
        root_span_ids[i] = collector->NextId();
        if (run_link.span_id == 0) {
          run_link = obs::TraceContext{query_events[i]->trace_id,
                                       root_span_ids[i], true};
        }
      }
    }
    const int64_t run_start_micros = NowMicros();
    {
      obs::Span module_run("module_run", run_link);
      module_->OnQueryBatch(queries.data(), queries.size(),
                            outcomes.data(), stage_breakdowns.data());
    }
    const int64_t run_end_micros = NowMicros();
    for (size_t i = 0; i < queries.size(); ++i) {
      const AdmittedEvent& event = *query_events[i];
      QueryResponse resp;
      resp.request_id = event.request_id;
      resp.estimate = outcomes[i].estimate;
      resp.actual = outcomes[i].actual;
      resp.phase = static_cast<uint32_t>(outcomes[i].phase);
      resp.active_kind = static_cast<uint32_t>(outcomes[i].active);
      EncodeQueryResponse(resp, &pending_bytes_);
      end_response(event.conn_id);
      stats_.queries_answered.fetch_add(1, std::memory_order_relaxed);
      stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
      if (queries_counter_ != nullptr) queries_counter_->Increment();
      if (frames_out_counter_ != nullptr) frames_out_counter_->Increment();
      if (query_latency_histogram_ != nullptr) {
        query_latency_histogram_->Observe(
            static_cast<double>(run_end_micros - event.admit_micros) /
            1000.0);
      }
      observe_queue_wait(event, query_queue_wait_histogram_);
      obs::RequestTraceStore::Record record = start_record(
          event, obs::RequestTraceStore::RequestClass::kQuery,
          run_start_micros, root_span_ids[i]);
      record.run_end_micros = run_end_micros;
      record.module_ns = MicrosToNanos(run_end_micros, run_start_micros);
      record.ground_truth_ns = static_cast<int64_t>(
          stage_breakdowns[i].ground_truth_ms * 1e6);
      record.estimate_ns =
          static_cast<int64_t>(stage_breakdowns[i].estimate_ms * 1e6);
      record.model_ns =
          static_cast<int64_t>(stage_breakdowns[i].model_ms * 1e6);
      pending_records_.push_back(std::move(record));
    }
    if (publish_each) Publish();
    batch_queries += queries.size();
    queries.clear();
    query_events.clear();
  };

  for (AdmittedEvent& event : batch) {
    if (event.kind == AdmittedEvent::Kind::kQuery) {
      // The module requires non-decreasing timestamps across objects and
      // queries; many independent clients cannot coordinate theirs, so
      // the serving plane monotonizes (in place: the batch is ours).
      last_timestamp_ = std::max(last_timestamp_, event.query.timestamp);
      event.query.timestamp = last_timestamp_;
      queries.push_back(std::move(event.query));
      query_events.push_back(&event);
      continue;
    }
    // An ingest ends the current query run (order preservation).
    flush_queries();
    stream::GeoTextObject& obj = event.object;
    last_timestamp_ = std::max(last_timestamp_, obj.timestamp);
    obj.timestamp = last_timestamp_;
    uint64_t ingest_root_id = 0;
    obs::TraceContext ingest_link;
    if (collector != nullptr && event.trace_sampled) {
      ingest_root_id = collector->NextId();
      ingest_link = obs::TraceContext{event.trace_id, ingest_root_id, true};
    }
    const int64_t run_start_micros = NowMicros();
    {
      obs::Span module_run("module_run", ingest_link);
      if (ingest_hook_) {
        ingest_hook_(obj);
      } else {
        module_->OnObject(obj);
      }
    }
    const int64_t run_end_micros = NowMicros();
    stats_.objects_ingested.fetch_add(1, std::memory_order_relaxed);
    if (ingests_counter_ != nullptr) ingests_counter_->Increment();
    EncodeIngestAck({event.request_id}, &pending_bytes_);
    end_response(event.conn_id);
    stats_.frames_out.fetch_add(1, std::memory_order_relaxed);
    if (frames_out_counter_ != nullptr) frames_out_counter_->Increment();
    observe_queue_wait(event, ingest_queue_wait_histogram_);
    obs::RequestTraceStore::Record record = start_record(
        event, obs::RequestTraceStore::RequestClass::kIngest,
        run_start_micros, ingest_root_id);
    record.run_end_micros = run_end_micros;
    record.module_ns = MicrosToNanos(run_end_micros, run_start_micros);
    pending_records_.push_back(std::move(record));
    // The ACK means applied to the module (and appended to the WAL when
    // the ingest hook writes one), which is true now: release it before
    // the rest of the batch runs.
    if (publish_each) Publish();
  }
  flush_queries();
  Publish();

  stats_.batches.fetch_add(1, std::memory_order_relaxed);
  if (batch_size_histogram_ != nullptr && batch_queries > 0) {
    batch_size_histogram_->Observe(static_cast<double>(batch_queries));
  }
}

}  // namespace latest::net
