// perfbench_layers: the traced run. Drives one workload's generated
// events through each layer's public functions, first one layer at a
// time, then stacked, and times every call from here.
//
// Alone:
//   net.protocol   Encode*/Decode* and FrameReader over every event;
//   net.batcher    a Batcher with a null module, fed the workload's
//                  arrival schedule (open loop: event-time pacing over
//                  [trace_from_ms, trace_until_ms); closed loop: the
//                  workload's outstanding window);
//   core.create    LatestModule::Create;
//   exact          ExactEvaluator inserts and scalar / batched truth;
//   estimators     each paper estimator's Insert and Estimate;
//   persist        WalWriter appends of every object.
// Stacked:
//   core           a served-shape module replay (OnObject per ingest,
//                  OnQueryBatch per contiguous query run), with the
//                  quality plane on and again with it off;
//   ml             Hoeffding-tree training and prediction on the
//                  replayed module's schema and recommendations;
//   persist        CheckpointManager snapshots of the replayed module;
//   core+persist   the replay through CheckpointManager (WAL workloads
//                  only).
//
// Spans are recorded here, around the calls, into an in-memory
// obs::SpanCollector that is never installed process-wide (so the
// library's own LATEST_SPANs stay off), written at exit with
// obs::WriteTraceEventFile. The JSON line on stdout carries the layer
// metrics, the self time per span name, and the inputs of the ledger.
//
// Usage: perfbench_layers --workload NAME --seed N --work-dir DIR
//                         --trace-out FILE

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "estimators/estimator.h"
#include "exact/exact_evaluator.h"
#include "ml/hoeffding_tree.h"
#include "net/batcher.h"
#include "net/protocol.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "persist/checkpoint_manager.h"
#include "persist/wal.h"
#include "stream/sliding_window.h"

namespace {

namespace core = latest::core;
namespace ml = latest::ml;
namespace net = latest::net;
using latest::workload::ScenarioEvent;
using perfbench::NowNs;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_layers: %s\n", message.c_str());
  std::exit(1);
}

/// Spans kept in a private collector, with a parent stack for nesting.
class SpanLog {
 public:
  SpanLog() : collector_(1 << 18, 1) {}

  /// Opens a span under the innermost open one.
  void Open(const std::string& name) {
    open_.push_back({Intern(name), collector_.NowNanos(), collector_.NextId(),
                     open_.empty() ? 0 : open_.back().id});
  }

  void Close() {
    const Pending span = open_.back();
    open_.pop_back();
    Emit(span.name, span.id, span.parent, span.start_ns,
         collector_.NowNanos());
  }

  /// Records a finished child of the innermost open span from steady
  /// clock stamps taken by the caller.
  void Child(const std::string& name, int64_t start_steady_ns,
             int64_t end_steady_ns) {
    const int64_t offset =
        collector_.NanosFromSteadyMicros(0);  // -epoch, in ns.
    Emit(Intern(name), collector_.NextId(),
         open_.empty() ? 0 : open_.back().id, start_steady_ns + offset,
         end_steady_ns + offset);
  }

  const latest::obs::SpanCollector& collector() const { return collector_; }

  /// Span duration minus the time its children cover, summed per name.
  std::map<std::string, double> SelfMsByName() const {
    const std::vector<latest::obs::SpanRecord> spans = collector_.Snapshot();
    std::unordered_map<uint64_t, int64_t> child_ns;
    for (const auto& span : spans) child_ns[span.parent_id] += span.duration_ns;
    std::map<std::string, double> self_ms;
    for (const auto& span : spans) {
      const auto it = child_ns.find(span.id);
      const int64_t covered = it == child_ns.end() ? 0 : it->second;
      self_ms[span.name] +=
          static_cast<double>(span.duration_ns - covered) / 1e6;
    }
    return self_ms;
  }

 private:
  struct Pending {
    const char* name;
    int64_t start_ns;
    uint64_t id;
    uint64_t parent;
  };

  const char* Intern(const std::string& name) {
    for (const std::string& known : names_) {
      if (known == name) return known.c_str();
    }
    names_.push_back(name);
    return names_.back().c_str();
  }

  void Emit(const char* name, uint64_t id, uint64_t parent, int64_t start_ns,
            int64_t end_ns) {
    latest::obs::SpanRecord record;
    record.name = name;
    record.start_ns = start_ns;
    record.duration_ns = std::max<int64_t>(0, end_ns - start_ns);
    record.tid = latest::obs::CurrentThreadTid();
    record.id = id;
    record.parent_id = parent;
    record.trace_id = 1;
    collector_.Record(record);
  }

  latest::obs::SpanCollector collector_;
  std::deque<std::string> names_;  // Stable storage for record names.
  std::vector<Pending> open_;
};

/// RAII span over a scope.
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name) : log_(log) { log->Open(name); }
  ~Scope() { log_->Close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
};

struct Output {
  perfbench::JsonObject metrics;
  perfbench::JsonObject ledger;
};

/// Times `body` (which runs `count` operations) three times and returns
/// the median nanoseconds per operation.
template <typename Body>
double NsPerOp(SpanLog* spans, const std::string& name, size_t count,
               Body body) {
  std::vector<double> per_op;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t start = NowNs();
    body();
    const int64_t end = NowNs();
    spans->Child(name, start, end);
    per_op.push_back(static_cast<double>(end - start) /
                     static_cast<double>(std::max<size_t>(1, count)));
  }
  return perfbench::Quantile(&per_op, 0.5);
}

// ---------------------------------------------------------------------
// Alone.
// ---------------------------------------------------------------------

void ProtocolLayer(const std::vector<ScenarioEvent>& events, SpanLog* spans,
                   Output* out) {
  Scope scope(spans, "net.protocol");
  std::vector<net::QueryRequest> queries;
  std::vector<net::IngestRequest> ingests;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].is_query) {
      queries.push_back({i + 1, events[i].query, {}});
    } else {
      ingests.push_back({i + 1, events[i].object, {}});
    }
  }
  std::string wire;
  std::vector<std::string> query_frames(queries.size());
  std::vector<std::string> ingest_frames(ingests.size());
  const double encode_query = NsPerOp(
      spans, "net.protocol.encode_query", queries.size(), [&] {
        for (size_t i = 0; i < queries.size(); ++i) {
          query_frames[i].clear();
          net::EncodeQuery(queries[i], &query_frames[i]);
        }
      });
  for (size_t i = 0; i < ingests.size(); ++i) {
    net::EncodeIngest(ingests[i], &ingest_frames[i]);
  }
  net::QueryRequest query;
  const double decode_query = NsPerOp(
      spans, "net.protocol.decode_query", queries.size(), [&] {
        for (const std::string& frame : query_frames) {
          if (!net::DecodeQuery(std::string_view(frame).substr(
                                    net::kFrameHeaderBytes),
                                &query)) {
            Die("query frame does not decode");
          }
        }
      });
  net::IngestRequest ingest;
  const double decode_ingest = NsPerOp(
      spans, "net.protocol.decode_ingest", ingests.size(), [&] {
        for (const std::string& frame : ingest_frames) {
          if (!net::DecodeIngest(std::string_view(frame).substr(
                                     net::kFrameHeaderBytes),
                                 &ingest)) {
            Die("ingest frame does not decode");
          }
        }
      });
  const double encode_response = NsPerOp(
      spans, "net.protocol.encode_response", events.size(), [&] {
        wire.clear();
        for (size_t i = 0; i < events.size(); ++i) {
          if (wire.size() > (1 << 20)) wire.clear();
          if (events[i].is_query) {
            net::EncodeQueryResponse({i + 1, 12.5, 12, 2, 0}, &wire);
          } else {
            net::EncodeIngestAck({i + 1}, &wire);
          }
        }
      });
  // The server's read path: 64 KiB reads appended, frames scanned out.
  std::string stream;
  for (size_t i = 0, q = 0, o = 0; i < events.size(); ++i) {
    stream += events[i].is_query ? query_frames[q++] : ingest_frames[o++];
  }
  const double frame_reader = NsPerOp(
      spans, "net.protocol.frame_reader", events.size(), [&] {
        net::FrameReader reader;
        net::FrameReader::Frame frame;
        size_t frames = 0;
        for (size_t at = 0; at < stream.size(); at += 65536) {
          reader.Append(stream.data() + at,
                        std::min<size_t>(65536, stream.size() - at));
          while (reader.Next(&frame) ==
                 net::FrameReader::Outcome::kFrame) {
            ++frames;
          }
        }
        if (frames != events.size()) Die("frame reader lost frames");
      });
  out->metrics.Num("net.protocol.encode_query_ns", encode_query)
      .Num("net.protocol.decode_query_ns", decode_query)
      .Num("net.protocol.decode_ingest_ns", decode_ingest)
      .Num("net.protocol.encode_response_ns", encode_response)
      .Num("net.protocol.frame_reader_ns", frame_reader);
}

void BatcherLayer(const perfbench::Workload& workload,
                  const std::vector<ScenarioEvent>& events, SpanLog* spans,
                  Output* out) {
  Scope scope(spans, "net.batcher");
  const net::BatcherConfig config = perfbench::ServeBatcherConfig();
  net::Batcher batcher(config);
  const bool closed = workload.loop == perfbench::Loop::kClosed;
  const uint64_t window = uint64_t{workload.window} * perfbench::kConnections;

  std::mutex mu;
  std::condition_variable credit;
  uint64_t in_flight = 0;  // Closed loop: admitted but not yet dequeued.
  std::vector<double> wait_us;
  double batches = 0, query_batches = 0, fill = 0, batch_queries = 0,
         batch_ingests = 0;
  std::thread consumer([&] {
    std::vector<net::AdmittedEvent> batch;
    while (batcher.WaitForBatch(&batch)) {
      size_t queries = 0;
      for (const net::AdmittedEvent& event : batch) {
        if (event.kind != net::AdmittedEvent::Kind::kQuery) continue;
        ++queries;
        wait_us.push_back(
            static_cast<double>(event.dequeue_micros - event.admit_micros));
      }
      batches += 1;
      batch_queries += static_cast<double>(queries);
      batch_ingests += static_cast<double>(batch.size() - queries);
      if (queries > 0) {
        query_batches += 1;
        fill += static_cast<double>(queries) / config.max_batch;
      }
      if (closed) {
        std::lock_guard<std::mutex> lock(mu);
        in_flight -= batch.size();
        credit.notify_one();
      }
    }
  });

  uint64_t admitted = 0, shed = 0;
  const int64_t start = NowNs();
  for (const ScenarioEvent& event : events) {
    const int64_t ts =
        event.is_query ? event.query.timestamp : event.object.timestamp;
    if (ts < workload.trace_from_ms) continue;
    if (closed) {
      std::unique_lock<std::mutex> lock(mu);
      credit.wait(lock, [&] { return in_flight < window; });
      ++in_flight;
    } else {
      const int64_t due = start + (ts - workload.trace_from_ms) * 1000000;
      const int64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
    }
    net::AdmittedEvent admitted_event;
    admitted_event.kind = event.is_query ? net::AdmittedEvent::Kind::kQuery
                                         : net::AdmittedEvent::Kind::kIngest;
    uint32_t backoff_ms = 0;
    if (batcher.Admit(std::move(admitted_event), false, &backoff_ms) ==
        net::AdmitResult::kAdmitted) {
      ++admitted;
    } else {
      ++shed;
      if (closed) {
        std::lock_guard<std::mutex> lock(mu);
        --in_flight;
      }
    }
  }
  batcher.Stop();
  consumer.join();
  spans->Child("net.batcher.schedule", start, NowNs());

  std::vector<double> waits = wait_us;
  out->metrics
      .Num("net.batcher.wait_p50_us", perfbench::Quantile(&waits, 0.5))
      .Num("net.batcher.wait_p99_us", perfbench::Quantile(&waits, 0.99))
      .Num("net.batcher.fill_ratio",
           query_batches > 0 ? fill / query_batches : 0)
      .Num("net.batcher.batch_queries_mean",
           batches > 0 ? batch_queries / batches : 0)
      .Num("net.batcher.shed_frac",
           static_cast<double>(shed) /
               static_cast<double>(std::max<uint64_t>(1, admitted + shed)));
  out->ledger
      .Num("batch_ingests_mean", batches > 0 ? batch_ingests / batches : 0)
      .Num("batch_queries_mean", batches > 0 ? batch_queries / batches : 0);
}

void CreateLayer(const core::LatestConfig& config, SpanLog* spans,
                 Output* out) {
  Scope scope(spans, "core.create");
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    const int64_t start = NowNs();
    auto module = core::LatestModule::Create(config);
    const int64_t end = NowNs();
    if (!module.ok()) Die(module.status().ToString());
    spans->Child("core.create.call", start, end);
    ms.push_back(static_cast<double>(end - start) / 1e6);
  }
  out->metrics.Num("core.create_ms", perfbench::Quantile(&ms, 0.5));
}

const char* TypeName(latest::stream::QueryType type) {
  return latest::stream::QueryTypeName(type);
}

void ExactLayer(const core::LatestConfig& config,
                const std::vector<ScenarioEvent>& events, SpanLog* spans,
                Output* out) {
  Scope scope(spans, "exact");
  latest::exact::ExactEvaluator evaluator(config.bounds,
                                          config.window.window_length_ms);
  constexpr size_t kBatch = 64;
  int64_t insert_ns = 0;
  uint64_t inserts = 0;
  std::map<std::string, std::pair<int64_t, uint64_t>> scalar, batched;
  std::map<std::string, std::vector<latest::stream::Query>> recent;
  std::vector<uint64_t> counts(kBatch);
  const int64_t layer_start = NowNs();
  for (const ScenarioEvent& event : events) {
    if (!event.is_query) {
      const int64_t start = NowNs();
      evaluator.Insert(event.object);
      insert_ns += NowNs() - start;
      ++inserts;
      evaluator.EvictExpired(event.object.timestamp);
      continue;
    }
    const std::string type = TypeName(event.query.Type());
    int64_t start = NowNs();
    const uint64_t truth = evaluator.TrueSelectivity(event.query);
    auto& [scalar_ns, scalar_n] = scalar[type];
    scalar_ns += NowNs() - start;
    ++scalar_n;
    // Every 64th query of a type, its last 64 re-stamped to now as one
    // batch (the shape max_batch gives a served tick).
    std::vector<latest::stream::Query>& ring = recent[type];
    ring.push_back(event.query);
    if (ring.size() > kBatch) ring.erase(ring.begin());
    if (ring.size() == kBatch && scalar_n % kBatch == 0) {
      for (latest::stream::Query& q : ring) q.timestamp = event.query.timestamp;
      start = NowNs();
      evaluator.TrueSelectivityBatch(ring.data(), ring.size(), counts.data());
      auto& [batch_ns, batch_n] = batched[type];
      batch_ns += NowNs() - start;
      batch_n += kBatch;
      if (counts.back() != truth) Die("batched truth differs from scalar");
    }
  }
  spans->Child("exact.replay", layer_start, NowNs());
  out->metrics.Num("exact.insert_ns",
                   static_cast<double>(insert_ns) /
                       static_cast<double>(std::max<uint64_t>(1, inserts)));
  for (const char* type : {"spatial", "keyword", "hybrid"}) {
    const auto [s_ns, s_n] = scalar[type];
    const auto [b_ns, b_n] = batched[type];
    out->metrics
        .Num(std::string("exact.truth_us_per_query.") + type,
             s_n > 0 ? static_cast<double>(s_ns) / 1e3 / s_n : 0)
        .Num(std::string("exact.truth_batch_us_per_query.") + type,
             b_n > 0 ? static_cast<double>(b_ns) / 1e3 / b_n : 0);
  }
}

void EstimatorLayers(const core::LatestConfig& config,
                     const std::vector<ScenarioEvent>& events, SpanLog* spans,
                     Output* out) {
  Scope scope(spans, "estimators");
  latest::estimators::EstimatorConfig est_config = config.estimator;
  est_config.bounds = config.bounds;
  est_config.window = config.window;
  for (uint32_t k = 0; k < latest::estimators::kNumPaperEstimatorKinds; ++k) {
    const auto kind = static_cast<latest::estimators::EstimatorKind>(k);
    const std::string name = latest::estimators::EstimatorKindName(kind);
    est_config.seed = config.seed * latest::estimators::kNumEstimatorKinds + k;
    auto created = latest::estimators::CreateEstimator(kind, est_config);
    if (!created.ok()) Die(created.status().ToString());
    latest::estimators::Estimator& estimator = **created;
    latest::stream::SliceClock clock(config.window);
    int64_t insert_ns = 0, estimate_ns = 0;
    uint64_t inserts = 0, estimates = 0;
    const int64_t layer_start = NowNs();
    double sink = 0;
    for (const ScenarioEvent& event : events) {
      const int64_t ts =
          event.is_query ? event.query.timestamp : event.object.timestamp;
      for (uint32_t r = clock.Advance(ts); r > 0; --r) {
        estimator.OnSliceRotate();
      }
      const int64_t start = NowNs();
      if (event.is_query) {
        sink += estimator.Estimate(event.query);
        estimate_ns += NowNs() - start;
        ++estimates;
      } else {
        estimator.Insert(event.object);
        insert_ns += NowNs() - start;
        ++inserts;
      }
    }
    spans->Child("estimators." + name, layer_start, NowNs());
    if (sink < 0) Die("negative estimate");
    out->metrics
        .Num("estimators." + name + ".estimate_ns",
             static_cast<double>(estimate_ns) /
                 static_cast<double>(std::max<uint64_t>(1, estimates)))
        .Num("estimators." + name + ".insert_ns",
             static_cast<double>(insert_ns) /
                 static_cast<double>(std::max<uint64_t>(1, inserts)));
  }
}

void WalLayer(const std::vector<ScenarioEvent>& events,
              const std::filesystem::path& dir, SpanLog* spans, Output* out) {
  Scope scope(spans, "persist.wal");
  auto wal = latest::persist::WalWriter::Create((dir / "wal.log").string(), 0);
  if (!wal.ok()) Die(wal.status().ToString());
  const int64_t start = NowNs();
  for (const ScenarioEvent& event : events) {
    if (event.is_query) continue;
    if (!(*wal)->AppendObject(event.object).ok()) Die("WAL append failed");
  }
  if (!(*wal)->Sync().ok()) Die("WAL sync failed");
  const int64_t end = NowNs();
  spans->Child("persist.wal.append", start, end);
  const double appended =
      static_cast<double>(std::max<uint64_t>(1, (*wal)->appended()));
  out->metrics
      .Num("persist.wal_append_us", static_cast<double>(end - start) / 1e3 /
                                        appended)
      .Num("persist.fsyncs_per_kevent",
           static_cast<double>((*wal)->syncs()) * 1000.0 / appended)
      .Num("persist.wal_bytes_per_event",
           static_cast<double>((*wal)->bytes_written()) / appended);
}

/// Snapshot time of a replayed module through CheckpointManager.
void SnapshotLayer(core::LatestModule& module,
                   const std::filesystem::path& dir, SpanLog* spans,
                   Output* out) {
  Scope scope(spans, "persist.snapshot");
  std::filesystem::create_directories(dir);
  latest::persist::DurabilityConfig durability;
  durability.dir = dir.string();
  auto manager =
      latest::persist::CheckpointManager::Attach(durability, &module);
  if (!manager.ok()) Die(manager.status().ToString());
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const int64_t start = NowNs();
    if (!(*manager)->Checkpoint().ok()) Die("checkpoint failed");
    const int64_t end = NowNs();
    spans->Child("persist.checkpoint", start, end);
    ms.push_back(static_cast<double>(end - start) / 1e6);
  }
  out->metrics.Num("persist.snapshot_ms", perfbench::Quantile(&ms, 0.5));
}

// ---------------------------------------------------------------------
// Stacked.
// ---------------------------------------------------------------------

struct Replay {
  std::unique_ptr<core::LatestModule> module;
  double total_ms = 0;
  double object_us = 0;
  double query_us = 0;
};

/// Served-shape replay: one OnObject (or CheckpointManager::OnObject)
/// per ingest, one OnQueryBatch per contiguous run of queries. Spans
/// cover each run of consecutive same-kind events.
Replay ReplayModule(const core::LatestConfig& config,
                    const std::vector<ScenarioEvent>& events,
                    const std::filesystem::path& wal_dir, SpanLog* spans,
                    const std::string& span_name) {
  Replay replay;
  auto created = core::LatestModule::Create(config);
  if (!created.ok()) Die(created.status().ToString());
  replay.module = std::move(created).value();
  std::unique_ptr<latest::persist::CheckpointManager> manager;
  if (!wal_dir.empty()) {
    latest::persist::DurabilityConfig durability;
    durability.dir = wal_dir.string();
    durability.checkpoint_every = 200000;
    auto attached =
        latest::persist::CheckpointManager::Attach(durability,
                                                   replay.module.get());
    if (!attached.ok()) Die(attached.status().ToString());
    manager = std::move(attached).value();
  }
  Scope scope(spans, span_name);
  std::vector<latest::stream::Query> run;
  std::vector<core::QueryOutcome> outcomes;
  int64_t object_ns = 0, query_ns = 0;
  uint64_t objects = 0, queries = 0;
  const int64_t start = NowNs();
  size_t i = 0;
  while (i < events.size()) {
    const int64_t run_start = NowNs();
    if (events[i].is_query) {
      run.clear();
      while (i < events.size() && events[i].is_query) {
        run.push_back(events[i++].query);
      }
      outcomes.resize(run.size());
      replay.module->OnQueryBatch(run.data(), run.size(), outcomes.data());
      const int64_t run_end = NowNs();
      query_ns += run_end - run_start;
      queries += run.size();
      spans->Child("core.on_query_batch", run_start, run_end);
    } else {
      const size_t first = i;
      for (; i < events.size() && !events[i].is_query; ++i) {
        if (manager != nullptr) {
          if (!manager->OnObject(events[i].object).ok()) Die("WAL failed");
        } else {
          replay.module->OnObject(events[i].object);
        }
      }
      const int64_t run_end = NowNs();
      object_ns += run_end - run_start;
      objects += i - first;
      spans->Child(manager != nullptr ? "core+persist.on_object"
                                      : "core.on_object",
                   run_start, run_end);
    }
  }
  replay.total_ms = static_cast<double>(NowNs() - start) / 1e6;
  replay.object_us = static_cast<double>(object_ns) / 1e3 /
                     static_cast<double>(std::max<uint64_t>(1, objects));
  replay.query_us = static_cast<double>(query_ns) / 1e3 /
                    static_cast<double>(std::max<uint64_t>(1, queries));
  return replay;
}

ml::FeatureVector Features(const latest::stream::Query& q,
                           const latest::geo::Rect& bounds,
                           double spatial_ratio) {
  ml::FeatureVector f;
  f.categorical = {static_cast<int>(q.Type())};
  f.numeric.assign(5, 0.0);
  if (q.HasRange() && bounds.Area() > 0) {
    f.numeric[0] = q.range->Area() / bounds.Area();
  }
  f.numeric[1] = std::min(1.0, static_cast<double>(q.keywords.size()) / 8.0);
  f.numeric[3] = spatial_ratio;
  f.numeric[4] = 1.0 - spatial_ratio;
  return f;
}

void MlLayer(const core::LatestConfig& config, const core::LatestModule& module,
             const std::vector<ScenarioEvent>& events, SpanLog* spans,
             Output* out) {
  Scope scope(spans, "ml");
  std::vector<ml::TrainingExample> examples;
  double spatial = 0.5;
  for (const ScenarioEvent& event : events) {
    if (!event.is_query) continue;
    spatial = 0.95 * spatial + 0.05 * (event.query.HasRange() ? 1.0 : 0.0);
    examples.push_back(
        {Features(event.query, config.bounds, spatial),
         static_cast<uint32_t>(module.Recommend(event.query))});
  }
  ml::HoeffdingTree tree(module.model().schema(), config.tree);
  int64_t start = NowNs();
  for (const ml::TrainingExample& example : examples) tree.Train(example);
  int64_t end = NowNs();
  spans->Child("ml.tree_train", start, end);
  const double train_ns =
      static_cast<double>(end - start) /
      static_cast<double>(std::max<size_t>(1, examples.size()));
  uint64_t sink = 0;
  start = NowNs();
  for (const ml::TrainingExample& example : examples) {
    sink += tree.Predict(example.features);
  }
  end = NowNs();
  spans->Child("ml.tree_predict", start, end);
  if (sink == ~uint64_t{0}) Die("impossible prediction sum");
  out->metrics.Num("ml.tree_train_ns", train_ns)
      .Num("ml.tree_predict_ns",
           static_cast<double>(end - start) /
               static_cast<double>(std::max<size_t>(1, examples.size())));
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, work_dir = ".", trace_out;
  uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  const perfbench::Workload* workload = perfbench::FindWorkload(workload_name);
  if (workload == nullptr) Die("unknown workload '" + workload_name + "'");

  const std::vector<ScenarioEvent> events =
      perfbench::EventsUntil(*workload, seed, workload->trace_until_ms);
  const core::LatestConfig config = perfbench::ModuleConfig(*workload);
  const std::filesystem::path scratch =
      std::filesystem::path(work_dir) /
      ("layers-" + std::to_string(::getpid()));
  std::filesystem::remove_all(scratch);

  SpanLog spans;
  Output out;
  {
    Scope alone(&spans, "alone");
    ProtocolLayer(events, &spans, &out);
    BatcherLayer(*workload, events, &spans, &out);
    CreateLayer(config, &spans, &out);
    ExactLayer(config, events, &spans, &out);
    EstimatorLayers(config, events, &spans, &out);
    std::filesystem::create_directories(scratch / "wal");
    WalLayer(events, scratch / "wal", &spans, &out);
  }
  {
    Scope stacked(&spans, "stacked");
    const Replay on = ReplayModule(config, events, {}, &spans, "core");
    core::LatestConfig quiet = config;
    quiet.quality.enabled = false;
    const Replay off =
        ReplayModule(quiet, events, {}, &spans, "core.quality_off");
    out.metrics.Num("core.on_object_us", on.object_us)
        .Num("core.on_query_batch_us_per_query", on.query_us)
        .Num("obs.quality_tax_pct",
             100.0 * (on.total_ms - off.total_ms) /
                 std::max(1e-9, off.total_ms));
    out.ledger.Num("on_object_us", on.object_us)
        .Num("on_query_us", on.query_us);
    MlLayer(config, *on.module, events, &spans, &out);

    SnapshotLayer(*on.module, scratch / "snap", &spans, &out);
    double persist_object_us = 0;
    if (workload->wal) {
      std::filesystem::create_directories(scratch / "ckpt");
      persist_object_us = ReplayModule(config, events, scratch / "ckpt",
                                       &spans, "core+persist")
                              .object_us;
    }
    out.ledger.Num("persist_on_object_us", persist_object_us);
  }
  std::filesystem::remove_all(scratch);

  if (!trace_out.empty()) {
    const auto status = latest::obs::WriteTraceEventFile(
        spans.collector(), trace_out, "perfbench_layers");
    if (!status.ok()) Die(status.ToString());
  }
  perfbench::JsonObject self;
  for (const auto& [name, ms] : spans.SelfMsByName()) self.Num(name, ms);
  perfbench::JsonObject result;
  result.Raw("metrics", out.metrics.str())
      .Raw("ledger", out.ledger.str())
      .Raw("self_ms", self.str())
      .Num("events", static_cast<double>(events.size()))
      .Num("spans_dropped", static_cast<double>(spans.collector().dropped()));
  std::printf("%s\n", result.str().c_str());
  return 0;
}
