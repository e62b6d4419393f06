// End-to-end serve plane: an in-process ServeServer + blocking clients
// over real loopback sockets. Verifies the three contracts the daemon
// ships on: (1) answers through the group-commit admission path are
// bit-identical to direct LatestModule calls, (2) overload sheds QUERY
// frames with RETRY_LATER while INGEST keeps landing, and (3) shutdown
// drains every admitted event before closing. The concurrent-clients
// test is the TSan target for the IO-thread / batch-thread handoff.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/serve_server.h"
#include "obs/profiler.h"
#include "obs/request_trace.h"
#include "obs/span.h"
#include "tests/test_http_client.h"
#include "tests/test_stream.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/serialization.h"

namespace latest::net {
namespace {

core::LatestConfig TestConfig() {
  core::LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 20;
  config.monitor_window = 8;
  config.min_queries_between_switches = 8;
  config.estimator.reservoir_capacity = 200;
  config.alpha = 0.0;  // Deterministic lifecycle: replies are comparable.
  return config;
}

std::unique_ptr<core::LatestModule> MustCreate(
    const core::LatestConfig& config) {
  auto created = core::LatestModule::Create(config);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created).value();
}

std::unique_ptr<ServeClient> MustConnect(uint16_t port) {
  auto client = ServeClient::Connect(port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

stream::Query MakeKeywordQuery(uint64_t keyword, int64_t timestamp) {
  stream::Query q;
  q.keywords = {static_cast<stream::KeywordId>(keyword)};
  q.timestamp = timestamp;
  return q;
}

// The core correctness claim: a client speaking the wire protocol gets
// the same estimates and ground truths as code calling the module
// directly, even though the server coalesces admissions into batches.
TEST(ServeE2eTest, EstimatesMatchDirectModuleCalls) {
  auto server_module = MustCreate(TestConfig());
  auto reference_module = MustCreate(TestConfig());

  ServeServerConfig config;
  config.batcher.max_batch = 64;
  ServeServer server(config, server_module.get());
  ASSERT_TRUE(server.Start().ok());

  auto client = MustConnect(server.port());

  // One pipelined connection: admission order == send order, and every
  // admitted event answers in order, so responses line up with this
  // queue of expectations.
  struct Expected {
    bool is_query = false;
    uint64_t request_id = 0;
    double estimate = 0.0;  // From the reference module.
    uint64_t actual = 0;
  };
  std::deque<Expected> expected;
  std::string pipeline;
  uint64_t next_id = 1;
  size_t compared_queries = 0;

  const auto flush_and_check = [&] {
    ASSERT_TRUE(client->SendRaw(pipeline).ok());
    pipeline.clear();
    while (!expected.empty()) {
      auto response = client->ReadResponse();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      const Expected want = expected.front();
      expected.pop_front();
      if (want.is_query) {
        ASSERT_EQ(response->type, FrameType::kQueryResponse);
        EXPECT_EQ(response->query.request_id, want.request_id);
        // Bit-identical, not approximately equal: the batched path must
        // not perturb the estimator pipeline.
        EXPECT_EQ(response->query.estimate, want.estimate);
        EXPECT_EQ(response->query.actual, want.actual);
        ++compared_queries;
      } else {
        ASSERT_EQ(response->type, FrameType::kIngestAck);
        EXPECT_EQ(response->ack.request_id, want.request_id);
      }
    }
  };

  const auto objects =
      testing_support::MakeClusteredObjects(3000, 7, /*duration=*/3000);
  util::Rng rng(23);
  for (size_t i = 0; i < objects.size(); ++i) {
    IngestRequest ingest;
    ingest.request_id = next_id++;
    ingest.object = objects[i];
    EncodeIngest(ingest, &pipeline);
    expected.push_back({false, ingest.request_id, 0.0, 0});
    reference_module->OnObject(objects[i]);

    if (objects[i].timestamp >= 1000 && i % 15 == 0) {
      QueryRequest query;
      query.request_id = next_id++;
      query.query =
          MakeKeywordQuery(rng.NextBounded(50), objects[i].timestamp);
      EncodeQuery(query, &pipeline);
      const core::QueryOutcome outcome =
          reference_module->OnQuery(query.query);
      expected.push_back(
          {true, query.request_id, outcome.estimate, outcome.actual});
    }
    if (expected.size() >= 64) flush_and_check();
  }
  flush_and_check();
  EXPECT_GT(compared_queries, 100u);

  // The mirrored lifecycle state agrees with the reference module too.
  ASSERT_TRUE(client->SendStatus({next_id}).ok());
  auto status = client->ReadResponse();
  ASSERT_TRUE(status.ok());
  ASSERT_EQ(status->type, FrameType::kStatusResponse);
  EXPECT_EQ(status->status.objects_ingested, objects.size());
  EXPECT_EQ(status->status.queries_answered, compared_queries);
  EXPECT_EQ(status->status.shed, 0u);
  EXPECT_EQ(status->status.phase,
            static_cast<uint32_t>(reference_module->phase()));
  EXPECT_EQ(status->status.active_kind,
            static_cast<uint32_t>(reference_module->active_kind()));

  // Batching actually happened (otherwise this test proves nothing
  // about the coalesced path).
  EXPECT_LT(server.stats().batches.load(),
            server.stats().queries_answered.load() +
                server.stats().objects_ingested.load());
  server.Stop();
}

// Stalls the batch thread deterministically: installed as the server's
// ingest hook, it blocks every ingest until Release(), so whatever is
// admitted meanwhile stays queued. Ingests then reach the module as
// usual.
class BatchThreadStall {
 public:
  explicit BatchThreadStall(core::LatestModule* module) : module_(module) {}

  std::function<void(const stream::GeoTextObject&)> Hook() {
    return [this](const stream::GeoTextObject& obj) {
      stalled_.store(true);
      stalled_.notify_all();
      released_.wait();
      module_->OnObject(obj);
    };
  }

  /// Blocks until the batch thread sits in the hook.
  void WaitUntilStalled() { stalled_.wait(false); }

  void Release() { released_.count_down(); }

 private:
  core::LatestModule* const module_;
  std::atomic<bool> stalled_{false};
  std::latch released_{1};
};

IngestRequest MakeIngest(uint64_t request_id, uint64_t oid,
                         int64_t timestamp) {
  IngestRequest ingest;
  ingest.request_id = request_id;
  ingest.object.oid = oid;
  ingest.object.loc = {10.0, 10.0};
  ingest.object.keywords = {static_cast<stream::KeywordId>(oid % 50)};
  ingest.object.timestamp = timestamp;
  return ingest;
}

TEST(ServeE2eTest, OverloadShedsQueriesButKeepsIngesting) {
  auto module = MustCreate(TestConfig());
  BatchThreadStall stall(module.get());
  ServeServerConfig config;
  config.batcher.max_query_queue = 2;
  ServeServer server(config, module.get(), stall.Hook());
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server.port());

  // Park the batch thread in an ingest, so nothing drains the queues.
  ASSERT_TRUE(client->SendIngest(MakeIngest(1, 0, 2000)).ok());
  stall.WaitUntilStalled();

  // Blast one pipelined burst of queries far past the queue cap, then
  // ingests behind it.
  constexpr uint64_t kQueries = 200;
  constexpr uint64_t kIngests = 50;
  std::string burst;
  for (uint64_t i = 0; i < kQueries; ++i) {
    QueryRequest query;
    query.request_id = 1000 + i;
    query.query = MakeKeywordQuery(i % 50, 2000);
    EncodeQuery(query, &burst);
  }
  for (uint64_t i = 0; i < kIngests; ++i) {
    EncodeIngest(MakeIngest(5000 + i, i + 1, 2000 + static_cast<int64_t>(i)),
                 &burst);
  }
  ASSERT_TRUE(client->SendRaw(burst).ok());
  while (server.stats().frames_in.load() < 1 + kQueries + kIngests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stall.Release();

  // Shed responses come from the IO thread and answered ones from the
  // batch thread, so the interleaving is arbitrary — count by type.
  uint64_t answered = 0;
  uint64_t shed = 0;
  uint64_t acked = 0;
  for (uint64_t i = 0; i < 1 + kQueries + kIngests; ++i) {
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->type == FrameType::kQueryResponse) {
      ++answered;
    } else if (response->type == FrameType::kIngestAck) {
      ++acked;
    } else {
      ASSERT_EQ(response->type, FrameType::kRetryLater);
      EXPECT_EQ(response->retry.rejected_type,
                static_cast<uint32_t>(FrameType::kQuery));
      EXPECT_GT(response->retry.backoff_hint_ms, 0u);
      ++shed;
    }
  }
  // The stalled thread took nothing, so exactly the queue cap answered.
  EXPECT_EQ(answered, config.batcher.max_query_queue);
  EXPECT_EQ(shed, kQueries - answered);
  EXPECT_EQ(server.stats().shed_queries.load(), shed);

  // Ingest still landed while queries shed: the shed policy protects the
  // stream, not the other way around.
  EXPECT_EQ(acked, 1 + kIngests);
  EXPECT_EQ(server.stats().shed_ingests.load(), 0u);
  EXPECT_EQ(server.stats().objects_ingested.load(), 1 + kIngests);
  server.Stop();
}

TEST(ServeE2eTest, CleanShutdownDrainsAdmittedWork) {
  auto module = MustCreate(TestConfig());
  BatchThreadStall stall(module.get());
  ServeServer server(ServeServerConfig{}, module.get(), stall.Hook());
  ASSERT_TRUE(server.Start().ok());
  auto client = MustConnect(server.port());
  auto probe = MustConnect(server.port());

  // Park the batch thread, then queue a burst behind it.
  ASSERT_TRUE(client->SendIngest(MakeIngest(1, 0, 0)).ok());
  stall.WaitUntilStalled();
  constexpr uint64_t kEvents = 32;
  std::string burst;
  for (uint64_t i = 1; i <= kEvents; ++i) {
    EncodeIngest(MakeIngest(i + 1, i, static_cast<int64_t>(i)), &burst);
  }
  ASSERT_TRUE(client->SendRaw(burst).ok());
  while (server.stats().frames_in.load() < 1 + kEvents) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Stop with the burst still queued. Stop blocks until the batch thread
  // drains, so it runs on its own thread.
  std::thread stopper([&server] { server.Stop(); });

  // Confirm Stop has closed admission before releasing the stall: a
  // probe ingest sheds once it has. The STATUS frame behind each probe
  // is answered inline, so its arrival means the probe was decided.
  uint64_t probes_admitted = 0;
  for (uint64_t id = 100;; ++id) {
    std::string frames;
    EncodeIngest(MakeIngest(id, id, kEvents), &frames);
    EncodeStatus({id}, &frames);
    ASSERT_TRUE(probe->SendRaw(frames).ok());
    auto response = probe->ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->type == FrameType::kRetryLater) break;
    ASSERT_EQ(response->type, FrameType::kStatusResponse);
    ++probes_admitted;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stall.Release();
  stopper.join();

  // Every admitted ingest was applied and its ack flushed before close.
  EXPECT_EQ(server.stats().objects_ingested.load(),
            1 + kEvents + probes_admitted);
  for (uint64_t i = 0; i <= kEvents; ++i) {
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok()) << "ack " << i << ": "
                               << response.status().ToString();
    EXPECT_EQ(response->type, FrameType::kIngestAck);
    EXPECT_EQ(response->ack.request_id, i + 1);
  }
  // Then EOF, not a hang.
  EXPECT_FALSE(client->ReadResponse().ok());

  server.Stop();  // Idempotent.
  EXPECT_FALSE(server.running());
}

TEST(ServeE2eTest, GarbageFrameGetsErrorThenClose) {
  auto module = MustCreate(TestConfig());
  ServeServer server(ServeServerConfig{}, module.get());
  ASSERT_TRUE(server.Start().ok());

  auto bad_client = MustConnect(server.port());
  // "GET " as a length prefix claims a ~540 MB payload: instant
  // protocol error (the serve port is not an HTTP port).
  ASSERT_TRUE(bad_client->SendRaw("GET / HTTP/1.1\r\n\r\n").ok());
  auto response = bad_client->ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->type, FrameType::kError);
  EXPECT_FALSE(bad_client->ReadResponse().ok());  // Connection closed.

  // A client sending a response-typed frame is equally a protocol error.
  auto confused_client = MustConnect(server.port());
  std::string frame;
  EncodeIngestAck({1}, &frame);
  ASSERT_TRUE(confused_client->SendRaw(frame).ok());
  response = confused_client->ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->type, FrameType::kError);

  EXPECT_GE(server.stats().protocol_errors.load(), 2u);

  // The server survives both and still serves well-formed clients.
  auto good_client = MustConnect(server.port());
  ASSERT_TRUE(good_client->SendStatus({9}).ok());
  auto status = good_client->ReadResponse();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->type, FrameType::kStatusResponse);
  server.Stop();
}

// The TSan acceptance test: concurrent connections drive ingest, query,
// and status traffic through both server threads while the module flips
// phases underneath. Totals must reconcile exactly and shutdown must be
// clean with clients still connected.
TEST(ServeE2eTest, ConcurrentClientsReconcileAndShutdownCleanly) {
  auto module = MustCreate(TestConfig());
  ServeServerConfig config;
  config.batcher.max_batch = 32;
  ServeServer server(config, module.get());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 6;
  constexpr uint64_t kEventsPerClient = 400;
  std::atomic<uint64_t> total_acked{0};
  std::atomic<uint64_t> total_answered{0};
  std::atomic<uint64_t> total_shed{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = ServeClient::Connect(server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      util::Rng rng(100 + static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < kEventsPerClient; ++i) {
        const uint64_t request_id =
            (static_cast<uint64_t>(t + 1) << 32) | i;
        const int64_t timestamp = static_cast<int64_t>(i * 4);
        util::Status sent;
        if (i % 10 == 3) {
          QueryRequest query;
          query.request_id = request_id;
          query.query = MakeKeywordQuery(rng.NextBounded(50), timestamp);
          sent = (*client)->SendQuery(query);
        } else if (i % 97 == 0) {
          sent = (*client)->SendStatus({request_id});
        } else {
          IngestRequest ingest;
          ingest.request_id = request_id;
          stream::GeoTextObject obj;
          obj.oid = request_id;
          obj.loc = {rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
          obj.keywords = {static_cast<stream::KeywordId>(
              rng.NextBounded(50))};
          obj.timestamp = timestamp;
          ingest.object = obj;
          sent = (*client)->SendIngest(ingest);
        }
        if (!sent.ok()) {
          failures.fetch_add(1);
          return;
        }
        auto response = (*client)->ReadResponse();
        if (!response.ok()) {
          failures.fetch_add(1);
          return;
        }
        switch (response->type) {
          case FrameType::kIngestAck:
            total_acked.fetch_add(1);
            break;
          case FrameType::kQueryResponse:
            total_answered.fetch_add(1);
            break;
          case FrameType::kStatusResponse:
            break;
          case FrameType::kRetryLater:
            total_shed.fetch_add(1);
            break;
          default:
            failures.fetch_add(1);
            return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().objects_ingested.load(), total_acked.load());
  EXPECT_EQ(server.stats().queries_answered.load(), total_answered.load());
  EXPECT_EQ(server.stats().shed_queries.load() +
                server.stats().shed_ingests.load(),
            total_shed.load());
  EXPECT_EQ(server.stats().protocol_errors.load(), 0u);
  EXPECT_GT(total_answered.load(), 0u);

  // Stop with live (idle) connections: no crash, no hang.
  auto lingering = MustConnect(server.port());
  server.Stop();
  EXPECT_FALSE(lingering->ReadResponse().ok());
}

/// Installs a span collector for one test body and clears the global
/// again even on assertion failure.
class ScopedSpanCollector {
 public:
  explicit ScopedSpanCollector(obs::SpanCollector* collector) {
    obs::SetSpanCollector(collector);
  }
  ~ScopedSpanCollector() { obs::SetSpanCollector(nullptr); }
};

TEST(ServeE2eTest, HelloNegotiationAndMixedVersionInterop) {
  // New client ↔ new server: the handshake enables trace context.
  auto module = MustCreate(TestConfig());
  ServeServer server(ServeServerConfig{}, module.get());
  ASSERT_TRUE(server.Start().ok());
  auto negotiated = ServeClient::ConnectNegotiated(server.port());
  ASSERT_TRUE(negotiated.ok()) << negotiated.status().ToString();
  EXPECT_TRUE((*negotiated)->trace_enabled());

  // A trailered request round-trips on the negotiated connection.
  IngestRequest traced;
  traced.request_id = 1;
  traced.object.oid = 1;
  traced.object.loc = {1.0, 1.0};
  traced.object.keywords = {7};
  traced.object.timestamp = 100;
  traced.trace = {/*present=*/true, /*trace_id=*/0xfeed, /*sampled=*/true};
  ASSERT_TRUE((*negotiated)->SendIngest(traced).ok());
  auto ack = (*negotiated)->ReadResponse();
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, FrameType::kIngestAck);

  // Old client (no HELLO) ↔ new server: the pre-extension wire format
  // still works on the same port.
  auto old_client = MustConnect(server.port());
  ASSERT_TRUE(old_client->SendStatus({2}).ok());
  auto status = old_client->ReadResponse();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->type, FrameType::kStatusResponse);
  server.Stop();

  // New client ↔ old server (HELLO unknown): ConnectNegotiated falls
  // back to an untraced connection transparently.
  auto old_module = MustCreate(TestConfig());
  ServeServerConfig old_config;
  old_config.accept_hello = false;
  ServeServer old_server(old_config, old_module.get());
  ASSERT_TRUE(old_server.Start().ok());
  auto fallback = ServeClient::ConnectNegotiated(old_server.port());
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_FALSE((*fallback)->trace_enabled());
  ASSERT_TRUE((*fallback)->SendStatus({3}).ok());
  status = (*fallback)->ReadResponse();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->type, FrameType::kStatusResponse);
  old_server.Stop();
}

// The tentpole acceptance: traced requests produce waterfalls whose
// stage durations sum exactly to the end-to-end latency, and span trees
// that cross the IO → batch thread boundary under one trace id.
TEST(ServeE2eTest, TracedWaterfallsReconcileAndSpansLinkAcrossThreads) {
  obs::SpanCollector collector(1 << 14);
  ScopedSpanCollector scoped(&collector);

  auto module = MustCreate(TestConfig());
  ServeServerConfig config;
  config.batcher.max_batch = 64;
  ServeServer server(config, module.get());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(obs::GetRequestTraceStore(), &server.request_trace());

  auto client_result = ServeClient::ConnectNegotiated(server.port());
  ASSERT_TRUE(client_result.ok());
  auto client = std::move(client_result).value();
  ASSERT_TRUE(client->trace_enabled());

  const auto objects =
      testing_support::MakeClusteredObjects(1200, 7, /*duration=*/3000);
  util::Rng rng(29);
  uint64_t next_id = 1;
  uint64_t traced_queries = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    IngestRequest ingest;
    ingest.request_id = next_id++;
    ingest.object = objects[i];
    ingest.trace = {/*present=*/true, /*trace_id=*/0x40000000u + i,
                    /*sampled=*/(i % 8 == 0)};
    ASSERT_TRUE(client->SendIngest(ingest).ok());
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->type, FrameType::kIngestAck);

    if (objects[i].timestamp >= 1000 && i % 15 == 0) {
      QueryRequest query;
      query.request_id = next_id++;
      query.query =
          MakeKeywordQuery(rng.NextBounded(50), objects[i].timestamp);
      query.trace = {/*present=*/true, /*trace_id=*/0x80000000u + i,
                     /*sampled=*/true};
      ASSERT_TRUE(client->SendQuery(query).ok());
      response = client->ReadResponse();
      ASSERT_TRUE(response.ok());
      ASSERT_EQ(response->type, FrameType::kQueryResponse);
      ++traced_queries;
    }
  }
  ASSERT_GT(traced_queries, 20u);
  server.Stop();
  EXPECT_EQ(obs::GetRequestTraceStore(), nullptr);

  // Every flushed waterfall reconciles exactly: the five stages are
  // contiguous by construction, so their sum IS the total.
  const std::vector<obs::RequestTraceStore::Record> recent =
      server.request_trace().Recent();
  ASSERT_FALSE(recent.empty());
  size_t reconciled = 0;
  const obs::RequestTraceStore::Record* sampled_query = nullptr;
  for (const auto& record : recent) {
    if (!record.flushed) continue;
    EXPECT_EQ(record.queue_wait_ns + record.batch_form_ns +
                  record.module_ns + record.serialize_ns + record.flush_ns,
              record.total_ns)
        << "request " << record.request_id;
    EXPECT_NE(record.trace_id, 0u);
    ++reconciled;
    if (record.request_class ==
            obs::RequestTraceStore::RequestClass::kQuery &&
        record.trace_sampled && record.root_span_id != 0) {
      sampled_query = &record;
      // Module attribution nests inside the module stage.
      EXPECT_LE(record.ground_truth_ns + record.estimate_ns +
                    record.model_ns,
                record.module_ns + 1000000);
    }
  }
  ASSERT_GT(reconciled, 0u);
  ASSERT_NE(sampled_query, nullptr);

  // The slowest board only holds finalised records.
  for (const auto& record : server.request_trace().Slowest()) {
    EXPECT_TRUE(record.flushed);
    EXPECT_GT(record.total_ns, 0);
  }

  // Span linkage: the sampled query's root span exists, carries the
  // wire trace id, parents the six serve stages, and the module_run
  // span ran on a different thread than the flush-time emission.
  const std::vector<obs::SpanRecord> spans = collector.Snapshot();
  const obs::SpanRecord* root = nullptr;
  for (const auto& span : spans) {
    if (span.id == sampled_query->root_span_id) root = &span;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_STREQ(root->name, "serve_request");
  EXPECT_EQ(root->trace_id, sampled_query->trace_id);
  EXPECT_EQ(root->parent_id, 0u);

  std::map<std::string, const obs::SpanRecord*> children;
  const obs::SpanRecord* module_run = nullptr;
  for (const auto& span : spans) {
    if (span.parent_id != root->id) continue;
    EXPECT_EQ(span.trace_id, root->trace_id) << span.name;
    if (std::string(span.name) == "module_run") {
      module_run = &span;
    } else {
      children.emplace(span.name, &span);
    }
  }
  for (const char* stage : {"io_read", "queue_wait", "batch_form",
                            "module_query", "serialize", "flush"}) {
    EXPECT_EQ(children.count(stage), 1u) << "missing stage " << stage;
  }
  // The synthesized stages were emitted from the IO thread; the real
  // module_run span (when this request led its batch) ran on the batch
  // thread — when present, the tree crosses threads.
  bool crossed = false;
  for (const auto& span : spans) {
    if (span.name != nullptr && std::string(span.name) == "module_run" &&
        span.parent_id != 0) {
      for (const auto& other : spans) {
        if (other.id == span.parent_id && other.tid != span.tid) {
          crossed = true;
        }
      }
    }
  }
  EXPECT_TRUE(crossed) << "no trace tree crossed the IO/batch threads";
  if (module_run != nullptr) {
    const auto* stage = children["module_query"];
    ASSERT_NE(stage, nullptr);
    EXPECT_NE(module_run->tid, stage->tid);
  }
}

// Tracing must never perturb the estimation pipeline: a fully traced +
// sampled connection gets answers bit-identical to direct module calls
// (the tracing-off reference path).
TEST(ServeE2eTest, TracingDoesNotPerturbEstimates) {
  obs::SpanCollector collector(1 << 13);
  ScopedSpanCollector scoped(&collector);

  auto server_module = MustCreate(TestConfig());
  auto reference_module = MustCreate(TestConfig());
  ServeServerConfig config;
  ServeServer server(config, server_module.get());
  ASSERT_TRUE(server.Start().ok());
  auto client_result = ServeClient::ConnectNegotiated(server.port());
  ASSERT_TRUE(client_result.ok());
  auto client = std::move(client_result).value();
  ASSERT_TRUE(client->trace_enabled());

  const auto objects =
      testing_support::MakeClusteredObjects(1500, 7, /*duration=*/3000);
  util::Rng rng(23);
  uint64_t next_id = 1;
  size_t compared = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    IngestRequest ingest;
    ingest.request_id = next_id++;
    ingest.object = objects[i];
    ingest.trace = {/*present=*/true, /*trace_id=*/next_id,
                    /*sampled=*/true};
    ASSERT_TRUE(client->SendIngest(ingest).ok());
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->type, FrameType::kIngestAck);
    reference_module->OnObject(objects[i]);

    if (objects[i].timestamp >= 1000 && i % 15 == 0) {
      QueryRequest query;
      query.request_id = next_id++;
      query.query =
          MakeKeywordQuery(rng.NextBounded(50), objects[i].timestamp);
      query.trace = {/*present=*/true, /*trace_id=*/next_id,
                     /*sampled=*/true};
      ASSERT_TRUE(client->SendQuery(query).ok());
      response = client->ReadResponse();
      ASSERT_TRUE(response.ok());
      ASSERT_EQ(response->type, FrameType::kQueryResponse);
      const core::QueryOutcome outcome =
          reference_module->OnQuery(query.query);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(response->query.estimate, outcome.estimate);
      EXPECT_EQ(response->query.actual, outcome.actual);
      ++compared;
    }
  }
  EXPECT_GT(compared, 50u);
  server.Stop();
}

// TSan target: /requestz, /profilez, /statusz, and /vars scraped
// concurrently with live serve traffic must stay race-free and return
// well-formed responses.
TEST(ServeE2eTest, ConcurrentIntrospectionScrapesDuringLoad) {
  obs::SpanCollector collector(1 << 13);
  ScopedSpanCollector scoped(&collector);
  obs::Profiler profiler;
  obs::SetProfiler(&profiler);

  core::LatestConfig module_config = TestConfig();
  module_config.enable_introspection = true;
  module_config.introspection_port = 0;  // Ephemeral.
  auto module = MustCreate(module_config);
  ASSERT_NE(module->observer().introspection(), nullptr);
  const uint16_t http_port = module->observer().introspection()->port();

  ServeServerConfig config;
  ServeServer server(config, module.get());
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<int> scrape_failures{0};
  std::thread load([&] {
    auto client_result = ServeClient::ConnectNegotiated(server.port());
    if (!client_result.ok()) {
      scrape_failures.fetch_add(100);
      return;
    }
    auto client = std::move(client_result).value();
    const auto objects =
        testing_support::MakeClusteredObjects(2000, 7, /*duration=*/3000);
    util::Rng rng(31);
    uint64_t next_id = 1;
    for (size_t i = 0; i < objects.size() && !done.load(); ++i) {
      IngestRequest ingest;
      ingest.request_id = next_id++;
      ingest.object = objects[i];
      ingest.trace = {true, next_id, i % 4 == 0};
      if (!client->SendIngest(ingest).ok() ||
          !client->ReadResponse().ok()) {
        return;
      }
      if (objects[i].timestamp >= 1000 && i % 10 == 0) {
        QueryRequest query;
        query.request_id = next_id++;
        query.query =
            MakeKeywordQuery(rng.NextBounded(50), objects[i].timestamp);
        query.trace = {true, next_id, true};
        if (!client->SendQuery(query).ok() ||
            !client->ReadResponse().ok()) {
          return;
        }
      }
    }
  });

  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&, t] {
      for (int round = 0; round < 6; ++round) {
        for (const char* path :
             {"/requestz", "/requestz?json", "/statusz", "/vars"}) {
          const auto result = testing_support::HttpGet(http_port, path);
          if (result.status != 200) scrape_failures.fetch_add(1);
        }
        if (t == 0) {
          // One sampling window per round on one scraper; concurrent
          // /profilez calls serialize inside the profiler.
          const auto profile = testing_support::HttpGet(
              http_port, "/profilez?seconds=0.05");
          if (profile.status != 200) scrape_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& scraper : scrapers) scraper.join();
  done.store(true);
  load.join();
  EXPECT_EQ(scrape_failures.load(), 0);

  // The JSON view parses and reports appended requests.
  const auto json = testing_support::HttpGet(http_port, "/requestz?json");
  ASSERT_EQ(json.status, 200);
  auto parsed = util::ParseJson(json.body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_GT(parsed->Get("total_appended").AsInt(), 0);

  server.Stop();
  obs::SetProfiler(nullptr);
}

}  // namespace
}  // namespace latest::net
