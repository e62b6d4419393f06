// Embedded HTTP exposition server: request routing, malformed input,
// clean shutdown, and — the TSan target — concurrent scrapes of a live
// LatestModule's introspection endpoints while the stream thread ingests.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/latest_module.h"
#include "obs/http_server.h"
#include "obs/metrics_registry.h"
#include "obs/statusz.h"
#include "tests/test_http_client.h"
#include "tests/test_stream.h"

namespace latest::obs {
namespace {

using testing_support::HttpGet;
using testing_support::HttpGetResult;
using testing_support::HttpRequestRaw;

TEST(HttpServerTest, ServesRegisteredHandlerOnEphemeralPort) {
  HttpServer server;
  server.Handle("/hello", [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "hi " + request.query;
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_NE(server.port(), 0);

  const HttpGetResult result = HttpGet(server.port(), "/hello?name=x");
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "hi name=x");
  EXPECT_NE(result.headers.find("Content-Length: 9"), std::string::npos);
  EXPECT_NE(result.headers.find("Connection: close"), std::string::npos);
  EXPECT_EQ(server.requests_served(), 1u);
  server.Stop();
}

TEST(HttpServerTest, UnknownPathIs404WithEndpointList) {
  HttpServer server;
  server.Handle("/known", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start(0).ok());
  const HttpGetResult result = HttpGet(server.port(), "/missing");
  EXPECT_EQ(result.status, 404);
  EXPECT_NE(result.body.find("/known"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, NonGetIs405AndHeadStripsBody) {
  HttpServer server;
  server.Handle("/data", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "payload";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());

  const HttpGetResult post = HttpGet(server.port(), "/data", "POST");
  EXPECT_EQ(post.status, 405);

  const HttpGetResult head = HttpGet(server.port(), "/data", "HEAD");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  // HEAD still advertises the entity length.
  EXPECT_NE(head.headers.find("Content-Length: 7"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, MalformedRequestsGet400NotConnectionDrop) {
  HttpServer server;
  server.Handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start(0).ok());
  for (const char* junk :
       {"NONSENSE\r\n\r\n", "GET\r\n\r\n", "\r\n\r\n",
        "GET  HTTP/1.1\r\n\r\n"}) {
    const HttpGetResult result = HttpRequestRaw(server.port(), junk);
    EXPECT_EQ(result.status, 400) << "request: " << junk;
  }
  // The server survives malformed input and still serves good requests.
  EXPECT_EQ(HttpGet(server.port(), "/x").status, 200);
  server.Stop();
}

TEST(HttpServerTest, PortConflictFailsStart) {
  HttpServer first;
  first.Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(first.Start(0).ok());
  HttpServer second;
  second.Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  EXPECT_FALSE(second.Start(first.port()).ok());
  first.Stop();
}

TEST(HttpServerTest, StopIsIdempotentAndDestructorCleansUp) {
  auto server = std::make_unique<HttpServer>();
  server->Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server->Start(0).ok());
  const uint16_t port = server->port();
  EXPECT_EQ(HttpGet(port, "/").status, 200);
  server->Stop();
  server->Stop();  // Second Stop is a no-op.
  EXPECT_FALSE(server->running());
  // After Stop the port refuses connections.
  EXPECT_EQ(HttpGet(port, "/").status, 0);
  server.reset();  // Destructor after explicit Stop: no double-free.

  // Destructor alone also shuts down.
  auto second = std::make_unique<HttpServer>();
  second->Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(second->Start(0).ok());
  second.reset();
}

TEST(HttpServerTest, RestartAfterStop) {
  HttpServer server;
  server.Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_EQ(HttpGet(server.port(), "/").status, 200);
  server.Stop();
}

// The TSan acceptance test: scraper threads hammer every introspection
// endpoint while the owning thread streams objects and queries through
// the module. Handlers read only thread-safe telemetry sources, so this
// must be free of data races and torn reads.
TEST(HttpServerTest, ConcurrentScrapesDuringLiveIngest) {
  core::LatestConfig config;
  config.bounds = testing_support::kTestBounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 20;
  config.monitor_window = 8;
  config.estimator.reservoir_capacity = 200;
  config.alpha = 0.0;
  config.enable_introspection = true;
  config.introspection_port = 0;
  config.slo_tick_ms = 5;  // Exercise the ticker thread too.
  auto created = core::LatestModule::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto module = std::move(created).value();
  ASSERT_NE(module->observer().introspection(), nullptr);
  const uint16_t port = module->observer().introspection()->port();
  ASSERT_NE(port, 0);

  std::atomic<bool> stop{false};
  std::atomic<int> scrape_failures{0};
  const std::vector<std::string> paths = {"/metrics", "/statusz",
                                          "/healthz", "/tracez", "/"};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& path = paths[i++ % paths.size()];
        const HttpGetResult result = HttpGet(port, path);
        // /healthz may legitimately be 503 while an SLO breaches.
        if (result.status != 200 && result.status != 503) {
          scrape_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const auto objects =
      testing_support::MakeClusteredObjects(4000, 3, /*duration=*/4000);
  util::Rng rng(17);
  for (size_t i = 0; i < objects.size(); ++i) {
    module->OnObject(objects[i]);
    if (objects[i].timestamp >= 1000 && i % 10 == 0) {
      stream::Query q;
      q.keywords = {static_cast<stream::KeywordId>(rng.NextBounded(50))};
      q.timestamp = objects[i].timestamp;
      module->OnQuery(q);
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : scrapers) t.join();
  EXPECT_EQ(scrape_failures.load(), 0);

  // The scraped metrics reflect the stream that just ran.
  const HttpGetResult metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("latest_objects_ingested_total 4000"),
            std::string::npos);
  const HttpGetResult statusz = HttpGet(port, "/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("phase:"), std::string::npos);
  EXPECT_NE(statusz.body.find("scoreboard"), std::string::npos);

  // Module destruction (server + ticker teardown) under load is clean.
  module.reset();
}

TEST(HttpServerTest, IntrospectionIndexListsEndpoints) {
  MetricsRegistry registry;
  IntrospectionSources sources;
  sources.registry = &registry;
  IntrospectionServer server(sources);
  ASSERT_TRUE(server.Start(0, /*slo_tick_ms=*/0).ok());
  const HttpGetResult index = HttpGet(server.port(), "/");
  EXPECT_EQ(index.status, 200);
  for (const char* endpoint :
       {"/metrics", "/healthz", "/statusz", "/tracez"}) {
    EXPECT_NE(index.body.find(endpoint), std::string::npos) << endpoint;
  }
  // /tracez without a collector reports that tracing is dark.
  const HttpGetResult tracez = HttpGet(server.port(), "/tracez");
  EXPECT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("not installed"), std::string::npos);
  // ?dump without a collector is a 404, not a crash.
  EXPECT_EQ(HttpGet(server.port(), "/tracez?dump").status, 404);
  server.Stop();
}

TEST(HttpServerTest, IntrospectionMetricsServesTheRegistry) {
  MetricsRegistry registry;
  registry.GetCounter("agree_total", "test")->Increment(7);
  IntrospectionSources sources;
  sources.registry = &registry;
  IntrospectionServer server(sources);
  ASSERT_TRUE(server.Start(0, 0).ok());
  const HttpGetResult metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.headers.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.body.find("agree_total 7"), std::string::npos);
  // The JSON exposition is gone.
  EXPECT_EQ(HttpGet(server.port(), "/vars").status, 404);
  server.Stop();
}

}  // namespace
}  // namespace latest::obs
