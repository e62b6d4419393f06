// latest_loadgen: smoke-test load client for latest_serve.
//
// Floods a running serve daemon with a scenario-catalog stream (including
// the flip/burst drift shapes) over N loopback connections, up to 128
// unanswered requests on each, and prints one RESULT_JSON line of counts:
// requests sent and answered per class, `shed` (RETRY_LATER), `errors`
// (transport failures plus unanswered requests), `protocol_errors` and
// `qps` (answered queries per wall second). It reports no latency: behind
// a full window a client-side time measures the window, not the server
// (perfbench/NOTES.md). Latency is `python3 perfbench/run.py`'s job, and
// the daemon's latest_serve_* histograms on /metrics.
//
// Every connection negotiates trace contexts (HELLO; old servers fall back
// to untraced frames), uses each request id as its trace id, and samples
// every 16th request.
//
// Exit codes: 0 = run completed (shedding is a result, not an error),
// 1 = flag error or no connection could be established.
//
// Usage:
//   latest_loadgen --port P [--connections N] [--scenario NAME]
//                  [--objects N] [--duration MS] [--list]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "result_json.h"
#include "workload/scenario.h"

namespace {

using latest::net::FrameType;
using latest::workload::ScenarioEvent;

constexpr uint64_t kSeed = 5;
constexpr uint64_t kWindow = 128;  // Unanswered requests per connection.
constexpr uint64_t kSampleEvery = 16;
constexpr int kIoTimeoutMs = 5000;

// One connection's counts; `connected` and `traced` are 0 or 1.
struct Counts {
  uint64_t connected = 0, traced = 0;
  uint64_t queries_sent = 0, queries_answered = 0;
  uint64_t ingests_sent = 0, ingests_acked = 0;
  uint64_t shed = 0, errors = 0, protocol_errors = 0;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "latest_loadgen: %s\n", message.c_str());
  std::exit(1);
}

/// Sends events `first`, `first + stride`, ... over one connection, then
/// drains every outstanding response.
void RunConnection(uint16_t port, const std::vector<ScenarioEvent>& events,
                   size_t first, size_t stride, Counts& counts) {
  auto connected =
      latest::net::ServeClient::ConnectNegotiated(port, kIoTimeoutMs);
  if (!connected.ok()) {
    counts.errors = 1;
    return;
  }
  latest::net::ServeClient& client = **connected;
  counts.connected = 1;
  counts.traced = client.trace_enabled() ? 1 : 0;

  uint64_t outstanding = 0;
  // Reads one response; false once the connection is no longer usable.
  const auto read_one = [&]() -> bool {
    auto response = client.ReadResponse();
    if (!response.ok()) {
      ++counts.errors;
      return false;
    }
    --outstanding;
    switch (response->type) {
      case FrameType::kQueryResponse:
        ++counts.queries_answered;
        return true;
      case FrameType::kIngestAck:
        ++counts.ingests_acked;
        return true;
      case FrameType::kRetryLater:
        ++counts.shed;
        return true;
      default:
        ++counts.protocol_errors;
        return false;
    }
  };

  const uint64_t id_base = static_cast<uint64_t>(first + 1) << 48;
  uint64_t seq = 0;
  bool ok = true;
  for (size_t i = first; i < events.size(); i += stride) {
    while (ok && outstanding >= kWindow) ok = read_one();
    if (!ok) break;
    const ScenarioEvent& event = events[i];
    const uint64_t request_id = id_base | ++seq;
    latest::net::WireTraceContext trace;
    if (client.trace_enabled()) {
      trace = {true, request_id, seq % kSampleEvery == 0};
    }
    const latest::util::Status sent =
        event.is_query ? client.SendQuery({request_id, event.query, trace})
                       : client.SendIngest({request_id, event.object, trace});
    if (!sent.ok()) {
      ++counts.errors;
      ok = false;
      break;
    }
    ++(event.is_query ? counts.queries_sent : counts.ingests_sent);
    ++outstanding;
  }
  while (ok && outstanding > 0) ok = read_one();
  counts.errors += outstanding;
}

}  // namespace

int main(int argc, char** argv) {
  int port = -1;
  size_t connections = 16;
  std::string scenario = "baseline";
  uint64_t objects = 16000;
  int64_t duration_ms = 8000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--port") {
      port = std::atoi(value().c_str());
    } else if (arg == "--connections") {
      connections = std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg == "--scenario") {
      scenario = value();
    } else if (arg == "--objects") {
      objects = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--duration") {
      duration_ms = std::strtoll(value().c_str(), nullptr, 10);
    } else if (arg == "--list") {
      for (const std::string& name : latest::workload::ScenarioNames()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    } else {
      Die("unknown flag " + arg);
    }
  }
  if (port < 0 || port > 65535) Die("--port is required (0-65535)");
  if (connections == 0) Die("--connections must be > 0");

  auto entry =
      latest::workload::MakeScenario(scenario, objects, duration_ms, kSeed);
  if (!entry.ok()) Die(entry.status().ToString());
  // Scenario streams are pure: generate the events once and deal them
  // round-robin across connections.
  std::vector<ScenarioEvent> events;
  latest::workload::ScenarioStream stream(entry->spec);
  while (stream.HasNext()) events.push_back(stream.Next());
  if (events.empty()) Die("scenario produced no events");

  std::vector<Counts> per_connection(connections);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back(RunConnection, static_cast<uint16_t>(port),
                         std::cref(events), c, connections,
                         std::ref(per_connection[c]));
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();

  // One count summed over every connection.
  const auto total = [&](uint64_t Counts::*count) {
    uint64_t sum = 0;
    for (const Counts& counts : per_connection) sum += counts.*count;
    return sum;
  };
  latest::tools::ResultJson("loadgen")
      .Str("scenario", scenario)
      .U64("connections", connections)
      .U64("traced_connections", total(&Counts::traced))
      .U64("queries_sent", total(&Counts::queries_sent))
      .U64("queries_answered", total(&Counts::queries_answered))
      .U64("ingests_sent", total(&Counts::ingests_sent))
      .U64("ingests_acked", total(&Counts::ingests_acked))
      .U64("shed", total(&Counts::shed))
      .U64("errors", total(&Counts::errors))
      .U64("protocol_errors", total(&Counts::protocol_errors))
      .Dbl("wall_seconds", wall_seconds)
      .Dbl("qps", static_cast<double>(total(&Counts::queries_answered)) /
                      std::max(wall_seconds, 1e-9))
      .Print();
  if (total(&Counts::connected) == 0) Die("no connection could be established");
  return 0;
}
