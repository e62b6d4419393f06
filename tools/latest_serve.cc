// latest_serve: the network query-serving daemon (ROADMAP item 1).
//
// Hosts one LatestModule behind the src/net RPC plane: a loopback
// length-prefixed binary protocol accepting concurrent INGEST / QUERY /
// STATUS frames, group-commit admission into the module (the batch
// thread takes everything admitted while it was busy, so batch size
// follows load and the batch kernels see real batches under it), and
// SLO-driven load shedding (RETRY_LATER with backoff hints; QUERY sheds
// before INGEST).
//
// The module runs in production mode: only the active estimator and a
// pre-filling candidate are maintained. The paper's evaluation mode
// (every estimator measured on every query) stays with latest_stream_run
// and the benches that reproduce the paper's figures.
//
// Durability: --checkpoint-dir DIR recovers the newest snapshot + WAL
// tail at boot (fresh module when the directory is empty), write-ahead
// logs every ingest, and syncs at shutdown. Queries bypass the WAL —
// they mutate only learned state, which the next snapshot captures. A
// failed WAL append or sync is reported on stderr, counted as
// `wal_errors` in RESULT_JSON, and makes the daemon exit non-zero.
//
// Introspection: --metrics-port P serves /metrics, /healthz, /statusz
// etc. from the embedded HTTP plane, including the latest_serve_*
// series, and arms the serve-specific SLO rules. The serve daemon also
// installs the request-tracing plane: a process-global span collector
// (per-request trace trees on /tracez?dump, linked across the IO and
// batch threads), the request waterfall store (/requestz), and the
// SIGPROF sampling self-profiler (/profilez?seconds=N), whose latest
// profile rides along in flight-recorder postmortem bundles.
//
// The daemon prints `SERVE_READY port=<port>` once accepting, runs
// until SIGINT/SIGTERM, then drains admitted work and prints one
// RESULT_JSON line with lifetime serve counters.
//
// Usage:
//   latest_serve [--port P] [--max-batch N]
//                [--max-query-queue N] [--max-ingest-queue N]
//                [--degraded-divisor N] [--max-connections N]
//                [--metrics-port P]
//                [--checkpoint-dir DIR] [--run-for-ms MS]
//                [--span-capacity N] [--no-profiler]

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "core/latest_module.h"
#include "net/serve_server.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "persist/checkpoint_manager.h"
#include "result_json.h"
#include "workload/scenario.h"

namespace {

using latest::core::LatestConfig;
using latest::core::LatestModule;

struct Options {
  uint16_t port = 0;
  uint32_t max_batch = 64;
  uint32_t max_query_queue = 4096;
  uint32_t max_ingest_queue = 65536;
  uint32_t degraded_divisor = 8;
  uint32_t max_connections = 256;
  int metrics_port = -1;
  std::string checkpoint_dir;
  int64_t run_for_ms = 0;  // 0 = until signal.
  uint64_t seed = 5;
  /// Span-collector ring capacity; 0 disables span tracing entirely.
  size_t span_capacity = 8192;
  bool profiler = true;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "latest_serve: %s\n", message.c_str());
  std::exit(1);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--port") {
      options.port = static_cast<uint16_t>(std::strtoul(
          value().c_str(), nullptr, 10));
    } else if (arg == "--max-batch") {
      options.max_batch = std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg == "--max-query-queue") {
      options.max_query_queue = std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg == "--max-ingest-queue") {
      options.max_ingest_queue =
          std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg == "--degraded-divisor") {
      options.degraded_divisor =
          std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg == "--max-connections") {
      options.max_connections =
          std::strtoul(value().c_str(), nullptr, 10);
    } else if (arg == "--metrics-port") {
      options.metrics_port = std::atoi(value().c_str());
    } else if (arg == "--checkpoint-dir") {
      options.checkpoint_dir = value();
    } else if (arg == "--run-for-ms") {
      options.run_for_ms = std::strtoll(value().c_str(), nullptr, 10);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--span-capacity") {
      options.span_capacity = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--no-profiler") {
      options.profiler = false;
    } else {
      Die("unknown flag " + arg);
    }
  }
  return options;
}

/// Module config matching the driver tools' serving shape: the scenario
/// catalog's spatial bounds, deterministic alpha = 0 lifecycle,
/// production mode (no shadow estimators).
LatestConfig MakeConfig(const Options& options) {
  auto entry = latest::workload::MakeScenario("baseline");
  if (!entry.ok()) Die(entry.status().ToString());
  LatestConfig config;
  config.bounds = entry->spec.bounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 40;
  config.monitor_window = 16;
  config.min_queries_between_switches = 16;
  config.estimator.reservoir_capacity = 500;
  config.default_estimator = latest::estimators::EstimatorKind::kH4096;
  config.maintain_shadow_estimators = false;
  config.alpha = 0.0;
  config.seed = options.seed;
  if (options.metrics_port >= 0) {
    config.enable_introspection = true;
    config.introspection_port =
        static_cast<uint16_t>(options.metrics_port);
    config.slo_tick_ms = 250;
  }
  return config;
}

volatile std::sig_atomic_t g_stop = 0;

void StopHandler(int /*signo*/) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const LatestConfig config = MakeConfig(options);

  // Install the tracing plane before the module exists: the module's
  // flight recorder attaches the process-global span collector at
  // Create, so the collector must already be in place.
  std::unique_ptr<latest::obs::SpanCollector> spans;
  if (options.span_capacity > 0) {
    spans = std::make_unique<latest::obs::SpanCollector>(
        options.span_capacity);
    latest::obs::SetSpanCollector(spans.get());
  }
  std::unique_ptr<latest::obs::Profiler> profiler;
  if (options.profiler) {
    profiler = std::make_unique<latest::obs::Profiler>();
    latest::obs::SetProfiler(profiler.get());
  }

  // Recover from the checkpoint directory when one is given; NotFound
  // (empty dir) starts fresh.
  std::unique_ptr<LatestModule> module;
  uint64_t replayed = 0;
  if (!options.checkpoint_dir.empty()) {
    auto recovered = latest::persist::CheckpointManager::Recover(
        options.checkpoint_dir, config);
    if (recovered.ok()) {
      module = std::move(recovered->module);
      replayed =
          recovered->replayed_objects + recovered->replayed_queries;
    } else if (recovered.status().code() !=
               latest::util::StatusCode::kNotFound) {
      Die("recover failed: " + recovered.status().ToString());
    }
  }
  if (module == nullptr) {
    auto created = LatestModule::Create(config);
    if (!created.ok()) Die(created.status().ToString());
    module = std::move(created).value();
  }

  // Arm the serve-plane SLO rules next to the module's defaults.
  for (const latest::obs::SloRule& rule : latest::obs::ServeSloRules()) {
    module->observer().slo_monitor().AddRule(rule);
  }

  // Postmortem bundles carry the latest folded CPU profile.
  if (profiler != nullptr && module->observer().flight_recorder() != nullptr) {
    module->observer().flight_recorder()->AttachProfiler(profiler.get());
  }

  std::unique_ptr<latest::persist::CheckpointManager> manager;
  if (!options.checkpoint_dir.empty()) {
    latest::persist::DurabilityConfig durability;
    durability.dir = options.checkpoint_dir;
    durability.checkpoint_every = 200000;
    auto attached = latest::persist::CheckpointManager::Attach(
        durability, module.get());
    if (!attached.ok()) Die(attached.status().ToString());
    manager = std::move(attached).value();
  }

  latest::net::ServeServerConfig serve_config;
  serve_config.port = options.port;
  serve_config.batcher.max_batch = options.max_batch;
  serve_config.batcher.max_query_queue = options.max_query_queue;
  serve_config.batcher.max_ingest_queue = options.max_ingest_queue;
  serve_config.batcher.degraded_divisor = options.degraded_divisor;
  serve_config.max_connections = options.max_connections;

  // Route ingest through the WAL when durability is on. The hook runs
  // on the batch thread; `wal_errors` is read only after server.Stop()
  // has joined it.
  uint64_t wal_errors = 0;
  const auto check_wal = [&wal_errors](const char* what,
                                       const latest::util::Status& status) {
    if (!status.ok() && wal_errors++ == 0) {
      std::fprintf(stderr, "latest_serve: WAL %s failed: %s\n", what,
                   status.ToString().c_str());
    }
  };
  std::function<void(const latest::stream::GeoTextObject&)> ingest_hook;
  if (manager != nullptr) {
    ingest_hook = [&manager, &check_wal](
                      const latest::stream::GeoTextObject& obj) {
      check_wal("append", manager->OnObject(obj));
    };
  }
  latest::net::ServeServer server(serve_config, module.get(),
                                  std::move(ingest_hook));
  if (const auto status = server.Start(); !status.ok()) {
    Die(status.ToString());
  }

  std::signal(SIGINT, StopHandler);
  std::signal(SIGTERM, StopHandler);

  std::printf("SERVE_READY port=%u\n", server.port());
  std::fflush(stdout);
  if (module->observer().introspection() != nullptr) {
    std::fprintf(stderr, "metrics on 127.0.0.1:%u\n",
                 module->observer().introspection()->port());
  }

  const auto started = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (options.run_for_ms > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::milliseconds(options.run_for_ms)) {
      break;
    }
  }

  // The introspection thread reads the server's request-trace store and
  // the tracing globals; stop it first, so neither is freed or unset
  // under a page render.
  if (module->observer().introspection() != nullptr) {
    module->observer().introspection()->Stop();
  }
  server.Stop();
  if (manager != nullptr) check_wal("sync", manager->Sync());

  // Tear the tracing globals down before their owners go out of scope.
  if (latest::obs::GetProfiler() == profiler.get()) {
    latest::obs::SetProfiler(nullptr);
  }
  if (latest::obs::GetSpanCollector() == spans.get()) {
    latest::obs::SetSpanCollector(nullptr);
  }

  const latest::net::ServeStats& stats = server.stats();
  latest::tools::ResultJson("serve")
      .U64("queries", stats.queries_answered.load())
      .U64("ingests", stats.objects_ingested.load())
      .U64("frames_in", stats.frames_in.load())
      .U64("frames_out", stats.frames_out.load())
      .U64("shed_queries", stats.shed_queries.load())
      .U64("shed_ingests", stats.shed_ingests.load())
      .U64("protocol_errors", stats.protocol_errors.load())
      .U64("batches", stats.batches.load())
      .U64("replayed", replayed)
      .U64("wal_errors", wal_errors)
      .Str("final_phase", latest::core::PhaseName(module->phase()))
      .Str("active",
           latest::estimators::EstimatorKindName(module->active_kind()))
      .Print();
  return wal_errors == 0 ? 0 : 1;
}
