// latest_stream_run: deterministic streaming run with optional durability
// and crash/resume, for the crash-recovery smoke test.
//
// The stream (clustered objects; 70/15/15 keyword/spatial/hybrid queries
// every 10th object once the window filled) is a pure function of
// --seed/--objects/--duration, so two processes fed the same flags see
// identical events. With --checkpoint-dir every event is write-ahead
// logged and the module snapshots every --checkpoint-every events;
// --kill-after N raises SIGKILL (no cleanup, a real crash) after N events
// reach the module; --resume recovers from the newest snapshot + WAL and
// fast-forwards the generators to the recovered position before
// continuing.
//
// The module runs the shadow-mode ServingConfig
// (src/workload/scenario_runner.h), the configuration and drift
// detector the scenario gates measure.
//
// The final RESULT_JSON line carries the CRC-32 of the module's
// deterministic lifecycle digest (SaveDeterministicState): a
// killed-and-resumed run must print the same state_crc as an
// uninterrupted one — that is the bit-identical recovery contract,
// asserted by scripts/crash_recovery_smoke.sh. `drift_detections` is the
// drift monitor's lifetime count over every monitored series.
//
// Live introspection: --metrics-port P starts the embedded HTTP server
// (0 binds an ephemeral port; the bound port is printed to stderr) with
// /metrics, /healthz, /statusz, and /tracez. --trace-out FILE
// enables span tracing (sampling every Nth root with --span-sample) and
// writes Chrome trace-event JSON loadable in Perfetto at exit.
// --pace-us D sleeps D microseconds per event so a human (or a CI curl
// loop) can scrape the endpoints mid-run.
//
// The stream itself comes from the adversarial scenario library
// (src/workload/scenario.h): --scenario NAME replays any catalog
// scenario under durability/introspection; the default is the
// stationary `baseline`. --flip-workload-at N is kept as an alias for
// the `flip` scenario with its abrupt cluster + vocabulary jump pinned
// at object N.
//
// When the module's SLO monitor is degraded at shutdown the process
// exits 2 (distinguishable from flag errors, which exit 1).
//
// Usage:
//   latest_stream_run [--scenario NAME] [--objects N] [--duration MS]
//                     [--seed S] [--checkpoint-dir DIR]
//                     [--checkpoint-every N] [--kill-after N] [--resume]
//                     [--metrics-port P] [--trace-out FILE]
//                     [--span-sample N] [--pace-us D]
//                     [--flip-workload-at N]

#include <signal.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/latest_module.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "persist/checkpoint_manager.h"
#include "persist/crc32.h"
#include "result_json.h"
#include "stream/object.h"
#include "stream/query.h"
#include "workload/scenario.h"
#include "workload/scenario_runner.h"

namespace {

using latest::core::LatestConfig;
using latest::core::LatestModule;
using latest::persist::CheckpointManager;
using latest::persist::DurabilityConfig;

struct Options {
  uint64_t objects = 8000;
  int64_t duration_ms = 4000;
  uint64_t seed = 5;
  std::string checkpoint_dir;
  uint64_t checkpoint_every = 1000;
  uint64_t kill_after = 0;  // 0 = run to completion.
  bool resume = false;
  int metrics_port = -1;  // -1 = no server; 0 = ephemeral port.
  std::string trace_out;
  uint32_t span_sample = 1;
  uint64_t pace_us = 0;  // Sleep per event (for live scraping).
  std::string scenario = "baseline";
  uint64_t flip_workload_at = 0;  // != 0 forces the `flip` scenario.
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "latest_stream_run: %s\n", message.c_str());
  std::exit(1);
}

// The stream is a scenario-library replay: --scenario picks the shape,
// --flip-workload-at N overrides it with the `flip` scenario whose
// abrupt cluster + vocabulary jump lands at object N.
latest::workload::ScenarioSpec MakeSpec(const Options& options) {
  const bool forced_flip = options.flip_workload_at != 0;
  auto entry = latest::workload::MakeScenario(
      forced_flip ? "flip" : options.scenario, options.objects,
      options.duration_ms, options.seed);
  if (!entry.ok()) Die(entry.status().ToString());
  latest::workload::ScenarioSpec spec = std::move(entry).value().spec;
  if (forced_flip) {
    const double at = static_cast<double>(options.flip_workload_at) /
                      static_cast<double>(options.objects);
    spec.spatial_shift_begin = spec.spatial_shift_end = at;
    spec.vocab_shift_begin = spec.vocab_shift_end = at;
  }
  return spec;
}

LatestConfig MakeConfig(const Options& options,
                        const latest::workload::ScenarioSpec& spec) {
  LatestConfig config = latest::workload::ServingConfig(
      spec, latest::workload::ServingMode::kShadow);
  if (options.metrics_port >= 0) {
    config.enable_introspection = true;
    config.introspection_port = static_cast<uint16_t>(options.metrics_port);
    config.slo_tick_ms = 250;  // Keep /healthz fresh for short CI runs.
  }
  return config;
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--objects") {
      options.objects = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--duration") {
      options.duration_ms = std::strtoll(value().c_str(), nullptr, 10);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--checkpoint-dir") {
      options.checkpoint_dir = value();
    } else if (arg == "--checkpoint-every") {
      options.checkpoint_every = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--kill-after") {
      options.kill_after = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--metrics-port") {
      options.metrics_port =
          static_cast<int>(std::strtol(value().c_str(), nullptr, 10));
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--span-sample") {
      options.span_sample =
          static_cast<uint32_t>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (arg == "--pace-us") {
      options.pace_us = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--scenario") {
      options.scenario = value();
    } else if (arg == "--flip-workload-at") {
      options.flip_workload_at = std::strtoull(value().c_str(), nullptr, 10);
    } else {
      Die("unknown flag: " + arg);
    }
  }
  if (options.objects == 0) Die("--objects must be > 0");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const latest::workload::ScenarioSpec spec = MakeSpec(options);
  const LatestConfig config = MakeConfig(options, spec);

  // Span tracing: install the process-global collector before the first
  // event so ingest/query roots are captured from the start.
  std::unique_ptr<latest::obs::SpanCollector> spans;
  if (!options.trace_out.empty()) {
    spans = std::make_unique<latest::obs::SpanCollector>(
        /*capacity=*/1 << 18, options.span_sample);
    latest::obs::SetSpanCollector(spans.get());
  }

  std::unique_ptr<LatestModule> module;
  uint64_t recovered_objects = 0;
  uint64_t recovered_queries = 0;
  uint64_t replayed = 0;
  if (options.resume) {
    if (options.checkpoint_dir.empty()) {
      Die("--resume requires --checkpoint-dir");
    }
    auto recovered =
        CheckpointManager::Recover(options.checkpoint_dir, config);
    if (!recovered.ok()) Die(recovered.status().ToString());
    module = std::move(recovered.value().module);
    recovered_objects = module->objects_ingested();
    recovered_queries = module->queries_answered();
    replayed = recovered.value().replayed_objects +
               recovered.value().replayed_queries;
    std::fprintf(stderr,
                 "resumed from snapshot %" PRIu64 " (+%" PRIu64
                 " WAL events): %" PRIu64 " objects, %" PRIu64
                 " queries already consumed\n",
                 recovered.value().snapshot_seq, replayed, recovered_objects,
                 recovered_queries);
  } else {
    auto created = LatestModule::Create(config);
    if (!created.ok()) Die(created.status().ToString());
    module = std::move(created).value();
  }
  if (module->observer().introspection() != nullptr) {
    std::fprintf(stderr, "introspection server on http://127.0.0.1:%u\n",
                 module->observer().introspection()->port());
  }

  std::unique_ptr<CheckpointManager> manager;
  if (!options.checkpoint_dir.empty()) {
    DurabilityConfig durability;
    durability.dir = options.checkpoint_dir;
    durability.checkpoint_every = options.checkpoint_every;
    auto attached = CheckpointManager::Attach(durability, module.get());
    if (!attached.ok()) Die(attached.status().ToString());
    manager = std::move(attached).value();
  }

  const auto feed_object = [&](const latest::stream::GeoTextObject& obj) {
    if (manager != nullptr) {
      const latest::util::Status status = manager->OnObject(obj);
      if (!status.ok()) Die(status.ToString());
    } else {
      module->OnObject(obj);
    }
  };
  const auto feed_query = [&](const latest::stream::Query& q) {
    if (manager != nullptr) {
      const auto outcome = manager->OnQuery(q);
      if (!outcome.ok()) Die(outcome.status().ToString());
    } else {
      module->OnQuery(q);
    }
  };

  // The scenario stream is replayed from event 0 on every run; events
  // the recovered module already consumed are generated (to advance the
  // RNG streams identically) but not fed again.
  const auto kill_if_due = [&]() {
    if (options.kill_after != 0 &&
        module->objects_ingested() + module->queries_answered() >=
            options.kill_after) {
      ::kill(::getpid(), SIGKILL);  // A real crash: no destructors run.
    }
  };
  latest::workload::ScenarioStream stream(spec);
  uint64_t objects_generated = 0;
  uint64_t queries_generated = 0;
  while (stream.HasNext()) {
    const latest::workload::ScenarioEvent event = stream.Next();
    if (!event.is_query) {
      ++objects_generated;
      if (objects_generated > recovered_objects) {
        feed_object(event.object);
        kill_if_due();
      }
      if (options.pace_us != 0) ::usleep(options.pace_us);
      continue;
    }
    ++queries_generated;
    if (queries_generated > recovered_queries) {
      feed_query(event.query);
      kill_if_due();
    }
  }
  if (manager != nullptr) {
    const latest::util::Status status = manager->Sync();
    if (!status.ok()) Die(status.ToString());
  }

  if (spans != nullptr) {
    latest::obs::SetSpanCollector(nullptr);
    const latest::util::Status status =
        latest::obs::WriteTraceEventFile(*spans, options.trace_out);
    if (!status.ok()) Die(status.ToString());
    std::fprintf(stderr,
                 "wrote %" PRIu64 " spans (%" PRIu64
                 " dropped) to %s — load in ui.perfetto.dev\n",
                 spans->recorded(), spans->dropped(),
                 options.trace_out.c_str());
  }

  // Digest of the serialized lifecycle (minus wall-clock latency stats,
  // which are re-measured on replay): identical streams must end in
  // byte-identical state, crash or no crash.
  latest::util::BinaryWriter state;
  module->SaveDeterministicState(&state);
  const uint32_t state_crc = latest::persist::Crc32(state.buffer());

  // Quality-observability outcome: lifetime drift detections across all
  // monitored series and audit-trail totals.
  const uint64_t drift_detections = module->observer().drift_detections();
  uint64_t audit_entries = 0;
  if (module->observer().audit_trail() != nullptr) {
    audit_entries =
        module->observer().audit_trail()->GetSummary().total_recorded;
  }
  const bool degraded = module->observer().slo_monitor().degraded();

  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", state_crc);
  latest::tools::ResultJson("stream_run")
      .U64("objects", module->objects_ingested())
      .U64("queries", module->queries_answered())
      .U64("switches", module->switch_log().size())
      .Str("final_phase", latest::core::PhaseName(module->phase()))
      .Str("active",
           latest::estimators::EstimatorKindName(module->active_kind()))
      .U64("model_leaves",
           static_cast<uint64_t>(module->model().num_leaves()))
      .U64("resumed", options.resume ? 1 : 0)
      .U64("replayed", replayed)
      .U64("snapshots",
           manager != nullptr ? manager->snapshots_taken() : 0)
      .Str("state_crc", crc_hex)
      .U64("drift_detections", drift_detections)
      .U64("audit_entries", audit_entries)
      .U64("degraded", degraded ? 1 : 0)
      .Print();
  // Exit 2 signals "ran to completion but degraded at shutdown" — CI
  // treats it as a soft failure distinct from flag/IO errors (exit 1).
  return degraded ? 2 : 0;
}
