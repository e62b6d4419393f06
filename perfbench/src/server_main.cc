// perfbench_server: hosts one net::ServeServer around a LatestModule
// built from a benchmark workload's configuration.
//
// No span collector, profiler or introspection server is installed, so
// timed runs see the production serving path only. With a WAL workload,
// ingest goes through persist::CheckpointManager exactly as
// `latest_serve --checkpoint-dir` wires it, in a fresh directory under
// --work-dir that is removed at exit.
//
// Protocol with the load generator: prints `READY port=<p>` once
// accepting; on SIGTERM/SIGINT drains, stops, and prints one
// `REPORT {...}` JSON line (peak RSS, serve counters), then exits 0.
// The load generator samples the server's CPU time itself, per thread,
// at every measured window boundary.
//
// Usage: perfbench_server --workload NAME --work-dir DIR

#include <signal.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>

#include "bench_common.h"
#include "net/serve_server.h"
#include "persist/checkpoint_manager.h"

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_server: %s\n", message.c_str());
  std::exit(1);
}

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is no use here: posix_spawn shares the parent's memory
/// until exec, and Linux carries that high-water mark into the child.
double PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Block the stop signals before any thread exists so every thread
  // inherits the mask and sigwait below is the only receiver.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  // Stop (through the same sigwait) if the load generator dies first, so
  // no server outlives the run.
  prctl(PR_SET_PDEATHSIG, SIGTERM);

  std::string workload_name;
  std::string work_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload_name = argv[i + 1];
    } else if (flag == "--work-dir") {
      work_dir = argv[i + 1];
    } else {
      Die("unknown flag " + flag);
    }
  }
  const perfbench::Workload* workload =
      perfbench::FindWorkload(workload_name);
  if (workload == nullptr) Die("unknown workload '" + workload_name + "'");

  auto created = latest::core::LatestModule::Create(
      perfbench::ModuleConfig(*workload));
  if (!created.ok()) Die(created.status().ToString());
  std::unique_ptr<latest::core::LatestModule> module =
      std::move(created).value();

  std::filesystem::path wal_dir;
  std::unique_ptr<latest::persist::CheckpointManager> manager;
  std::function<void(const latest::stream::GeoTextObject&)> ingest_hook;
  uint64_t wal_errors = 0;
  if (workload->wal) {
    wal_dir = std::filesystem::path(work_dir) /
              ("wal-" + std::to_string(::getpid()));
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    latest::persist::DurabilityConfig durability;
    durability.dir = wal_dir.string();
    durability.checkpoint_every = 200000;
    auto attached =
        latest::persist::CheckpointManager::Attach(durability, module.get());
    if (!attached.ok()) Die(attached.status().ToString());
    manager = std::move(attached).value();
    ingest_hook = [&manager, &wal_errors](
                      const latest::stream::GeoTextObject& obj) {
      if (!manager->OnObject(obj).ok()) ++wal_errors;
    };
  }

  latest::net::ServeServerConfig serve_config;
  serve_config.batcher = perfbench::ServeBatcherConfig();
  latest::net::ServeServer server(serve_config, module.get(),
                                  std::move(ingest_hook));
  if (const auto status = server.Start(); !status.ok()) {
    Die(status.ToString());
  }
  std::printf("READY port=%u\n", server.port());
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&stop_signals, &signal_number);

  server.Stop();
  if (manager != nullptr && !manager->Sync().ok()) ++wal_errors;
  manager.reset();
  if (!wal_dir.empty()) std::filesystem::remove_all(wal_dir);

  const latest::net::ServeStats& stats = server.stats();
  perfbench::JsonObject report;
  report.Num("maxrss_kb", PeakRssKb())
      .Num("queries", static_cast<double>(stats.queries_answered.load()))
      .Num("ingests", static_cast<double>(stats.objects_ingested.load()))
      .Num("shed", static_cast<double>(stats.shed_queries.load() +
                                       stats.shed_ingests.load()))
      .Num("protocol_errors",
           static_cast<double>(stats.protocol_errors.load()))
      .Num("batches", static_cast<double>(stats.batches.load()))
      .Num("wal_errors", static_cast<double>(wal_errors));
  std::printf("REPORT %s\n", report.str().c_str());
  std::fflush(stdout);
  return 0;
}
