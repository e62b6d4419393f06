// latest_scenario_run: end-to-end replay of one named adversarial
// scenario (src/workload/scenario.h) with per-scenario acceptance gates.
//
// Runs the deterministic alpha = 0 lifecycle over the scenario stream
// and prints a RESULT_JSON line with the accuracy trajectory, tau hit
// rate, switch count, drift detections, counterfactual regret, and the
// detection-delay / time-to-recover verdict for every injected drift.
//
// Exit codes: 0 = gates passed, 1 = flag/spec/IO error, 3 = one or more
// acceptance gates failed (the failures are listed in the JSON and on
// stderr). The CI scenario matrix runs each catalog scenario through
// this binary.
//
// Usage:
//   latest_scenario_run --scenario NAME [--objects N] [--duration MS]
//                       [--seed S]
//   latest_scenario_run --list

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "result_json.h"
#include "workload/scenario.h"
#include "workload/scenario_runner.h"

namespace {

struct Options {
  std::string scenario;
  bool list = false;
  uint64_t objects = 16000;
  int64_t duration_ms = 8000;
  uint64_t seed = 5;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "latest_scenario_run: %s\n", message.c_str());
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
    if (arg == "--scenario") {
      options.scenario = value();
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--objects") {
      options.objects = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--duration") {
      options.duration_ms = std::strtoll(value().c_str(), nullptr, 10);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else {
      Die("unknown flag: " + arg);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  if (options.list) {
    for (const std::string& name : latest::workload::ScenarioNames()) {
      const auto entry = latest::workload::MakeScenario(name);
      std::printf("%-16s %s\n", name.c_str(),
                  entry.ok() ? entry->spec.description.c_str() : "?");
    }
    return 0;
  }
  if (options.scenario.empty()) {
    Die("--scenario NAME is required (see --list)");
  }

  auto entry = latest::workload::MakeScenario(
      options.scenario, options.objects, options.duration_ms, options.seed);
  if (!entry.ok()) Die(entry.status().ToString());

  auto outcome = latest::workload::RunScenario(*entry);
  if (!outcome.ok()) Die(outcome.status().ToString());

  latest::tools::ResultJson::PrintResultJsonLine(
      latest::workload::ToResultJson(*outcome));
  if (!outcome->gates_passed) {
    for (const std::string& failure : outcome->gate_failures) {
      std::fprintf(stderr, "GATE FAILED [%s]: %s\n",
                   options.scenario.c_str(), failure.c_str());
    }
    return 3;
  }
  return 0;
}
