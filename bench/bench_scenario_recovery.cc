// Drift-recovery benchmark over the adversarial scenario library.
//
// Replays the three detection-gated catalog scenarios (flip, flash_crowd,
// vocab_churn) at bench volume and reports how fast the lifecycle notices
// and recovers from each injected drift: detection delay in answered
// queries, time-to-recover in window slices, switch count, tau hit rate,
// and counterfactual regret. One RESULT_JSON line per scenario feeds
// scripts/bench_regress.py — detection delay and recovery are
// deterministic for a fixed seed, so the tolerance bands are tight.
//
// Honours LATEST_BENCH_SCALE (object volume).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "workload/scenario.h"
#include "workload/scenario_runner.h"

int main() {
  using namespace latest;

  const double scale = bench::BenchScale();
  // The stock smoke stream is 16000 objects over 8000 event-time ms
  // (2 objects/ms); scale the volume and keep the cadence.
  const uint64_t objects = std::max<uint64_t>(
      4000, static_cast<uint64_t>(320000.0 * scale));
  const int64_t duration_ms = static_cast<int64_t>(objects / 2);

  bench::PrintHeader("Scenario drift recovery",
                     "detection delay and time-to-recover per adversarial "
                     "scenario");
  std::printf("objects: %llu over %lld ms\n\n",
              static_cast<unsigned long long>(objects),
              static_cast<long long>(duration_ms));

  int failures = 0;
  for (const char* name : {"flip", "flash_crowd", "vocab_churn"}) {
    auto entry = workload::MakeScenario(name, objects, duration_ms);
    if (!entry.ok()) {
      std::fprintf(stderr, "%s: %s\n", name, entry.status().ToString().c_str());
      return 1;
    }
    auto outcome = workload::RunScenario(*entry);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s: %s\n", name,
                   outcome.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "%-12s detect %4llu queries  recover %3lld slices  switches %2llu  "
        "tau-hit %.3f  regret %.3f%s\n",
        name,
        static_cast<unsigned long long>(outcome->DetectionDelayMax()),
        static_cast<long long>(outcome->RecoverSlicesMax()),
        static_cast<unsigned long long>(outcome->switches),
        outcome->tau_hit_rate, outcome->cumulative_regret,
        outcome->gates_passed ? "" : "  [GATE FAILED]");
    for (const std::string& failure : outcome->gate_failures) {
      std::printf("             ! %s\n", failure.c_str());
    }
    if (!outcome->gates_passed) ++failures;
    std::printf("RESULT_JSON %s\n",
                workload::ToResultJson(*outcome).c_str());
  }
  return failures > 0 ? 3 : 0;
}
