// Workload explorer: a small CLI to run LATEST over any of the paper's
// dataset/workload combinations and inspect its behaviour.
//
//   ./build/examples/workload_explorer [dataset] [workload] [alpha] [queries]
//
//   dataset : twitter | ebird | checkin          (default twitter)
//   workload: TwQW1..TwQW6 | EbRQW1 | CiQW1      (default TwQW1)
//   alpha   : 0..1                               (default 0.5)
//   queries : query volume                       (default 3000)
//
// After the run it prints the retained lifecycle event log and the full
// Prometheus-text metrics exposition (pipe through `grep latest_` for a
// scrape-shaped view).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/latest_module.h"
#include "obs/event_log.h"
#include "workload/dataset.h"
#include "workload/query_workload.h"
#include "workload/stream_driver.h"

namespace {

using namespace latest;

workload::DatasetSpec DatasetByName(const std::string& name) {
  if (name == "ebird") return workload::EbirdLikeSpec(0.5);
  if (name == "checkin") return workload::CheckinLikeSpec(0.5);
  return workload::TwitterLikeSpec(0.5);
}

bool WorkloadByName(const std::string& name, workload::WorkloadId* id) {
  const struct {
    const char* name;
    workload::WorkloadId id;
  } table[] = {
      {"TwQW1", workload::WorkloadId::kTwQW1},
      {"TwQW2", workload::WorkloadId::kTwQW2},
      {"TwQW3", workload::WorkloadId::kTwQW3},
      {"TwQW4", workload::WorkloadId::kTwQW4},
      {"TwQW5", workload::WorkloadId::kTwQW5},
      {"TwQW6", workload::WorkloadId::kTwQW6},
      {"EbRQW1", workload::WorkloadId::kEbRQW1},
      {"CiQW1", workload::WorkloadId::kCiQW1},
  };
  for (const auto& entry : table) {
    if (name == entry.name) {
      *id = entry.id;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dataset_name = argc > 1 ? argv[1] : "twitter";
  const std::string workload_name = argc > 2 ? argv[2] : "TwQW1";
  const double alpha = argc > 3 ? std::atof(argv[3]) : 0.5;
  const uint32_t num_queries =
      argc > 4 ? static_cast<uint32_t>(std::atoi(argv[4])) : 3000;

  workload::WorkloadId workload_id;
  if (!WorkloadByName(workload_name, &workload_id)) {
    std::fprintf(stderr,
                 "unknown workload '%s' (TwQW1..TwQW6, EbRQW1, CiQW1)\n",
                 workload_name.c_str());
    return 1;
  }
  if (alpha < 0.0 || alpha > 1.0 || num_queries == 0) {
    std::fprintf(stderr, "alpha must be in [0,1], queries > 0\n");
    return 1;
  }

  const auto dataset_spec = DatasetByName(dataset_name);
  workload::DatasetGenerator dataset(dataset_spec);
  const auto workload_spec =
      workload::MakeWorkloadSpec(workload_id, num_queries);
  workload::QueryGenerator queries(workload_spec, dataset_spec);

  core::LatestConfig config;
  config.bounds = dataset_spec.bounds;
  config.window.window_length_ms = 60LL * 60 * 1000;
  config.window.num_slices = 16;
  config.alpha = alpha;
  config.pretrain_queries = std::max(100u, num_queries / 10);
  auto module_result = core::LatestModule::Create(config);
  if (!module_result.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 module_result.status().ToString().c_str());
    return 1;
  }
  core::LatestModule& module = **module_result;

  std::printf("dataset=%s workload=%s alpha=%.2f queries=%u\n\n",
              dataset_spec.name.c_str(), workload_spec.name.c_str(), alpha,
              num_queries);

  workload::StreamDriver driver(&dataset, &queries,
                                config.window.window_length_ms,
                                dataset_spec.duration_ms);
  driver.AttachTelemetry(&module.telemetry().registry());
  double accuracy_sum = 0.0;
  double latency_sum = 0.0;
  uint64_t incremental = 0;
  uint64_t by_type[3] = {};
  driver.Run(
      [&](const stream::GeoTextObject& obj) { module.OnObject(obj); },
      [&](const stream::Query& q, uint32_t) {
        const auto outcome = module.OnQuery(q);
        ++by_type[static_cast<int>(q.Type())];
        if (outcome.phase != core::Phase::kIncremental) return;
        ++incremental;
        accuracy_sum += outcome.accuracy;
        latency_sum += outcome.latency_ms;
        if (outcome.switched) {
          const auto& sw = module.switch_log().back();
          std::printf("switch at incremental query %llu: %s -> %s\n",
                      static_cast<unsigned long long>(sw.query_index),
                      estimators::EstimatorKindName(sw.from),
                      estimators::EstimatorKindName(sw.to));
        }
      });

  std::printf("\nquery mix: %llu spatial, %llu keyword, %llu hybrid\n",
              static_cast<unsigned long long>(by_type[0]),
              static_cast<unsigned long long>(by_type[1]),
              static_cast<unsigned long long>(by_type[2]));
  if (incremental > 0) {
    std::printf("incremental phase: %llu queries, mean accuracy %.3f, "
                "mean latency %.4f ms\n",
                static_cast<unsigned long long>(incremental),
                accuracy_sum / static_cast<double>(incremental),
                latency_sum / static_cast<double>(incremental));
  }
  std::printf("final estimator: %s, switches: %zu, model: %llu records / "
              "%llu leaves / depth %u\n",
              estimators::EstimatorKindName(module.active_kind()),
              module.switch_log().size(),
              static_cast<unsigned long long>(module.model().num_trained()),
              static_cast<unsigned long long>(module.model().num_leaves()),
              module.model().depth());

  std::printf("\n--- lifecycle event log (%zu retained) ---\n%s",
              module.telemetry().events().size(),
              obs::FormatEventLog(module.telemetry().events()).c_str());

  std::printf("\n--- prometheus exposition ---\n%s",
              module.telemetry().registry().PrometheusText().c_str());
  return 0;
}
