// Figure 13: impact of the estimation memory budget on latency and
// accuracy (Twitter-like stream, mixed queries). The paper finds an
// accuracy uptrend for every estimator as the budget grows, a linear
// latency increase for AASP and SPN, sub-linear for the rest, and RSH
// the accuracy winner (hence LATEST's choice) at every budget.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/portfolio_harness.h"

int main() {
  using namespace latest;
  const double scale = bench::BenchScale();
  const auto dataset = workload::TwitterLikeSpec(scale);
  const stream::WindowConfig window{60LL * 60 * 1000, 16};

  bench::PrintHeader(
      "Figure 13 - Varying memory budget (Twitter-like stream)",
      "per-estimator latency/accuracy at 0.25x..4x of the default budget");

  // One estimator group per budget multiplier, all fed in a single
  // stream pass.
  const double budgets[] = {0.25, 0.5, 1.0, 2.0, 4.0};
  std::vector<estimators::EstimatorConfig> configs;
  for (const double m : budgets) {
    estimators::EstimatorConfig config;
    config.histogram_cells =
        std::max(64u, static_cast<uint32_t>(config.histogram_cells * m));
    config.reservoir_capacity =
        std::max(64u, static_cast<uint32_t>(config.reservoir_capacity * m));
    config.rsh_grid_cells =
        std::max(64u, static_cast<uint32_t>(config.rsh_grid_cells * m));
    config.aasp_max_nodes =
        std::max(40u, static_cast<uint32_t>(config.aasp_max_nodes * m));
    config.aasp_kmv_size =
        std::max(16u, static_cast<uint32_t>(config.aasp_kmv_size * m));
    config.spn_clusters =
        std::max(2u, static_cast<uint32_t>(config.spn_clusters * m));
    config.spn_bins_per_dim =
        std::max(4u, static_cast<uint32_t>(config.spn_bins_per_dim * m));
    config.spn_keyword_buckets = std::max(
        16u, static_cast<uint32_t>(config.spn_keyword_buckets * m));
    config.ffn_hidden_units =
        std::max(4u, static_cast<uint32_t>(config.ffn_hidden_units * m));
    configs.push_back(config);
  }

  const auto feedback_spec = workload::MakeWorkloadSpec(
      workload::WorkloadId::kTwQW1,
      std::max<uint32_t>(400, static_cast<uint32_t>(800 * scale)));
  workload::QueryGenerator feedback_gen(feedback_spec, dataset);
  std::vector<stream::Query> feedback;
  while (feedback_gen.HasNext()) feedback.push_back(feedback_gen.Next());

  bench::PortfolioHarness harness(dataset, window, configs);
  harness.Feed(feedback);

  // Mixed evaluation batch (TwQW1-style, no phase rotation needed).
  auto eval_spec = workload::MakeWorkloadSpec(workload::WorkloadId::kTwQW1,
                                              /*num_queries=*/400);
  eval_spec.segments = {{{0.34, 0.33, 0.33}, 1.0}};
  eval_spec.seed = 777;
  workload::QueryGenerator eval_gen(eval_spec, dataset);
  std::vector<stream::Query> batch;
  while (eval_gen.HasNext()) batch.push_back(eval_gen.Next());

  std::vector<bench::SweepPoint> points;
  for (size_t g = 0; g < configs.size(); ++g) {
    char label[32];
    std::snprintf(label, sizeof(label), "%.2fx", budgets[g]);
    points.push_back(harness.Evaluate(g, label, batch, /*alpha=*/0.5));
  }
  bench::PrintSweepFigure("Fig. 13: memory-budget impact", "budget",
                          points);

  std::printf("per-estimator memory footprint (KiB) by budget:\n");
  std::printf("  %-8s", "budget");
  for (uint32_t k = 0; k < estimators::kNumPaperEstimatorKinds; ++k) {
    std::printf(" %10s",
                estimators::EstimatorKindName(
                    static_cast<estimators::EstimatorKind>(k)));
  }
  std::printf("\n");
  for (size_t g = 0; g < configs.size(); ++g) {
    std::printf("  %-8.2f", budgets[g]);
    for (uint32_t k = 0; k < estimators::kNumPaperEstimatorKinds; ++k) {
      std::printf(" %10zu",
                  harness.MemoryBytes(
                      g, static_cast<estimators::EstimatorKind>(k)) /
                      1024);
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape (paper): accuracy uptrend with budget for all; "
      "AASP/SPN latency grows ~linearly with budget, others "
      "sub-linearly; RSH best accuracy at every budget.\n");
  return 0;
}
