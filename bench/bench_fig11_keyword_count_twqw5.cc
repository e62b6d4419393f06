// Figure 11: impact of the number of query keywords (1..5) on query
// workload TwQW5 (pure multi-keyword queries). H4096 is excluded — it
// keeps purely spatial statistics. The paper finds RSH consistently
// chosen with the highest accuracy, stable latency for all estimators,
// and slightly decreasing accuracy for FFN and SPN as keywords grow.

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_common.h"
#include "bench/portfolio_harness.h"

int main() {
  using namespace latest;
  const double scale = bench::BenchScale();
  const auto dataset = workload::TwitterLikeSpec(scale);
  const stream::WindowConfig window{60LL * 60 * 1000, 16};

  bench::PrintHeader(
      "Figure 11 - Varying keyword set size on query workload TwQW5",
      "pure keyword queries, 1..5 keywords; H4096 excluded (spatial-only "
      "statistics)");

  const auto feedback_spec = workload::MakeWorkloadSpec(
      workload::WorkloadId::kTwQW5,
      std::max<uint32_t>(400, static_cast<uint32_t>(800 * scale)));
  workload::QueryGenerator feedback_gen(feedback_spec, dataset);
  std::vector<stream::Query> feedback;
  while (feedback_gen.HasNext()) feedback.push_back(feedback_gen.Next());

  bench::PortfolioHarness harness(dataset, window,
                                  {estimators::EstimatorConfig{}});
  harness.Feed(feedback);

  const std::set<estimators::EstimatorKind> excluded = {
      estimators::EstimatorKind::kH4096};
  std::vector<bench::SweepPoint> points;
  for (uint32_t num_keywords = 1; num_keywords <= 5; ++num_keywords) {
    auto spec = workload::MakeWorkloadSpec(workload::WorkloadId::kTwQW5,
                                           /*num_queries=*/300);
    spec.min_query_keywords = num_keywords;
    spec.max_query_keywords = num_keywords;
    spec.seed = 555;
    workload::QueryGenerator gen(spec, dataset);
    std::vector<stream::Query> batch;
    while (gen.HasNext()) batch.push_back(gen.Next());
    char label[32];
    std::snprintf(label, sizeof(label), "%u keyword%s", num_keywords,
                  num_keywords > 1 ? "s" : "");
    points.push_back(
        harness.Evaluate(0, label, batch, /*alpha=*/0.5, excluded));
  }

  bench::PrintSweepFigure("Fig. 11: keyword-count impact (TwQW5)",
                          "keywords", points);
  std::printf(
      "Expected shape (paper): RSH chosen throughout with the highest "
      "accuracy; latencies stable; FFN/SPN accuracy lower and slightly "
      "decreasing with more keywords.\n");
  return 0;
}
