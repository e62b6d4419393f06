// Figure 10: impact of the spatial range size on query workload TwQW4
// (single-keyword queries augmented with a spatial range of the swept
// size, i.e. hybrid queries). LATEST's choice tracks the best accuracy
// for each range size.

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
      "Figure 10 - Varying spatial ranges on query workload TwQW4",
      "single-keyword queries with a swept spatial range (hybrid)");

  const auto feedback_spec = workload::MakeWorkloadSpec(
      workload::WorkloadId::kTwQW4,
      std::max<uint32_t>(400, static_cast<uint32_t>(800 * scale)));
  workload::QueryGenerator feedback_gen(feedback_spec, dataset);
  std::vector<stream::Query> feedback;
  while (feedback_gen.HasNext()) feedback.push_back(feedback_gen.Next());

  bench::PortfolioHarness harness(dataset, window,
                                  {estimators::EstimatorConfig{}});
  harness.Feed(feedback);

  const double side_fractions[] = {0.0025, 0.005, 0.01, 0.02, 0.04};
  std::vector<bench::SweepPoint> points;
  for (const double side : side_fractions) {
    // Hybrid batch: single keyword + range of the swept size.
    workload::WorkloadSpec spec;
    spec.name = "TwQW4-range";
    spec.segments = {{{0.0, 0.0, 1.0}, 1.0}};
    spec.min_side_fraction = side;
    spec.max_side_fraction = side;
    spec.min_query_keywords = 1;
    spec.max_query_keywords = 1;
    spec.num_queries = 300;
    spec.seed = 4321;
    workload::QueryGenerator gen(spec, dataset);
    std::vector<stream::Query> batch;
    while (gen.HasNext()) batch.push_back(gen.Next());
    char label[32];
    std::snprintf(label, sizeof(label), "%.2f%%", 100.0 * side);
    points.push_back(harness.Evaluate(0, label, batch, /*alpha=*/0.5));
  }

  bench::PrintSweepFigure("Fig. 10: spatial-range impact (TwQW4 context)",
                          "range side", points);
  std::printf(
      "Expected shape (paper): LATEST selects the estimator with the "
      "highest accuracy at every range size; per-estimator curves are "
      "nearly flat.\n");
  return 0;
}
