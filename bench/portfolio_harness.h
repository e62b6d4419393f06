// Portfolio harness for the sweep experiments (Figs. 9-11 and 13).
//
// Unlike the timeline experiments, the sweeps report per-estimator
// performance on controlled query batches at the end of the stream (the
// paper reports "the end of the incremental learning phase"). The harness
// streams one dataset pass into any number of estimator groups (e.g. one
// per memory budget) plus the exact evaluator, then measures each group
// on caller-supplied query batches and computes LATEST's alpha-blended
// choice per batch.

#ifndef LATEST_BENCH_PORTFOLIO_HARNESS_H_
#define LATEST_BENCH_PORTFOLIO_HARNESS_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "estimators/estimator.h"
#include "exact/exact_evaluator.h"
#include "stream/sliding_window.h"
#include "workload/dataset.h"

namespace latest::bench {

/// Streams a dataset into estimator groups and measures query batches.
class PortfolioHarness {
 public:
  /// One group per estimator configuration (bounds/window are overridden
  /// from the dataset and the shared window config).
  PortfolioHarness(const workload::DatasetSpec& dataset_spec,
                   const stream::WindowConfig& window,
                   const std::vector<estimators::EstimatorConfig>& configs);

  /// Streams the whole dataset (one pass, all groups fed). Also trains
  /// the workload-driven FFN by feeding periodic query feedback drawn
  /// from `feedback_queries` against the exact evaluator.
  void Feed(const std::vector<stream::Query>& feedback_queries);

  /// Measures one group on a query batch at end-of-stream time and
  /// returns the sweep point. `excluded` kinds are skipped (the paper
  /// excludes H4096 from pure-keyword comparisons).
  SweepPoint Evaluate(size_t group, const std::string& label,
                      const std::vector<stream::Query>& queries, double alpha,
                      const std::set<estimators::EstimatorKind>& excluded = {});

  /// End-of-stream event time (timestamp assigned to evaluation queries).
  stream::Timestamp now() const { return now_; }

  /// Exact ground truth at end-of-stream.
  uint64_t TrueSelectivity(stream::Query q);

  /// Memory footprint of one estimator instance.
  size_t MemoryBytes(size_t group, estimators::EstimatorKind kind) const;

 private:
  struct Group {
    std::vector<std::unique_ptr<estimators::Estimator>> members;
  };

  /// One stream position where FFN feedback fires during Feed.
  struct FeedbackPoint {
    size_t object_index = 0;
    stream::Query query;
    uint64_t actual = 0;
  };

  /// Replays `objects` into one group (rotations, inserts, feedback) —
  /// the per-group body of Feed.
  void ReplayGroup(Group* group,
                   const std::vector<stream::GeoTextObject>& objects,
                   const std::vector<FeedbackPoint>& feedback_points);

  workload::DatasetSpec dataset_spec_;
  stream::WindowConfig window_;
  stream::SliceClock clock_;
  stream::WindowPopulation population_;
  exact::ExactEvaluator exact_;
  std::vector<Group> groups_;
  stream::Timestamp now_ = 0;
};

}  // namespace latest::bench

#endif  // LATEST_BENCH_PORTFOLIO_HARNESS_H_
