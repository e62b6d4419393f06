#include "bench/portfolio_harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/metrics.h"
#include "obs/metrics_registry.h"
#include "util/minmax_scaler.h"
#include "util/stopwatch.h"

namespace latest::bench {

PortfolioHarness::PortfolioHarness(
    const workload::DatasetSpec& dataset_spec,
    const stream::WindowConfig& window,
    const std::vector<estimators::EstimatorConfig>& configs)
    : dataset_spec_(dataset_spec),
      window_(window),
      clock_(window),
      population_(window.num_slices),
      exact_(dataset_spec.bounds, window.window_length_ms) {
  groups_.reserve(configs.size());
  for (size_t g = 0; g < configs.size(); ++g) {
    estimators::EstimatorConfig config = configs[g];
    config.bounds = dataset_spec.bounds;
    config.window = window;
    Group group;
    // The sweep experiments reproduce the paper's six-member portfolio.
    for (uint32_t k = 0; k < estimators::kNumPaperEstimatorKinds; ++k) {
      config.seed = 42 * (g + 1) * estimators::kNumEstimatorKinds + k;
      auto result = estimators::CreateEstimator(
          static_cast<estimators::EstimatorKind>(k), config);
      if (!result.ok()) {
        std::fprintf(stderr, "bad estimator config: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      group.members.push_back(std::move(result).value());
    }
    groups_.push_back(std::move(group));
  }
}

void PortfolioHarness::Feed(const std::vector<stream::Query>& feedback_queries) {
  // Pass 1: materialize the stream, drive the shared clock /
  // population / exact evaluator, and resolve the ground truth of every
  // feedback point. Feedback cadence: spread the feedback queries across
  // the stream after the first window has filled.
  workload::DatasetGenerator dataset(dataset_spec_);
  std::vector<stream::GeoTextObject> objects;
  objects.reserve(dataset_spec_.num_objects);
  std::vector<FeedbackPoint> feedback_points;
  size_t next_feedback = 0;
  const uint64_t feedback_every =
      feedback_queries.empty()
          ? 0
          : std::max<uint64_t>(1, dataset_spec_.num_objects /
                                      (2 * feedback_queries.size()));
  while (dataset.HasNext()) {
    const stream::GeoTextObject obj = dataset.Next();
    const uint32_t rotations = clock_.Advance(obj.timestamp);
    for (uint32_t r = 0; r < rotations; ++r) population_.Rotate();
    if (rotations > 0) exact_.EvictExpired(clock_.now());
    exact_.Insert(obj);
    population_.Add();
    if (feedback_every > 0 && next_feedback < feedback_queries.size() &&
        obj.timestamp >= window_.window_length_ms &&
        dataset.produced() % feedback_every == 0) {
      stream::Query q = feedback_queries[next_feedback++];
      q.timestamp = obj.timestamp;
      FeedbackPoint point;
      point.object_index = objects.size();
      point.actual = exact_.TrueSelectivity(q);
      point.query = std::move(q);
      feedback_points.push_back(std::move(point));
    }
    now_ = obj.timestamp;
    objects.push_back(obj);
  }

  // Pass 2: replay the stream into every group, each with a private
  // SliceClock.
  for (Group& group : groups_) ReplayGroup(&group, objects, feedback_points);
}

void PortfolioHarness::ReplayGroup(
    Group* group, const std::vector<stream::GeoTextObject>& objects,
    const std::vector<FeedbackPoint>& feedback_points) {
  stream::SliceClock clock(window_);
  size_t next_feedback = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    const stream::GeoTextObject& obj = objects[i];
    const uint32_t rotations = clock.Advance(obj.timestamp);
    for (uint32_t r = 0; r < rotations; ++r) {
      for (auto& est : group->members) est->OnSliceRotate();
    }
    for (auto& est : group->members) est->Insert(obj);
    // Workload-driven training feedback for the FFN members, against the
    // ground truth resolved in pass 1.
    while (next_feedback < feedback_points.size() &&
           feedback_points[next_feedback].object_index == i) {
      const FeedbackPoint& point = feedback_points[next_feedback++];
      for (auto& est : group->members) {
        est->OnFeedback(point.query, est->Estimate(point.query),
                        point.actual);
      }
    }
  }
}

uint64_t PortfolioHarness::TrueSelectivity(stream::Query q) {
  q.timestamp = now_;
  return exact_.TrueSelectivity(q);
}

SweepPoint PortfolioHarness::Evaluate(
    size_t group_index, const std::string& label,
    const std::vector<stream::Query>& queries, double alpha,
    const std::set<estimators::EstimatorKind>& excluded) {
  Group& group = groups_[group_index];
  SweepPoint point;
  point.label = label;
  uint64_t batch = 0;
  // The latency scaler sees every per-query measurement, exactly like the
  // module's scoreboard does: the normalization range is then set by the
  // portfolio's real worst case, not by compressed batch means.
  util::MinMaxScaler scaler;
  std::vector<std::unique_ptr<obs::Histogram>> latency_histograms;
  latency_histograms.reserve(estimators::kNumPaperEstimatorKinds);
  for (uint32_t k = 0; k < estimators::kNumPaperEstimatorKinds; ++k) {
    latency_histograms.push_back(
        std::make_unique<obs::Histogram>(obs::Histogram::LatencyBucketsMs()));
  }
  for (const stream::Query& q_in : queries) {
    stream::Query q = q_in;
    q.timestamp = now_;
    const uint64_t actual = exact_.TrueSelectivity(q);
    for (uint32_t k = 0; k < estimators::kNumPaperEstimatorKinds; ++k) {
      const auto kind = static_cast<estimators::EstimatorKind>(k);
      if (excluded.count(kind) > 0) continue;
      estimators::Estimator* est = group.members[k].get();
      util::Stopwatch watch;
      const double estimate = est->Estimate(q);
      const double latency = watch.ElapsedMillis();
      scaler.Observe(latency);
      latency_histograms[k]->Observe(latency);
      point.latency_ms[k] += latency;
      point.accuracy[k] += core::EstimationAccuracy(estimate, actual);
      point.included[k] = true;
    }
    ++batch;
  }
  if (batch > 0) {
    for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
      point.latency_ms[k] /= static_cast<double>(batch);
      point.accuracy[k] /= static_cast<double>(batch);
    }
    for (uint32_t k = 0; k < estimators::kNumPaperEstimatorKinds; ++k) {
      if (!point.included[k]) continue;
      point.p95_latency_ms[k] = latency_histograms[k]->Percentile(95.0);
      point.p99_latency_ms[k] = latency_histograms[k]->Percentile(99.0);
    }
  }
  // LATEST's alpha-blended choice across the batch.
  double best_score = -1.0;
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    if (!point.included[k]) continue;
    const double score = core::BlendedScore(
        point.accuracy[k], scaler.Scale(point.latency_ms[k]), alpha);
    if (score > best_score) {
      best_score = score;
      point.choice = static_cast<estimators::EstimatorKind>(k);
    }
  }
  return point;
}

size_t PortfolioHarness::MemoryBytes(size_t group,
                                     estimators::EstimatorKind kind) const {
  return groups_[group].members[static_cast<uint32_t>(kind)]->MemoryBytes();
}

}  // namespace latest::bench
