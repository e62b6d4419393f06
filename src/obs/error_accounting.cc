#include "obs/error_accounting.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics_registry.h"

namespace latest::obs {

namespace {

const char* KindLabel(estimators::EstimatorKind kind) {
  return estimators::EstimatorKindName(kind);
}

}  // namespace

std::vector<double> QErrorBuckets() {
  // q-error is >= 1 by construction; a geometric ladder keeps the p99
  // readable both for near-perfect estimators (1.0x..2x) and badly
  // mis-calibrated ones (100x+).
  return {1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 16.0, 32.0, 64.0,
          128.0, 256.0, 512.0, 1024.0};
}

ErrorAccountant::ErrorAccountant(double tau, double ewma_alpha)
    : tau_(tau), ewma_alpha_(std::clamp(ewma_alpha, 1e-4, 1.0)) {
  const size_t num_buckets = QErrorBuckets().size() + 1;  // +Inf overflow.
  for (Slot& slot : slots_) {
    slot.qerror_buckets.assign(num_buckets, 0);
  }
}

void ErrorAccountant::AttachMetrics(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const auto kind = static_cast<estimators::EstimatorKind>(k);
    const std::string label = KindLabel(kind);
    Slot& slot = slots_[k];
    slot.samples_counter = registry->GetCounter(
        "latest_estimator_error_samples_total",
        "Ground-truth measurements folded into the error accountant",
        {{"estimator", label}});
    slot.ewma_relative_gauge = registry->GetGauge(
        "latest_estimator_error_ewma_relative",
        "EWMA relative error |est-actual|/max(actual,1) per estimator",
        {{"estimator", label}});
    slot.ewma_accuracy_gauge = registry->GetGauge(
        "latest_estimator_error_ewma_accuracy",
        "EWMA accuracy (1 - relative error, floored at 0) per estimator",
        {{"estimator", label}});
    slot.tau_violation_counter = registry->GetCounter(
        "latest_estimator_error_tau_violations_total",
        "Measurements whose accuracy fell below the switch threshold tau",
        {{"estimator", label}});
    slot.tau_violation_rate_gauge = registry->GetGauge(
        "latest_estimator_error_tau_violation_rate",
        "Lifetime fraction of measurements violating tau per estimator",
        {{"estimator", label}});
    slot.qerror_histogram = registry->GetHistogram(
        "latest_estimator_error_qerror",
        "q-error max(est/actual, actual/est) per estimator",
        QErrorBuckets(), {{"estimator", label}});
  }
}

double ErrorAccountant::RelativeError(double estimate, double actual) {
  const double est = std::max(estimate, 0.0);
  return std::abs(est - actual) / std::max(actual, 1.0);
}

double ErrorAccountant::QError(double estimate, double actual) {
  const double est = std::max(estimate, 1.0);
  const double act = std::max(actual, 1.0);
  return std::max(est / act, act / est);
}

void ErrorAccountant::Record(estimators::EstimatorKind kind, double estimate,
                             double actual) {
  const double rel = RelativeError(estimate, actual);
  const double accuracy = std::max(0.0, 1.0 - rel);
  const double qerror = QError(estimate, actual);

  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[static_cast<uint32_t>(kind)];
  if (slot.samples == 0) {
    slot.ewma_relative_error = rel;
    slot.ewma_accuracy = accuracy;
  } else {
    slot.ewma_relative_error += ewma_alpha_ * (rel - slot.ewma_relative_error);
    slot.ewma_accuracy += ewma_alpha_ * (accuracy - slot.ewma_accuracy);
  }
  ++slot.samples;
  if (accuracy < tau_) ++slot.tau_violations;
  slot.max_qerror = std::max(slot.max_qerror, qerror);

  const std::vector<double> bounds = QErrorBuckets();
  size_t bucket = bounds.size();  // Overflow by default.
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (qerror <= bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++slot.qerror_buckets[bucket];

  if (slot.samples_counter != nullptr) slot.samples_counter->Increment();
  if (slot.ewma_relative_gauge != nullptr) {
    slot.ewma_relative_gauge->Set(slot.ewma_relative_error);
  }
  if (slot.ewma_accuracy_gauge != nullptr) {
    slot.ewma_accuracy_gauge->Set(slot.ewma_accuracy);
  }
  if (accuracy < tau_ && slot.tau_violation_counter != nullptr) {
    slot.tau_violation_counter->Increment();
  }
  if (slot.tau_violation_rate_gauge != nullptr) {
    slot.tau_violation_rate_gauge->Set(static_cast<double>(slot.tau_violations) /
                                       static_cast<double>(slot.samples));
  }
  if (slot.qerror_histogram != nullptr) slot.qerror_histogram->Observe(qerror);
}

double ErrorAccountant::QErrorQuantileLocked(const Slot& slot,
                                             double q) const {
  if (slot.samples == 0) return 1.0;
  const std::vector<double> bounds = QErrorBuckets();
  const uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(slot.samples)));
  uint64_t seen = 0;
  for (size_t i = 0; i < slot.qerror_buckets.size(); ++i) {
    seen += slot.qerror_buckets[i];
    if (seen >= rank) {
      // Overflow samples report the largest finite bound.
      return i < bounds.size() ? bounds[i] : bounds.back();
    }
  }
  return bounds.back();
}

void ErrorAccountant::FillStats(const Slot& slot,
                                estimators::EstimatorKind kind,
                                EstimatorErrorStats* out) const {
  out->kind = kind;
  out->samples = slot.samples;
  out->ewma_relative_error = slot.ewma_relative_error;
  out->ewma_accuracy = slot.ewma_accuracy;
  out->tau_violations = slot.tau_violations;
  out->tau_violation_rate =
      slot.samples == 0 ? 0.0
                        : static_cast<double>(slot.tau_violations) /
                              static_cast<double>(slot.samples);
  out->qerror_p50 = QErrorQuantileLocked(slot, 0.50);
  out->qerror_p95 = QErrorQuantileLocked(slot, 0.95);
  out->qerror_p99 = QErrorQuantileLocked(slot, 0.99);
  out->max_qerror = slot.max_qerror;
}

std::vector<EstimatorErrorStats> ErrorAccountant::AllStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EstimatorErrorStats> out;
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    if (slots_[k].samples == 0) continue;
    EstimatorErrorStats stats;
    FillStats(slots_[k], static_cast<estimators::EstimatorKind>(k), &stats);
    out.push_back(stats);
  }
  return out;
}

double ErrorAccountant::EwmaRelativeError(
    estimators::EstimatorKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_[static_cast<uint32_t>(kind)].ewma_relative_error;
}

}  // namespace latest::obs
