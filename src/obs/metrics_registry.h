// Lock-cheap metrics primitives and a named registry with Prometheus-text
// exposition.
//
// Counters and gauges are single atomics; histograms are fixed-bucket
// arrays of atomic counters. The estimate hot path therefore pays a
// handful of relaxed atomic operations per query. The registry itself is
// only locked during registration and exposition, never on the update
// path: Get* hands out stable pointers that callers cache.
//
// Naming follows the Prometheus conventions: snake_case metric families,
// `_total` suffix on counters, base units spelled out in the name
// (`latest_estimate_latency_ms`). Label sets distinguish instances of a
// family (`latest_estimate_latency_ms{estimator="RSH"}`).

#ifndef LATEST_OBS_METRICS_REGISTRY_H_
#define LATEST_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace latest::obs {

/// Label set attached to one metric instance: ordered (key, value) pairs.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can move in both directions.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram of non-negative samples with Prometheus-style
/// cumulative exposition and interpolated quantile queries.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty; an implicit
  /// +Inf overflow bucket is appended.
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Quantile estimate for q in [0, 1] by linear interpolation inside the
  /// owning bucket (the first bucket interpolates from 0). Samples landing
  /// in the overflow bucket report the largest finite bound. 0 when empty.
  double Quantile(double q) const;

  /// Percentile convenience: Percentile(95) == Quantile(0.95).
  double Percentile(double p) const { return Quantile(p / 100.0); }

  /// Finite upper bounds (excludes the implicit +Inf bucket).
  const std::vector<double>& upper_bounds() const { return bounds_; }

  /// Non-cumulative count of bucket `i`, i in [0, upper_bounds().size()];
  /// the last index is the overflow bucket.
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Default latency bucket ladder in milliseconds: a 1-2-5 series from
  /// 1us to 1s, wide enough for estimator probes and exact evaluation.
  static std::vector<double> LatencyBucketsMs();

  /// Equi-width buckets over [0, 1] for accuracy-style ratios.
  static std::vector<double> UnitIntervalBuckets(uint32_t num_buckets = 20);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1.
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Named metrics registry. Get-or-create semantics: the same
/// (name, labels) pair always returns the same instance; instances stay
/// valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help,
                      LabelSet labels = {});
  Gauge* GetGauge(std::string_view name, std::string_view help,
                  LabelSet labels = {});
  /// `upper_bounds` is only consulted when the instance is created.
  Histogram* GetHistogram(std::string_view name, std::string_view help,
                          std::vector<double> upper_bounds,
                          LabelSet labels = {});

  /// Read-only lookup: the instance registered under (name, labels), or
  /// null when absent. Unlike Get*, never creates. The returned pointer
  /// stays valid for the registry's lifetime.
  const Counter* FindCounter(std::string_view name,
                             const LabelSet& labels = {}) const;
  const Gauge* FindGauge(std::string_view name,
                         const LabelSet& labels = {}) const;
  const Histogram* FindHistogram(std::string_view name,
                                 const LabelSet& labels = {}) const;

  /// Flat read of one instance per registered metric, sorted like the
  /// exposition (by name, then labels). For histograms `value` is the
  /// sample count. `name_prefix` filters by family-name prefix.
  struct Sample {
    std::string name;
    LabelSet labels;
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    double value = 0.0;
    const Histogram* histogram = nullptr;  // Set for histogram samples.
  };
  std::vector<Sample> Samples(std::string_view name_prefix = "") const;

  /// Prometheus text exposition format (version 0.0.4): families sorted
  /// by name with exactly one # HELP / # TYPE header each, label sets
  /// stable-sorted within a family, label values and help text escaped
  /// per the format spec, histograms as cumulative `_bucket` series plus
  /// `_sum` / `_count`.
  std::string PrometheusText() const;

 private:
  enum class MetricType { kCounter, kGauge, kHistogram };

  struct Entry {
    MetricType type;
    std::string name;
    std::string help;
    LabelSet labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrNull(MetricType type, std::string_view name,
                    const LabelSet& labels);
  const Entry* FindAnyOrNull(std::string_view name,
                             const LabelSet& labels) const;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace latest::obs

#endif  // LATEST_OBS_METRICS_REGISTRY_H_
