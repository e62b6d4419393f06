#include "obs/metrics_registry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace latest::obs {

namespace {

/// Adds `delta` to an atomic double with a CAS loop (portable across
/// standard libraries that lack atomic<double>::fetch_add).
void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

// --------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  assert(!bounds_.empty());
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t index = static_cast<size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, value);
}

double Histogram::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    const uint64_t in_bucket = bucket_count(i);
    if (in_bucket > 0 &&
        static_cast<double>(cumulative + in_bucket) >= target) {
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  // Everything beyond the last finite bound: the best statement the
  // histogram can make is "at least the largest bound".
  return bounds_.back();
}

std::vector<double> Histogram::LatencyBucketsMs() {
  return {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,  0.2,  0.5,
          1.0,   2.0,   5.0,   10.0, 20.0, 50.0, 100.0, 250.0, 1000.0};
}

std::vector<double> Histogram::UnitIntervalBuckets(uint32_t num_buckets) {
  std::vector<double> bounds;
  bounds.reserve(num_buckets);
  for (uint32_t i = 1; i <= num_buckets; ++i) {
    bounds.push_back(static_cast<double>(i) /
                     static_cast<double>(num_buckets));
  }
  return bounds;
}

// --------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::Entry* MetricsRegistry::FindOrNull(MetricType type,
                                                    std::string_view name,
                                                    const LabelSet& labels) {
  for (const auto& entry : entries_) {
    if (entry->name == name && entry->labels == labels) {
      // Re-registering an existing (name, labels) under a different kind
      // is a programming error.
      assert(entry->type == type);
      (void)type;
      return entry.get();
    }
  }
  return nullptr;
}

const MetricsRegistry::Entry* MetricsRegistry::FindAnyOrNull(
    std::string_view name, const LabelSet& labels) const {
  for (const auto& entry : entries_) {
    if (entry->name == name && entry->labels == labels) return entry.get();
  }
  return nullptr;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name,
                                            const LabelSet& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindAnyOrNull(name, labels);
  return entry != nullptr ? entry->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name,
                                        const LabelSet& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindAnyOrNull(name, labels);
  return entry != nullptr ? entry->gauge.get() : nullptr;
}

const Histogram* MetricsRegistry::FindHistogram(
    std::string_view name, const LabelSet& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindAnyOrNull(name, labels);
  return entry != nullptr ? entry->histogram.get() : nullptr;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Samples(
    std::string_view name_prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  for (const auto& entry : entries_) {
    if (entry->name.compare(0, name_prefix.size(), name_prefix) != 0) {
      continue;
    }
    Sample sample;
    sample.name = entry->name;
    sample.labels = entry->labels;
    switch (entry->type) {
      case MetricType::kCounter:
        sample.kind = Sample::Kind::kCounter;
        sample.value = static_cast<double>(entry->counter->value());
        break;
      case MetricType::kGauge:
        sample.kind = Sample::Kind::kGauge;
        sample.value = entry->gauge->value();
        break;
      case MetricType::kHistogram:
        sample.kind = Sample::Kind::kHistogram;
        sample.value = static_cast<double>(entry->histogram->count());
        sample.histogram = entry->histogram.get();
        break;
    }
    out.push_back(std::move(sample));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Sample& a, const Sample& b) {
                     if (a.name != b.name) return a.name < b.name;
                     return a.labels < b.labels;
                   });
  return out;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help, LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* existing = FindOrNull(MetricType::kCounter, name, labels)) {
    return existing->counter.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->type = MetricType::kCounter;
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->labels = std::move(labels);
  entry->counter = std::make_unique<Counter>();
  Counter* out = entry->counter.get();
  entries_.push_back(std::move(entry));
  return out;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* existing = FindOrNull(MetricType::kGauge, name, labels)) {
    return existing->gauge.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->type = MetricType::kGauge;
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->labels = std::move(labels);
  entry->gauge = std::make_unique<Gauge>();
  Gauge* out = entry->gauge.get();
  entries_.push_back(std::move(entry));
  return out;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         std::vector<double> upper_bounds,
                                         LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* existing = FindOrNull(MetricType::kHistogram, name, labels)) {
    return existing->histogram.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->type = MetricType::kHistogram;
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->labels = std::move(labels);
  entry->histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  Histogram* out = entry->histogram.get();
  entries_.push_back(std::move(entry));
  return out;
}

namespace {

void AppendEscaped(std::string_view raw, std::string* out) {
  for (const char c : raw) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

/// HELP text escaping per the exposition format: only backslash and line
/// feed (double quotes stay literal in help lines).
void AppendHelpEscaped(std::string_view raw, std::string* out) {
  for (const char c : raw) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

/// Renders `{k1="v1",k2="v2"}`; `extra` appends one more pair (used for
/// the `le` bound of histogram buckets). Empty label sets render nothing.
std::string RenderLabels(const LabelSet& labels,
                         const std::pair<std::string, std::string>* extra) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  auto append = [&](const std::string& key, const std::string& value) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    AppendEscaped(value, &out);
    out += "\"";
  };
  for (const auto& [key, value] : labels) append(key, value);
  if (extra != nullptr) append(extra->first, extra->second);
  out += "}";
  return out;
}

std::string FormatDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

std::string FormatU64(uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%llu",
                static_cast<unsigned long long>(v));
  return buffer;
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& entry : entries_) sorted.push_back(entry.get());
  // Stable-sort by (family, label set): families group so # HELP/# TYPE
  // appear exactly once each, and instances within a family expose in a
  // registration-order-independent sequence.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry* a, const Entry* b) {
                     if (a->name != b->name) return a->name < b->name;
                     return a->labels < b->labels;
                   });

  std::string out;
  const std::string* previous_family = nullptr;
  for (const Entry* entry : sorted) {
    if (previous_family == nullptr || *previous_family != entry->name) {
      out += "# HELP " + entry->name + " ";
      AppendHelpEscaped(entry->help, &out);
      out += "\n";
      out += "# TYPE " + entry->name + " ";
      switch (entry->type) {
        case MetricType::kCounter:
          out += "counter";
          break;
        case MetricType::kGauge:
          out += "gauge";
          break;
        case MetricType::kHistogram:
          out += "histogram";
          break;
      }
      out += "\n";
      previous_family = &entry->name;
    }
    switch (entry->type) {
      case MetricType::kCounter:
        out += entry->name + RenderLabels(entry->labels, nullptr) + " " +
               FormatU64(entry->counter->value()) + "\n";
        break;
      case MetricType::kGauge:
        out += entry->name + RenderLabels(entry->labels, nullptr) + " " +
               FormatDouble(entry->gauge->value()) + "\n";
        break;
      case MetricType::kHistogram: {
        const Histogram& h = *entry->histogram;
        uint64_t cumulative = 0;
        for (size_t i = 0; i < h.upper_bounds().size(); ++i) {
          cumulative += h.bucket_count(i);
          const std::pair<std::string, std::string> le{
              "le", FormatDouble(h.upper_bounds()[i])};
          out += entry->name + "_bucket" + RenderLabels(entry->labels, &le) +
                 " " + FormatU64(cumulative) + "\n";
        }
        const std::pair<std::string, std::string> le_inf{"le", "+Inf"};
        out += entry->name + "_bucket" + RenderLabels(entry->labels, &le_inf) +
               " " + FormatU64(h.count()) + "\n";
        out += entry->name + "_sum" + RenderLabels(entry->labels, nullptr) +
               " " + FormatDouble(h.sum()) + "\n";
        out += entry->name + "_count" + RenderLabels(entry->labels, nullptr) +
               " " + FormatU64(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace latest::obs
