#include "core/module_observer.h"

#include <algorithm>
#include <cmath>

#include "core/latest_module.h"
#include "simd/kernels.h"

namespace latest::core {

namespace {

constexpr const char* kVocabChurnSeries = "ingest_vocab_churn";
constexpr const char* kCentroidSeries = "ingest_centroid";

std::string ErrorSeriesName(estimators::EstimatorKind kind) {
  return std::string("error_") + estimators::EstimatorKindName(kind);
}

}  // namespace

ModuleObserver::ModuleObserver(const LatestModule& module,
                               obs::Telemetry* telemetry)
    : module_(module), telemetry_(*telemetry) {
  RegisterMetrics();
  const LatestConfig& config = module_.config();
  obs::MetricsRegistry& registry = telemetry_.registry();
  slo_monitor_ =
      std::make_unique<obs::SloMonitor>(&registry, &telemetry_.events());
  std::vector<obs::SloRule> rules = config.slo_rules;
  if (rules.empty() && config.enable_introspection) {
    rules = obs::DefaultLatestSloRules(config.tau);
  }
  for (const obs::SloRule& rule : rules) slo_monitor_->AddRule(rule);
  if (!config.quality.enabled) return;

  error_accountant_ = std::make_unique<obs::ErrorAccountant>(config.tau);
  error_accountant_->AttachMetrics(&registry);
  drift_monitor_ = std::make_unique<obs::DriftMonitor>();
  drift_monitor_->AttachMetrics(&registry);
  drift_monitor_->AttachEventLog(&telemetry_.events());
  vocab_churn_series_ = drift_monitor_->AddSeries(kVocabChurnSeries);
  centroid_series_ = drift_monitor_->AddSeries(kCentroidSeries);
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const auto kind = static_cast<estimators::EstimatorKind>(k);
    if (!module_.IsEnabled(kind)) continue;
    error_series_[k] = drift_monitor_->AddSeries(ErrorSeriesName(kind));
  }
  audit_trail_ = std::make_unique<obs::SwitchAuditTrail>(
      kAuditCapacity, kAuditResolutionWindow);
  audit_trail_->AttachMetrics(&registry);
  measured_.reserve(estimators::kNumEstimatorKinds + 1);
}

ModuleObserver::~ModuleObserver() = default;

uint64_t ModuleObserver::drift_detections() const {
  if (drift_monitor_ == nullptr) return 0;
  uint64_t total = drift_monitor_->detections(kVocabChurnSeries) +
                   drift_monitor_->detections(kCentroidSeries);
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const auto kind = static_cast<estimators::EstimatorKind>(k);
    if (module_.IsEnabled(kind)) {
      total += drift_monitor_->detections(ErrorSeriesName(kind));
    }
  }
  return total;
}

void ModuleObserver::RegisterMetrics() {
  obs::MetricsRegistry& registry = telemetry_.registry();
  window_population_gauge_ = registry.GetGauge(
      "latest_window_population", "Objects currently inside the window");
  store_live_rows_gauge_ = registry.GetGauge(
      "latest_store_live_rows",
      "Rows resident in the columnar window store (ground-truth path)");
  store_arena_bytes_gauge_ = registry.GetGauge(
      "latest_store_arena_bytes",
      "Keyword payload bytes held across the store's slice arenas");
  store_slices_gauge_ = registry.GetGauge(
      "latest_store_slices_resident",
      "Window store slices resident (including the open one)");
  model_records_gauge_ = registry.GetGauge(
      "latest_model_records", "Training records absorbed by the model");
  model_leaves_gauge_ =
      registry.GetGauge("latest_model_leaves", "Hoeffding-tree leaves");
  model_depth_gauge_ =
      registry.GetGauge("latest_model_depth", "Hoeffding-tree depth");
  accuracy_histogram_ = registry.GetHistogram(
      "latest_query_accuracy", "Per-query estimation accuracy in [0, 1]",
      obs::Histogram::UnitIntervalBuckets());
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const auto kind = static_cast<estimators::EstimatorKind>(k);
    if (!module_.IsEnabled(kind)) continue;
    estimator_latency_histograms_[k] = registry.GetHistogram(
        "latest_estimate_latency_ms",
        "Wall clock of Estimate calls per portfolio member (ms)",
        obs::Histogram::LatencyBucketsMs(),
        {{"estimator", estimators::EstimatorKindName(kind)}});
  }
  registry
      .GetGauge("latest_kernel_tier",
                "Active SIMD kernel dispatch tier: 0 scalar, 1 sse2, 2 avx2")
      ->Set(static_cast<double>(simd::ActiveTier()));
  const auto stage_histogram = [&registry](const char* stage) {
    return registry.GetHistogram(
        "latest_stage_latency_ms",
        "Per-stage wall clock of estimate-path queries (ms)",
        obs::Histogram::LatencyBucketsMs(), {{"stage", stage}});
  };
  ground_truth_stage_histogram_ = stage_histogram("ground_truth");
  estimate_stage_histogram_ = stage_histogram("estimate");
  model_stage_histogram_ = stage_histogram("model_update");
  batch_size_histogram_ = registry.GetHistogram(
      "latest_batch_size",
      "Queries per batched ground-truth evaluation pass",
      std::vector<double>{1, 2, 4, 8, 16, 32, 64, 128, 256});
}

util::Status ModuleObserver::StartIntrospection() {
  const LatestConfig& config = module_.config();
  if (!config.enable_introspection) return util::Status::Ok();
  obs::IntrospectionSources sources;
  sources.registry = &telemetry_.registry();
  sources.events = &telemetry_.events();
  sources.slo = slo_monitor_.get();
  sources.errors = error_accountant_.get();
  sources.drift = drift_monitor_.get();
  sources.audit = audit_trail_.get();
  sources.event_clock = [this](int64_t* timestamp, uint64_t* query_count) {
    *timestamp = stream_time_ms_.load(std::memory_order_relaxed);
    *query_count = module_.queries_answered();
  };
  obs::IntrospectionInfo info;
  info.tau = config.tau;
  info.prefill_threshold = config.PrefillThreshold();
  introspection_ =
      std::make_unique<obs::IntrospectionServer>(sources, std::move(info));
  return introspection_->Start(config.introspection_port, config.slo_tick_ms);
}

void ModuleObserver::SetWindowGauges() {
  window_population_gauge_->Set(
      static_cast<double>(module_.window_population()));
  // O(1) reads off the columnar store, for memory-budget scrapes.
  const stream::WindowStore& store = module_.system_log_.store();
  store_live_rows_gauge_->Set(static_cast<double>(store.resident_rows()));
  store_arena_bytes_gauge_->Set(static_cast<double>(store.arena_bytes()));
  store_slices_gauge_->Set(static_cast<double>(store.slices_resident()));
}

void ModuleObserver::SetModelGauges() {
  // Registered at the monitor's first sample. Until then the series is
  // absent, so the monitor_accuracy SLO rule has no value rather than
  // reading an empty monitor's 0 as a breach on an idle instance.
  if (monitor_accuracy_gauge_ == nullptr &&
      module_.accuracy_monitor_.size() > 0) {
    monitor_accuracy_gauge_ = telemetry_.registry().GetGauge(
        "latest_monitor_accuracy",
        "Moving-average accuracy of the active estimator");
  }
  if (monitor_accuracy_gauge_ != nullptr) {
    monitor_accuracy_gauge_->Set(module_.accuracy_monitor_.Mean());
  }
  const ml::HoeffdingTree& model = module_.model();
  model_records_gauge_->Set(static_cast<double>(model.num_trained()));
  model_leaves_gauge_->Set(static_cast<double>(model.num_leaves()));
  model_depth_gauge_->Set(static_cast<double>(model.depth()));
}

void ModuleObserver::Resync() {
  MirrorStreamTime();
  SetWindowGauges();
  SetModelGauges();
}

void ModuleObserver::MirrorStreamTime() {
  stream_time_ms_.store(static_cast<int64_t>(module_.clock_.now()),
                        std::memory_order_relaxed);
}

void ModuleObserver::OnIngest(const stream::GeoTextObject& obj) {
  if (drift_monitor_ != nullptr) {
    // Per-slice ingest-feature accumulators (folded at slice rotation).
    const uint64_t num_slices = module_.config().window.num_slices;
    for (const stream::KeywordId kw : obj.keywords) {
      auto [it, inserted] =
          vocab_last_slice_.try_emplace(kw, ingest_slice_index_);
      if (inserted) {
        ++slice_distinct_keywords_;
        ++slice_new_keywords_;
      } else if (it->second != ingest_slice_index_) {
        ++slice_distinct_keywords_;
        // "New" = absent from the whole preceding window, not merely
        // from the last slice — that is vocabulary churn, not mixing.
        if (it->second + num_slices < ingest_slice_index_) {
          ++slice_new_keywords_;
        }
        it->second = ingest_slice_index_;
      }
    }
    slice_sum_x_ += obj.loc.x;
    slice_sum_y_ += obj.loc.y;
    ++slice_objects_;
  }
  MirrorStreamTime();
  SetWindowGauges();
}

void ModuleObserver::OnSliceRotated() {
  // Ingest-feature drift: fold the sealed slice's vocabulary churn and
  // centroid displacement into the drift monitor.
  if (drift_monitor_ != nullptr && slice_objects_ > 0) {
    const auto now = static_cast<int64_t>(module_.clock_.now());
    const uint64_t queries = module_.queries_answered();
    const double churn =
        slice_distinct_keywords_ > 0
            ? static_cast<double>(slice_new_keywords_) /
                  static_cast<double>(slice_distinct_keywords_)
            : 0.0;
    drift_monitor_->Observe(vocab_churn_series_, churn, now, queries);
    const double cx = slice_sum_x_ / static_cast<double>(slice_objects_);
    const double cy = slice_sum_y_ / static_cast<double>(slice_objects_);
    if (!centroid_initialized_) {
      centroid_x_ = cx;
      centroid_y_ = cy;
      centroid_initialized_ = true;
    }
    const geo::Rect& bounds = module_.config().bounds;
    const double dx =
        (cx - centroid_x_) / std::max(1e-9, bounds.max_x - bounds.min_x);
    const double dy =
        (cy - centroid_y_) / std::max(1e-9, bounds.max_y - bounds.min_y);
    drift_monitor_->Observe(centroid_series_, std::sqrt(dx * dx + dy * dy),
                            now, queries);
    // Long-term centroid follows slowly so a persistent hotspot move
    // shows up as a sustained displacement, not a one-slice blip.
    centroid_x_ += 0.2 * (cx - centroid_x_);
    centroid_y_ += 0.2 * (cy - centroid_y_);
  }
  slice_distinct_keywords_ = 0;
  slice_new_keywords_ = 0;
  slice_sum_x_ = 0.0;
  slice_sum_y_ = 0.0;
  slice_objects_ = 0;
  ++ingest_slice_index_;
  // Bound the vocabulary map: drop entries stale for > 4 windows.
  if (vocab_last_slice_.size() > (1u << 16)) {
    const uint64_t horizon = 4ull * module_.config().window.num_slices;
    for (auto it = vocab_last_slice_.begin();
         it != vocab_last_slice_.end();) {
      if (it->second + horizon < ingest_slice_index_) {
        it = vocab_last_slice_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void ModuleObserver::OnTruthBatch(size_t queries) {
  batch_size_histogram_->Observe(static_cast<double>(queries));
}

void ModuleObserver::OnQueryFinished(const QueryOutcome& outcome,
                                     uint64_t ordinal,
                                     const QueryStageBreakdown& stages) {
  ground_truth_stage_histogram_->Observe(stages.ground_truth_ms);
  estimate_stage_histogram_->Observe(stages.estimate_ms);
  model_stage_histogram_->Observe(stages.model_ms);
  accuracy_histogram_->Observe(outcome.accuracy);
  MirrorStreamTime();
  SetModelGauges();
  window_population_gauge_->Set(
      static_cast<double>(module_.window_population()));

  // Feed the per-estimator latency histograms once per measurement; if
  // the active estimator was measured outside `measurements` (incremental
  // phase without shadows), add its latency separately.
  bool active_measured = false;
  for (const auto& m : outcome.measurements) {
    obs::Histogram* histogram =
        estimator_latency_histograms_[static_cast<uint32_t>(m.kind)];
    if (histogram != nullptr) histogram->Observe(m.latency_ms);
    if (m.kind == outcome.active) active_measured = true;
  }
  if (!active_measured) {
    obs::Histogram* histogram =
        estimator_latency_histograms_[static_cast<uint32_t>(outcome.active)];
    if (histogram != nullptr) histogram->Observe(outcome.latency_ms);
  }

  // Quality plane: fold every ground-truth measurement into the error
  // accountant, feed the active estimator's smoothed error to drift
  // detection, and advance pending switch-audit resolution windows.
  if (error_accountant_ != nullptr) {
    const auto now = static_cast<int64_t>(module_.clock_.now());
    const double actual = static_cast<double>(outcome.actual);
    measured_.clear();
    for (const auto& m : outcome.measurements) {
      error_accountant_->Record(m.kind, m.estimate, actual);
      measured_.emplace_back(static_cast<int32_t>(m.kind), m.accuracy);
    }
    if (!active_measured) {
      error_accountant_->Record(outcome.active, outcome.estimate, actual);
      measured_.emplace_back(static_cast<int32_t>(outcome.active),
                             outcome.accuracy);
    }
    drift_monitor_->Observe(
        error_series_[static_cast<uint32_t>(outcome.active)],
        error_accountant_->EwmaRelativeError(outcome.active), now,
        ordinal + 1);
    audit_trail_->ResolveQuery(measured_);
  }
}

void ModuleObserver::OnSwitch(const stream::Query& q,
                              const std::array<double, 3>& weights,
                              estimators::EstimatorKind to,
                              estimators::EstimatorKind recommended,
                              bool had_prefilled_candidate) {
  if (audit_trail_ == nullptr) return;
  const LatestConfig& config = module_.config();
  obs::SwitchAuditEntry entry;
  entry.timestamp = static_cast<int64_t>(module_.clock_.now());
  entry.query_count = module_.queries_answered();
  entry.trigger = had_prefilled_candidate ? "prefill" : "tree_infer";
  const ml::FeatureVector features = module_.BuildFeatures(q);
  entry.features.assign(features.categorical.begin(),
                        features.categorical.end());
  entry.features.insert(entry.features.end(), features.numeric.begin(),
                        features.numeric.end());
  entry.scores.assign(estimators::kNumEstimatorKinds, 0.0);
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const auto kind = static_cast<estimators::EstimatorKind>(k);
    if (!module_.IsEnabled(kind)) continue;
    entry.scores[k] = module_.scoreboard()
                          .WeightedScore(kind, weights, config.alpha)
                          .value_or(0.0);
  }
  entry.from_estimator = static_cast<int32_t>(module_.active_kind());
  entry.chosen_estimator = static_cast<int32_t>(to);
  entry.recommended_estimator = static_cast<int32_t>(recommended);
  entry.monitor_accuracy = module_.accuracy_monitor_.Mean();
  audit_trail_->Record(std::move(entry), estimators::kNumEstimatorKinds);
}

}  // namespace latest::core
