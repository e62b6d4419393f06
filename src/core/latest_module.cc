#include "core/latest_module.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/span.h"
#include "util/stopwatch.h"

namespace latest::core {

namespace {

/// Learning-model feature schema: query type (categorical, 3 values) plus
/// five numeric workload features; label = estimator kind (6 classes).
ml::FeatureSchema ModelSchema() {
  ml::FeatureSchema schema;
  schema.categorical_cardinalities = {3};
  schema.num_numeric = 5;
  schema.num_classes = estimators::kNumEstimatorKinds;
  return schema;
}

// Maps log10(area fraction) from [-8, 0] to [0, 1].
double NormalizeLogArea(double area, double domain_area) {
  if (area <= 0.0 || domain_area <= 0.0) return 0.0;
  const double lg = std::log10(std::max(1e-8, area / domain_area));
  return std::clamp((lg + 8.0) / 8.0, 0.0, 1.0);
}

}  // namespace

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kWarmup:
      return "warmup";
    case Phase::kPretraining:
      return "pretraining";
    case Phase::kIncremental:
      return "incremental";
  }
  return "unknown";
}

util::Status LatestConfig::Validate() const {
  if (!bounds.IsValid()) {
    return util::Status::InvalidArgument("bounds must have positive area");
  }
  LATEST_RETURN_IF_ERROR(window.Validate());
  LATEST_RETURN_IF_ERROR(tree.Validate());
  if (alpha < 0.0 || alpha > 1.0) {
    return util::Status::InvalidArgument("alpha must be in [0, 1]");
  }
  if (tau <= 0.0 || tau >= 1.0) {
    return util::Status::InvalidArgument("tau must be in (0, 1)");
  }
  if (beta <= 0.0 || beta >= 1.0) {
    return util::Status::InvalidArgument("beta must be in (0, 1)");
  }
  if (monitor_window == 0) {
    return util::Status::InvalidArgument("monitor_window must be > 0");
  }
  uint32_t enabled_count = 0;
  for (const bool enabled : enabled_estimators) enabled_count += enabled;
  if (enabled_count < 2) {
    return util::Status::InvalidArgument(
        "at least two estimators must be enabled for switching to exist");
  }
  if (!enabled_estimators[static_cast<uint32_t>(default_estimator)]) {
    return util::Status::InvalidArgument(
        "default_estimator must be enabled");
  }
  if (auto_retrain_error_threshold < 0.0) {
    return util::Status::InvalidArgument(
        "auto_retrain_error_threshold must be >= 0");
  }
  return util::Status::Ok();
}

util::Result<std::unique_ptr<LatestModule>> LatestModule::Create(
    const LatestConfig& config) {
  LATEST_RETURN_IF_ERROR(config.Validate());
  LatestConfig effective = config;
  effective.estimator.bounds = config.bounds;
  effective.estimator.window = config.window;
  LATEST_RETURN_IF_ERROR(effective.estimator.Validate());
  auto module = std::unique_ptr<LatestModule>(new LatestModule(effective));
  LATEST_RETURN_IF_ERROR(module->observer_->StartIntrospection());
  return module;
}

LatestModule::LatestModule(const LatestConfig& config)
    : config_(config),
      clock_(config.window),
      window_population_(config.window.num_slices),
      system_log_(config.bounds, config.window.window_length_ms),
      active_kind_(config.default_estimator),
      model_(std::make_unique<ml::HoeffdingTree>(ModelSchema(), config.tree)),
      scoreboard_(),
      accuracy_monitor_(config.monitor_window),
      recent_spatial_ratio_(config.monitor_window),
      recent_keyword_ratio_(config.monitor_window),
      recent_hybrid_ratio_(config.monitor_window),
      keyword_stats_(4096),
      keyword_decay_(
          static_cast<double>(config.window.num_slices - 1) /
          std::max(1u, config.window.num_slices)),
      telemetry_(std::make_unique<obs::Telemetry>()) {
  RegisterMetrics();
  observer_ = std::make_unique<ModuleObserver>(*this, telemetry_.get());
  scoreboard_.AttachTelemetry(&telemetry_->registry());
  // All enabled estimation structures are pre-filled during the warm-up
  // phase (Section V-C), so every enabled instance exists from the start.
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const auto kind = static_cast<estimators::EstimatorKind>(k);
    if (IsEnabled(kind)) EnsureInstance(kind);
  }
}

LatestModule::~LatestModule() = default;

void LatestModule::RegisterMetrics() {
  obs::MetricsRegistry& registry = telemetry_->registry();
  objects_counter_ = registry.GetCounter(
      "latest_objects_ingested_total",
      "Stream objects ingested over the module lifetime");
  queries_counter_ = registry.GetCounter(
      "latest_queries_total",
      "Estimation queries answered over the module lifetime");
  switches_counter_ = registry.GetCounter(
      "latest_switches_total", "Active-estimator switches performed");
  prefills_started_counter_ = registry.GetCounter(
      "latest_prefills_started_total",
      "Replacement pre-fills started by the accuracy monitor");
  prefills_aborted_counter_ = registry.GetCounter(
      "latest_prefills_aborted_total",
      "Pre-filled candidates discarded after accuracy recovered");
  retrains_counter_ = registry.GetCounter(
      "latest_model_retrains_total",
      "Automatic Hoeffding-tree retrainings (Section V-D trigger)");
  phase_gauge_ = registry.GetGauge(
      "latest_phase",
      "Lifecycle phase: 0 warmup, 1 pretraining, 2 incremental");
  active_gauge_ = registry.GetGauge(
      "latest_active_estimator",
      "EstimatorKind index of the active estimator");
  candidate_gauge_ = registry.GetGauge(
      "latest_candidate_estimator",
      "EstimatorKind index of the pre-filling candidate (-1 when none)");
  candidate_gauge_->Set(-1.0);
  phase_gauge_->Set(static_cast<double>(phase_));
  active_gauge_->Set(static_cast<double>(active_kind_));
}

obs::Event LatestModule::MakeEvent(obs::EventType type) const {
  obs::Event event;
  event.type = type;
  event.timestamp = static_cast<int64_t>(clock_.now());
  event.query_count = queries_counter_->value();
  event.phase = static_cast<int32_t>(phase_);
  event.from_estimator = static_cast<int32_t>(active_kind_);
  event.monitor_accuracy = accuracy_monitor_.Mean();
  return event;
}

void LatestModule::EnterPhase(Phase next) {
  if (next == phase_) return;
  obs::Event event = MakeEvent(obs::EventType::kPhaseChanged);
  event.detail = static_cast<double>(phase_);  // Previous phase.
  phase_ = next;
  event.phase = static_cast<int32_t>(phase_);
  phase_gauge_->Set(static_cast<double>(phase_));
  telemetry_->events().Append(event);
}

estimators::Estimator* LatestModule::EnsureInstance(
    estimators::EstimatorKind kind) {
  assert(IsEnabled(kind));
  auto& slot = instances_[static_cast<uint32_t>(kind)];
  if (slot == nullptr) {
    estimators::EstimatorConfig cfg = config_.estimator;
    cfg.seed = config_.seed * estimators::kNumEstimatorKinds +
               static_cast<uint32_t>(kind);
    auto result = estimators::CreateEstimator(kind, cfg);
    assert(result.ok());  // Config was validated at module creation.
    slot = std::move(result).value();
  }
  return slot.get();
}

void LatestModule::DestroyInstance(estimators::EstimatorKind kind) {
  instances_[static_cast<uint32_t>(kind)].reset();
}

void LatestModule::AdvanceClock(stream::Timestamp t) {
  const uint32_t rotations = clock_.Advance(t);
  if (rotations == 0) return;
  {
    LATEST_SPAN("slice_seal");
    for (uint32_t r = 0; r < rotations; ++r) {
      window_population_.Rotate();
      for (auto& instance : instances_) {
        if (instance != nullptr) instance->OnSliceRotate();
      }
      keyword_stats_.Decay(keyword_decay_);
      keyword_objects_ *= keyword_decay_;
      observer_->OnSliceRotated();
    }
  }
  LATEST_SPAN("evict");
  system_log_.EvictExpired(clock_.now());
}

void LatestModule::OnObject(const stream::GeoTextObject& obj) {
  LATEST_SPAN("ingest");
  AdvanceClock(obj.timestamp);
  {
    LATEST_SPAN("store_insert");
    system_log_.Insert(obj);
  }
  window_population_.Add();
  for (const stream::KeywordId kw : obj.keywords) keyword_stats_.Add(kw);
  keyword_objects_ += 1.0;
  {
    LATEST_SPAN("estimator_insert");
    for (auto& instance : instances_) {
      if (instance != nullptr) instance->Insert(obj);
    }
  }
  objects_counter_->Increment();
  observer_->OnIngest(obj);
  if (phase_ == Phase::kWarmup &&
      clock_.now() >= config_.window.window_length_ms) {
    EnterPhase(Phase::kPretraining);
  }
}

EstimatorMeasurement LatestModule::Measure(estimators::Estimator* est,
                                           const stream::Query& q,
                                           uint64_t actual) const {
  EstimatorMeasurement m;
  m.kind = est->kind();
  util::Stopwatch watch;
  double estimate = est->Estimate(q);
  m.latency_ms = watch.ElapsedMillis();
  // Scale estimates of partially pre-filled structures up to the window
  // population (Section V-D pre-filling).
  const uint64_t seen = est->seen_population();
  const uint64_t window = window_population_.total();
  if (seen == 0) {
    estimate = 0.0;
  } else if (window > seen) {
    estimate *= static_cast<double>(window) / static_cast<double>(seen);
  }
  m.estimate = estimate;
  m.accuracy = EstimationAccuracy(estimate, actual);
  return m;
}

ml::FeatureVector LatestModule::BuildFeatures(const stream::Query& q) const {
  ml::FeatureVector f;
  f.categorical = {static_cast<int>(q.Type())};
  f.numeric.resize(5, 0.0);
  if (q.HasRange()) {
    f.numeric[0] = NormalizeLogArea(q.range->Area(), config_.bounds.Area());
  }
  f.numeric[1] =
      std::min(1.0, static_cast<double>(q.keywords.size()) / 8.0);
  if (q.HasKeywords() && keyword_objects_ >= 1.0) {
    double miss_all = 1.0;
    for (const stream::KeywordId kw : q.keywords) {
      const double p =
          std::clamp(keyword_stats_.Count(kw) / keyword_objects_, 0.0, 1.0);
      miss_all *= (1.0 - p);
    }
    f.numeric[2] = 1.0 - miss_all;
  }
  f.numeric[3] = recent_spatial_ratio_.Mean();
  f.numeric[4] = recent_keyword_ratio_.Mean();
  return f;
}

estimators::EstimatorKind LatestModule::Recommend(
    const stream::Query& q) const {
  return static_cast<estimators::EstimatorKind>(
      model_->Predict(BuildFeatures(q)));
}

void LatestModule::ConcludePretraining() {
  EnterPhase(Phase::kIncremental);
  active_kind_ = config_.default_estimator;
  candidate_kind_.reset();
  if (!config_.maintain_shadow_estimators) {
    // Wipe every structure except the active one to reduce system
    // overhead (Section V-C).
    for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
      const auto kind = static_cast<estimators::EstimatorKind>(k);
      if (kind != active_kind_) DestroyInstance(kind);
    }
  }
  accuracy_monitor_.Reset();
  monitor_below_prefill_ = false;
  monitor_below_tau_ = false;
  incremental_queries_ = 0;
  last_switch_query_ = 0;
  active_gauge_->Set(static_cast<double>(active_kind_));
  candidate_gauge_->Set(-1.0);
}

namespace {

/// Bumped whenever the full-lifecycle layout below changes.
constexpr uint32_t kLifecycleVersion = 1;

}  // namespace

void LatestModule::SaveState(util::BinaryWriter* writer) const {
  SaveStateImpl(writer, /*include_wall_clock=*/true);
}

void LatestModule::SaveDeterministicState(util::BinaryWriter* writer) const {
  SaveStateImpl(writer, /*include_wall_clock=*/false);
}

void LatestModule::WriteFingerprint(util::BinaryWriter* writer) const {
  writer->WriteDouble(config_.alpha);
  writer->WriteDouble(config_.tau);
  writer->WriteDouble(config_.beta);
  writer->WriteDouble(config_.regret_margin);
  writer->WriteU32(config_.pretrain_queries);
  writer->WriteU32(config_.monitor_window);
  writer->WriteU32(config_.min_queries_between_switches);
  writer->WriteU32(static_cast<uint32_t>(config_.default_estimator));
  for (const bool enabled : config_.enabled_estimators) {
    writer->WriteBool(enabled);
  }
  writer->WriteI64(config_.window.window_length_ms);
  writer->WriteU32(config_.window.num_slices);
  writer->WriteU64(config_.seed);
  writer->WriteBool(config_.maintain_shadow_estimators);
  writer->WriteDouble(config_.auto_retrain_error_threshold);
  writer->WriteU32(config_.min_queries_between_retrains);
}

void LatestModule::SaveStateImpl(util::BinaryWriter* writer,
                                 bool include_wall_clock) const {
  writer->WriteU32(kLifecycleVersion);
  WriteFingerprint(writer);

  // Phase machine and stream clock.
  writer->WriteU32(static_cast<uint32_t>(phase_));
  clock_.Save(writer);
  window_population_.Save(writer);

  // Ground-truth window contents (indexes are rebuilt on load).
  system_log_.Save(writer);

  // Estimator portfolio: presence flag per kind, then the instance state.
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const estimators::Estimator* est = instances_[k].get();
    writer->WriteBool(est != nullptr);
    if (est != nullptr) est->SaveState(writer);
  }
  writer->WriteU32(static_cast<uint32_t>(active_kind_));
  writer->WriteBool(candidate_kind_.has_value());
  writer->WriteU32(candidate_kind_.has_value()
                       ? static_cast<uint32_t>(*candidate_kind_)
                       : 0);

  // Learned state. The scoreboard's latency side is wall clock — the
  // one piece of lifecycle state two identical runs legitimately differ
  // on — so the deterministic digest omits it.
  model_->Serialize(writer);
  scoreboard_.Serialize(writer, /*include_latency=*/include_wall_clock);

  // Monitors and workload-mix trackers.
  accuracy_monitor_.Save(writer);
  recent_spatial_ratio_.Save(writer);
  recent_keyword_ratio_.Save(writer);
  recent_hybrid_ratio_.Save(writer);

  // Keyword statistics feeding the model features.
  keyword_stats_.Save(writer);
  writer->WriteDouble(keyword_objects_);

  // Phase bookkeeping.
  writer->WriteU64(pretrain_seen_);
  writer->WriteU64(incremental_queries_);
  writer->WriteU64(last_switch_query_);
  writer->WriteU64(switch_log_.size());
  for (const SwitchEvent& e : switch_log_) {
    writer->WriteU64(e.query_index);
    writer->WriteI64(e.timestamp);
    writer->WriteU32(static_cast<uint32_t>(e.from));
    writer->WriteU32(static_cast<uint32_t>(e.to));
  }
  writer->WriteDouble(error_since_retrain_);
  writer->WriteU64(queries_since_retrain_);
  writer->WriteBool(monitor_below_prefill_);
  writer->WriteBool(monitor_below_tau_);

  // Lifetime counters: the query ordinal stamps events and drift
  // observations, and the object count backs objects_ingested(), so both
  // must survive a restart.
  writer->WriteU64(objects_counter_->value());
  writer->WriteU64(queries_counter_->value());
  writer->WriteU64(switches_counter_->value());
  writer->WriteU64(prefills_started_counter_->value());
  writer->WriteU64(prefills_aborted_counter_->value());
  writer->WriteU64(retrains_counter_->value());
}

util::Status LatestModule::LoadState(util::BinaryReader* reader) {
  const auto corrupt = [](const char* what) {
    return util::Status::DataLoss(std::string("lifecycle snapshot: ") +
                                  what);
  };
  uint32_t version;
  if (!reader->ReadU32(&version) || version != kLifecycleVersion) {
    return corrupt("bad version");
  }
  util::BinaryWriter expected;
  WriteFingerprint(&expected);
  std::string fingerprint(expected.buffer().size(), '\0');
  if (!reader->ReadBytes(fingerprint.data(), fingerprint.size())) {
    return corrupt("truncated fingerprint");
  }
  if (fingerprint != expected.buffer()) {
    return util::Status::FailedPrecondition(
        "lifecycle snapshot was taken under a different configuration");
  }

  uint32_t phase;
  if (!reader->ReadU32(&phase) || phase > 2) return corrupt("bad phase");
  phase_ = static_cast<Phase>(phase);
  if (!clock_.Load(reader)) return corrupt("bad clock");
  if (!window_population_.Load(reader)) {
    return corrupt("bad window population");
  }
  if (!system_log_.Load(reader)) return corrupt("bad system log");

  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const auto kind = static_cast<estimators::EstimatorKind>(k);
    bool present;
    if (!reader->ReadBool(&present)) return corrupt("truncated portfolio");
    if (!present) {
      DestroyInstance(kind);
      continue;
    }
    if (!IsEnabled(kind)) return corrupt("disabled estimator present");
    if (!EnsureInstance(kind)->LoadState(reader)) {
      return corrupt("bad estimator state");
    }
  }
  uint32_t active;
  bool has_candidate;
  uint32_t candidate;
  if (!reader->ReadU32(&active) ||
      active >= estimators::kNumEstimatorKinds ||
      !reader->ReadBool(&has_candidate) || !reader->ReadU32(&candidate) ||
      candidate >= estimators::kNumEstimatorKinds) {
    return corrupt("bad active/candidate kinds");
  }
  active_kind_ = static_cast<estimators::EstimatorKind>(active);
  candidate_kind_ =
      has_candidate
          ? std::optional<estimators::EstimatorKind>(
                static_cast<estimators::EstimatorKind>(candidate))
          : std::nullopt;

  LATEST_RETURN_IF_ERROR(model_->Restore(reader));
  LATEST_RETURN_IF_ERROR(scoreboard_.Restore(reader));

  if (!accuracy_monitor_.Load(reader) ||
      !recent_spatial_ratio_.Load(reader) ||
      !recent_keyword_ratio_.Load(reader) ||
      !recent_hybrid_ratio_.Load(reader)) {
    return corrupt("bad monitors");
  }
  if (!keyword_stats_.Load(reader) ||
      !reader->ReadDouble(&keyword_objects_)) {
    return corrupt("bad keyword stats");
  }

  uint64_t num_switches;
  if (!reader->ReadU64(&pretrain_seen_) ||
      !reader->ReadU64(&incremental_queries_) ||
      !reader->ReadU64(&last_switch_query_) ||
      !reader->ReadU64(&num_switches) ||
      num_switches > reader->remaining()) {
    return corrupt("bad phase bookkeeping");
  }
  switch_log_.clear();
  switch_log_.reserve(num_switches);
  for (uint64_t i = 0; i < num_switches; ++i) {
    SwitchEvent e;
    uint32_t from;
    uint32_t to;
    if (!reader->ReadU64(&e.query_index) || !reader->ReadI64(&e.timestamp) ||
        !reader->ReadU32(&from) || from >= estimators::kNumEstimatorKinds ||
        !reader->ReadU32(&to) || to >= estimators::kNumEstimatorKinds) {
      return corrupt("bad switch log");
    }
    e.from = static_cast<estimators::EstimatorKind>(from);
    e.to = static_cast<estimators::EstimatorKind>(to);
    switch_log_.push_back(e);
  }
  if (!reader->ReadDouble(&error_since_retrain_) ||
      !reader->ReadU64(&queries_since_retrain_) ||
      !reader->ReadBool(&monitor_below_prefill_) ||
      !reader->ReadBool(&monitor_below_tau_)) {
    return corrupt("bad retrain/monitor flags");
  }

  const std::array<obs::Counter*, 6> counters = {
      objects_counter_,          queries_counter_,
      switches_counter_,         prefills_started_counter_,
      prefills_aborted_counter_, retrains_counter_};
  for (obs::Counter* counter : counters) {
    uint64_t value;
    if (!reader->ReadU64(&value) || value < counter->value()) {
      return corrupt("bad lifetime counters");
    }
    counter->Increment(value - counter->value());
  }

  // Re-publish gauges (scoreboard gauges refresh on the next Record).
  phase_gauge_->Set(static_cast<double>(phase_));
  active_gauge_->Set(static_cast<double>(active_kind_));
  candidate_gauge_->Set(candidate_kind_.has_value()
                            ? static_cast<double>(*candidate_kind_)
                            : -1.0);
  observer_->Resync();
  return util::Status::Ok();
}

void LatestModule::TrackModelError(double relative_error) {
  if (config_.auto_retrain_error_threshold <= 0.0) return;
  error_since_retrain_ += relative_error;
  ++queries_since_retrain_;
  if (queries_since_retrain_ < config_.min_queries_between_retrains) return;
  const double mean_error =
      error_since_retrain_ / static_cast<double>(queries_since_retrain_);
  if (mean_error > config_.auto_retrain_error_threshold) {
    // Section V-D: the overall error rate since the last training grew
    // past tolerance — drop the model and re-grow it from fresh records.
    model_->Reset();
    retrains_counter_->Increment();
    obs::Event event = MakeEvent(obs::EventType::kModelRetrained);
    event.detail = mean_error;
    telemetry_->events().Append(event);
  }
  error_since_retrain_ = 0.0;
  queries_since_retrain_ = 0;
}

estimators::EstimatorKind LatestModule::ClampToEnabled(
    estimators::EstimatorKind kind, bool exclude_active) const {
  if (IsEnabled(kind) && !(exclude_active && kind == active_kind_)) {
    return kind;
  }
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const auto candidate = static_cast<estimators::EstimatorKind>(k);
    if (!IsEnabled(candidate)) continue;
    if (exclude_active && candidate == active_kind_) continue;
    return candidate;
  }
  return active_kind_;  // Unreachable with >= 2 enabled estimators.
}

std::array<double, 3> LatestModule::RecentTypeWeights() const {
  std::array<double, 3> weights = {recent_spatial_ratio_.Mean(),
                                   recent_keyword_ratio_.Mean(),
                                   recent_hybrid_ratio_.Mean()};
  const double total = weights[0] + weights[1] + weights[2];
  if (total <= 0.0) return {1.0 / 3, 1.0 / 3, 1.0 / 3};
  for (auto& w : weights) w /= total;
  return weights;
}

bool LatestModule::MaybeSwitch(const stream::Query& q, uint64_t query_index) {
  if (!accuracy_monitor_.full()) return false;
  const double avg = accuracy_monitor_.Mean();
  const std::array<double, 3> weights = RecentTypeWeights();

  // Edge-detect threshold crossings for the lifecycle event log.
  const bool below_prefill_now = avg < config_.PrefillThreshold();
  const bool below_tau_now = avg < config_.tau;
  if (below_tau_now && !monitor_below_tau_) {
    obs::Event event =
        MakeEvent(obs::EventType::kAccuracyBelowSwitchThreshold);
    event.detail = config_.tau;
    telemetry_->events().Append(event);
  } else if (below_prefill_now && !monitor_below_prefill_) {
    obs::Event event =
        MakeEvent(obs::EventType::kAccuracyBelowPrefillThreshold);
    event.detail = config_.PrefillThreshold();
    telemetry_->events().Append(event);
  }
  if (!below_prefill_now && monitor_below_prefill_) {
    obs::Event event = MakeEvent(obs::EventType::kAccuracyRecovered);
    event.detail = config_.PrefillThreshold();
    telemetry_->events().Append(event);
  }
  monitor_below_prefill_ = below_prefill_now;
  monitor_below_tau_ = below_tau_now;

  // The learning model's recommendation, forced away from the active
  // estimator (used once switch pressure exists).
  auto recommend_non_active = [&]() {
    LATEST_SPAN("tree_infer");
    const std::vector<double> dist =
        model_->PredictDistribution(BuildFeatures(q));
    estimators::EstimatorKind best = active_kind_;
    double best_p = -1.0;
    for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
      const auto kind = static_cast<estimators::EstimatorKind>(k);
      if (kind == active_kind_ || !IsEnabled(kind)) continue;
      if (dist[k] > best_p) {
        best_p = dist[k];
        best = kind;
      }
    }
    if (best == active_kind_ || best_p <= 0.0) {
      best = scoreboard_.WeightedBestFor(weights, config_.alpha,
                                         active_kind_);
    }
    return ClampToEnabled(best, /*exclude_active=*/true);
  };

  // Switch pressure exists when (a) the moving accuracy fell below tau
  // AND the scoreboard knows some alternative scoring at least as well
  // under the recent workload mix, or (b) an alternative dominates the
  // active estimator's mix-weighted blended score by the regret margin
  // (even with acceptable absolute accuracy — the Fig. 5 / Fig. 8
  // situations). Scores are weighted by the recent query-type mix so a
  // mixed workload does not thrash toward a single-type specialist.
  const auto active_score =
      scoreboard_.WeightedScore(active_kind_, weights, config_.alpha);
  const estimators::EstimatorKind alternative = ClampToEnabled(
      scoreboard_.WeightedBestFor(weights, config_.alpha, active_kind_),
      /*exclude_active=*/true);
  const auto alternative_score =
      scoreboard_.WeightedScore(alternative, weights, config_.alpha);
  const bool alternative_at_least_as_good =
      alternative_score.has_value() &&
      (!active_score.has_value() || *alternative_score >= *active_score);
  const bool regret_pressure =
      config_.regret_margin > 0.0 && alternative_score.has_value() &&
      active_score.has_value() &&
      *alternative_score > *active_score + config_.regret_margin;
  const bool accuracy_pressure =
      avg < config_.tau && alternative_at_least_as_good;
  const bool prefill_pressure =
      regret_pressure ||
      (avg < config_.PrefillThreshold() && alternative_at_least_as_good);

  if ((accuracy_pressure || regret_pressure) &&
      query_index - last_switch_query_ >=
          config_.min_queries_between_switches) {
    // Switch. Use the pre-filled candidate when available; otherwise ask
    // the model now (the candidate will start cold — exactly the cost the
    // pre-filling phase exists to avoid).
    const estimators::EstimatorKind recommendation =
        candidate_kind_.value_or(recommend_non_active());
    const estimators::EstimatorKind to = recommendation;
    if (to != active_kind_) {
      LATEST_SPAN("switch");
      EnsureInstance(to);
      if (!config_.maintain_shadow_estimators) {
        DestroyInstance(active_kind_);
      }
      switch_log_.push_back(SwitchEvent{query_index, clock_.now(),
                                        active_kind_, to});
      obs::Event event = MakeEvent(obs::EventType::kSwitched);
      event.to_estimator = static_cast<int32_t>(to);
      event.recommended = static_cast<int32_t>(recommendation);
      telemetry_->events().Append(event);
      switches_counter_->Increment();
      observer_->OnSwitch(q, weights, to, recommendation,
                          /*had_prefilled_candidate=*/
                          candidate_kind_.has_value());
      active_kind_ = to;
      candidate_kind_.reset();
      last_switch_query_ = query_index;
      accuracy_monitor_.Reset();
      monitor_below_prefill_ = false;
      monitor_below_tau_ = false;
      active_gauge_->Set(static_cast<double>(active_kind_));
      candidate_gauge_->Set(-1.0);
      return true;
    }
    candidate_kind_.reset();
    candidate_gauge_->Set(-1.0);
    return false;
  }

  if (prefill_pressure) {
    // Anticipate the switch: start pre-filling the recommended structure.
    if (!candidate_kind_.has_value()) {
      LATEST_SPAN("prefill");
      const estimators::EstimatorKind rec = recommend_non_active();
      if (rec != active_kind_) {
        candidate_kind_ = rec;
        EnsureInstance(rec);
        obs::Event event = MakeEvent(obs::EventType::kPrefillStarted);
        event.to_estimator = static_cast<int32_t>(rec);
        event.recommended = static_cast<int32_t>(rec);
        telemetry_->events().Append(event);
        prefills_started_counter_->Increment();
        candidate_gauge_->Set(static_cast<double>(rec));
      }
    }
    return false;
  }

  // Pressure receded: discard the pre-filled candidate (Section V-D).
  if (candidate_kind_.has_value()) {
    if (!config_.maintain_shadow_estimators) {
      DestroyInstance(*candidate_kind_);
    }
    obs::Event event = MakeEvent(obs::EventType::kPrefillAborted);
    event.to_estimator = static_cast<int32_t>(*candidate_kind_);
    telemetry_->events().Append(event);
    prefills_aborted_counter_->Increment();
    candidate_kind_.reset();
    candidate_gauge_->Set(-1.0);
  }
  return false;
}

QueryOutcome LatestModule::OnQuery(const stream::Query& q) {
  return OnQueryImpl(q, /*precomputed_actual=*/nullptr,
                     /*precomputed_truth_ms=*/0.0);
}

void LatestModule::OnQueryBatch(const stream::Query* queries, size_t k,
                                QueryOutcome* outcomes,
                                QueryStageBreakdown* stages) {
  if (k == 0) return;
  if (k == 1) {
    // Degenerate tick: identical code path to the unbatched API.
    outcomes[0] = OnQuery(queries[0]);
    if (stages != nullptr) stages[0] = last_stage_breakdown_;
    return;
  }
  const util::Stopwatch truth_watch;
  batch_truths_.resize(k);
  {
    LATEST_SPAN("ground_truth");
    system_log_.TrueSelectivityBatch(queries, k, batch_truths_.data());
  }
  // Stage attribution: the batch pass is amortized evenly across queries.
  const double truth_ms_each =
      truth_watch.ElapsedMillis() / static_cast<double>(k);
  observer_->OnTruthBatch(k);
  for (size_t i = 0; i < k; ++i) {
    outcomes[i] = OnQueryImpl(queries[i], &batch_truths_[i], truth_ms_each);
    if (stages != nullptr) stages[i] = last_stage_breakdown_;
  }
}

QueryOutcome LatestModule::OnQueryImpl(const stream::Query& q,
                                       const uint64_t* precomputed_actual,
                                       double precomputed_truth_ms) {
  LATEST_SPAN("query");
  AdvanceClock(q.timestamp);
  if (phase_ == Phase::kWarmup &&
      clock_.now() >= config_.window.window_length_ms) {
    EnterPhase(Phase::kPretraining);
  }

  const uint64_t ordinal = queries_counter_->value();
  queries_counter_->Increment();

  uint64_t actual = 0;
  double ground_truth_ms = precomputed_truth_ms;
  if (precomputed_actual != nullptr) {
    actual = *precomputed_actual;
  } else {
    const util::Stopwatch truth_watch;
    {
      LATEST_SPAN("ground_truth");
      actual = system_log_.TrueSelectivity(q);
    }
    ground_truth_ms = truth_watch.ElapsedMillis();
  }
  const stream::QueryType type = q.Type();
  recent_spatial_ratio_.Add(type == stream::QueryType::kSpatial ? 1.0 : 0.0);
  recent_keyword_ratio_.Add(type == stream::QueryType::kKeyword ? 1.0 : 0.0);
  recent_hybrid_ratio_.Add(type == stream::QueryType::kHybrid ? 1.0 : 0.0);

  QueryOutcome outcome;
  outcome.actual = actual;
  outcome.phase = phase_;
  outcome.active = active_kind_;

  if (phase_ == Phase::kWarmup) {
    // The paper's warm-up receives no queries; answer with the default
    // estimator without any training.
    const util::Stopwatch estimate_watch;
    EstimatorMeasurement m;
    {
      LATEST_SPAN("estimate");
      m = Measure(EnsureInstance(active_kind_), q, actual);
    }
    const double estimate_ms = estimate_watch.ElapsedMillis();
    outcome.estimate = m.estimate;
    outcome.accuracy = m.accuracy;
    outcome.latency_ms = m.latency_ms;
    FinishQuery(outcome, ordinal, ground_truth_ms, estimate_ms,
                /*model_ms=*/0.0);
    return outcome;
  }

  // Pre-training runs the query on every enabled estimator (Section V-C).
  // The incremental phase measures the active estimator, the pre-filling
  // candidate and, in evaluation mode, every shadow estimator. Measurements
  // land in per-kind slots; scoreboard EWMAs, feedback, and the latency
  // scaler are updated afterwards, in kind order.
  const bool pretraining = phase_ == Phase::kPretraining;
  if (!pretraining) ++incremental_queries_;
  const util::Stopwatch estimate_watch;
  EstimatorMeasurement active_m;
  std::vector<uint32_t> kinds;
  kinds.reserve(estimators::kNumEstimatorKinds);
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const auto kind = static_cast<estimators::EstimatorKind>(k);
    if (pretraining) {
      if (!IsEnabled(kind)) continue;
      EnsureInstance(kind);
    } else if (instance(kind) == nullptr ||
               (kind != active_kind_ && kind != candidate_kind_ &&
                !config_.maintain_shadow_estimators)) {
      continue;
    }
    kinds.push_back(k);
  }
  std::array<EstimatorMeasurement, estimators::kNumEstimatorKinds> slots;
  {
    LATEST_SPAN("estimate");
    for (const uint32_t k : kinds) {
      slots[k] = Measure(instances_[k].get(), q, actual);
    }
  }
  for (const uint32_t k : kinds) {
    const auto kind = static_cast<estimators::EstimatorKind>(k);
    const EstimatorMeasurement& m = slots[k];
    scoreboard_.Record(type, m);
    instance(kind)->OnFeedback(q, m.estimate, actual);
    if (kind == active_kind_) active_m = m;
    if (pretraining || config_.maintain_shadow_estimators ||
        kind == candidate_kind_) {
      outcome.measurements.push_back(m);
    }
  }
  const double estimate_ms = estimate_watch.ElapsedMillis();

  // Pre-training labels the training record with the best alpha-blended
  // performer; afterwards system-log feedback becomes an additional
  // record labeled with the scoreboard's current best (Section V-D).
  const util::Stopwatch model_watch;
  auto label = static_cast<uint32_t>(active_kind_);
  if (pretraining) {
    double best_score = -1.0;
    for (const auto& m : outcome.measurements) {
      const double score =
          BlendedScore(m.accuracy, scoreboard_.NormalizeLatency(m.latency_ms),
                       config_.alpha);
      if (score > best_score) {
        best_score = score;
        label = static_cast<uint32_t>(m.kind);
      }
    }
  } else {
    label = static_cast<uint32_t>(scoreboard_.BestFor(type, config_.alpha));
  }
  {
    LATEST_SPAN("tree_train");
    model_->Train(ml::TrainingExample{BuildFeatures(q), label});
  }

  outcome.estimate = active_m.estimate;
  outcome.accuracy = active_m.accuracy;
  outcome.latency_ms = active_m.latency_ms;
  accuracy_monitor_.Add(active_m.accuracy);
  outcome.monitor_accuracy = accuracy_monitor_.Mean();
  TrackModelError(RelativeError(active_m.estimate, actual));
  if (!pretraining) {
    outcome.switched = MaybeSwitch(q, incremental_queries_);
    outcome.active = active_kind_;
  }
  const double model_ms = model_watch.ElapsedMillis();
  if (pretraining && ++pretrain_seen_ >= config_.pretrain_queries) {
    ConcludePretraining();
  }
  FinishQuery(outcome, ordinal, ground_truth_ms, estimate_ms, model_ms);
  return outcome;
}

void LatestModule::FinishQuery(const QueryOutcome& outcome, uint64_t ordinal,
                               double ground_truth_ms, double estimate_ms,
                               double model_ms) {
  last_stage_breakdown_ = {ground_truth_ms, estimate_ms, model_ms};
  observer_->OnQueryFinished(outcome, ordinal, last_stage_breakdown_);
}

}  // namespace latest::core
