// LatestModule: the learning-assisted selectivity estimation module
// (Section V).
//
// The module consumes the interleaved stream of geo-textual objects and
// RC-DVQ estimation queries and drives the paper's three-phase lifecycle:
//
//   1. Warm-up (t < T): all estimation structures are pre-filled from
//      arriving objects; no query training happens.
//   2. Pre-training (`pretrain_queries` queries): every query runs on all
//      six estimators; measured accuracy and latency (min-max normalized,
//      alpha-blended) label training records for the Hoeffding tree.
//   3. Incremental learning: a single active estimator answers queries.
//      Ground-truth selectivities from the exact evaluator (the "system
//      log") keep training the tree and feed a moving-average accuracy
//      monitor. When the average drops below beta*tau the tree-recommended
//      replacement starts pre-filling; below tau the module switches to
//      it. If accuracy recovers above beta*tau first, the pre-filled
//      candidate is discarded.
//
// Evaluation support: with `maintain_shadow_estimators` every estimator
// stays alive and is measured on every query — exactly how the paper
// produces its per-estimator timelines while LATEST's selection is
// highlighted. Production deployments leave it off: only the active (and
// a pre-filling candidate) structure is maintained.
//
// Observability beyond the lifecycle counters and event log is attached
// through ModuleObserver (core/module_observer.h), which the module calls
// on ingest, slice rotation, query completion, and switch.

#ifndef LATEST_CORE_LATEST_MODULE_H_
#define LATEST_CORE_LATEST_MODULE_H_

#include <array>
#include <memory>
#include <string>
#include <optional>
#include <vector>

#include "core/module_observer.h"
#include "core/scoreboard.h"
#include "estimators/estimator.h"
#include "estimators/space_saving.h"
#include "exact/exact_evaluator.h"
#include "ml/hoeffding_tree.h"
#include "obs/slo_monitor.h"
#include "obs/telemetry.h"
#include "stream/object.h"
#include "stream/query.h"
#include "stream/sliding_window.h"
#include "util/status.h"

namespace latest::core {

/// Stream lifecycle phases (Figure 2).
enum class Phase {
  kWarmup = 0,
  kPretraining = 1,
  kIncremental = 2,
};

/// Returns "warmup", "pretraining", or "incremental".
const char* PhaseName(Phase phase);

/// Configuration of the LATEST module.
struct LatestConfig {
  /// Spatial domain of the stream.
  geo::Rect bounds;

  /// Shared time window (T and its slicing).
  stream::WindowConfig window;

  /// Estimator portfolio parameters. `bounds`, `window`, and `seed` are
  /// overwritten from the fields above.
  estimators::EstimatorConfig estimator;

  /// Incremental learner parameters. The defaults here are looser than
  /// the WEKA defaults (grace 100, delta 1e-3, tie 0.15) so the tree
  /// develops structure within laptop-scale query volumes; the paper's
  /// 100K-query streams reach stability with the stock WEKA bounds.
  ml::HoeffdingTreeConfig tree{
      .grace_period = 100,
      .split_confidence = 1e-3,
      .tie_threshold = 0.15,
  };

  /// Relative importance of latency vs accuracy in the learning reward
  /// (Section V-C): 0 = accuracy only, 1 = latency only.
  double alpha = 0.5;

  /// Accuracy switch threshold tau (Section V-D).
  double tau = 0.62;

  /// Pre-fill threshold factor beta in (0, 1). The paper pre-fills at
  /// beta * tau and switches at tau; since beta * tau < tau, we follow its
  /// *intent* (anticipate the switch) by pre-filling at the HIGHER
  /// threshold tau / beta (PrefillThreshold()) and switching at tau.
  double beta = 0.875;

  /// Blended-score regret trigger: a switch is also considered when the
  /// scoreboard knows an alternative whose alpha-blended score for the
  /// current query type beats the active estimator's by this margin —
  /// how the paper's Fig. 5 switch happens (RSH accuracy is fine in
  /// absolute terms but H4096 clearly dominates on both measures).
  /// 0 disables the trigger.
  double regret_margin = 0.08;

  /// Queries evaluated on all estimators during pre-training.
  uint32_t pretrain_queries = 400;

  /// Moving window (queries) of the accuracy monitor.
  uint32_t monitor_window = 128;

  /// Minimum queries between consecutive switches (hysteresis).
  uint32_t min_queries_between_switches = 256;

  /// Estimator employed when the incremental phase starts (RSH in the
  /// paper).
  estimators::EstimatorKind default_estimator =
      estimators::EstimatorKind::kRsh;

  /// Which portfolio members this deployment uses ("system administrators
  /// can select a different set of estimators", Section IV). At least two
  /// must be enabled, including the default estimator; disabled kinds are
  /// never built, measured, or recommended.
  std::array<bool, estimators::kNumEstimatorKinds> enabled_estimators = {
      true, true, true, true, true, true, /*CMS=*/false};

  /// Automatic model retraining (Section V-D): when the mean relative
  /// error of answered queries since the last (re)training exceeds this
  /// threshold, the Hoeffding tree is dropped and re-grows from
  /// subsequent records. 0 disables the trigger.
  double auto_retrain_error_threshold = 0.0;

  /// Minimum queries between automatic retrainings.
  uint32_t min_queries_between_retrains = 512;

  /// Keep all estimators alive and measured per query (evaluation mode).
  bool maintain_shadow_estimators = false;

  /// Live introspection plane (obs/statusz.h). When enabled, Create()
  /// starts an embedded HTTP server on 127.0.0.1:`introspection_port`
  /// serving /metrics, /healthz, /statusz, and /tracez; a port of
  /// 0 binds an ephemeral one (read it back via
  /// observer().introspection()->port()).
  /// All introspection fields are deliberately EXCLUDED from the
  /// SaveState configuration fingerprint — the exposition plane never
  /// affects lifecycle state, so snapshots stay interchangeable between
  /// instrumented and dark deployments.
  bool enable_introspection = false;
  uint16_t introspection_port = 0;

  /// Cadence (ms) of the introspection server's SLO ticker thread; 0
  /// starts no ticker.
  uint32_t slo_tick_ms = 1000;

  /// Declarative SLO rules (obs/slo_monitor.h) evaluated against the
  /// module's metrics registry. Empty with introspection enabled
  /// installs obs::DefaultLatestSloRules(tau).
  std::vector<obs::SloRule> slo_rules;

  /// Estimation-quality observability (obs/error_accounting.h,
  /// obs/drift_detector.h, obs/audit_trail.h).
  /// Strictly observational — none of it feeds lifecycle decisions or
  /// snapshots — so, like the introspection fields above, every member
  /// is EXCLUDED from the SaveState configuration fingerprint.
  struct QualityObs {
    /// Master switch for the whole quality plane (error accounting,
    /// drift detection, audit trail). Its sizes are ModuleObserver
    /// constants and its detector settings obs/drift_detector.cc
    /// constants: the scenario gates' detection-delay bounds were tuned
    /// against those, so no deployment runs a different detector.
    bool enabled = true;
  } quality;

  /// Seed for all randomized components.
  uint64_t seed = 42;

  /// The pre-fill (anticipation) accuracy threshold.
  double PrefillThreshold() const { return tau / beta; }

  util::Status Validate() const;
};

/// One switch of the active estimator.
struct SwitchEvent {
  uint64_t query_index = 0;  // Incremental-phase query ordinal.
  stream::Timestamp timestamp = 0;
  estimators::EstimatorKind from = estimators::EstimatorKind::kRsh;
  estimators::EstimatorKind to = estimators::EstimatorKind::kRsh;
};

/// Per-query wall-time attribution of the module's internal stages: the
/// module's only stage timer. Every query's breakdown feeds the
/// observer's `latest_stage_latency_ms{stage=...}` histograms, and
/// OnQueryBatch hands it to the serving plane's request waterfalls.
/// Strictly observational: no influence on estimates or phase
/// bookkeeping.
struct QueryStageBreakdown {
  double ground_truth_ms = 0.0;
  double estimate_ms = 0.0;
  /// Learning-model time: tree inference plus training for this query.
  double model_ms = 0.0;
};

/// Result of one estimation query.
struct QueryOutcome {
  double estimate = 0.0;
  uint64_t actual = 0;
  double accuracy = 0.0;
  double latency_ms = 0.0;
  estimators::EstimatorKind active = estimators::EstimatorKind::kRsh;
  Phase phase = Phase::kWarmup;
  bool switched = false;
  /// Moving-average accuracy of the active estimator after this query.
  double monitor_accuracy = 0.0;
  /// Per-estimator measurements; filled during pre-training and in shadow
  /// mode (empty otherwise).
  std::vector<EstimatorMeasurement> measurements;
};

/// The LATEST module.
class LatestModule {
 public:
  /// Fails with InvalidArgument on a bad configuration.
  static util::Result<std::unique_ptr<LatestModule>> Create(
      const LatestConfig& config);

  ~LatestModule();
  LatestModule(const LatestModule&) = delete;
  LatestModule& operator=(const LatestModule&) = delete;

  /// Ingests one stream object (timestamps non-decreasing across objects
  /// and queries).
  void OnObject(const stream::GeoTextObject& obj);

  /// Answers one estimation query and performs all phase bookkeeping.
  QueryOutcome OnQuery(const stream::Query& q);

  /// Answers `k` queries admitted as one batch (the serving plane's tick).
  /// Ground truth for the whole batch is computed first through
  /// ExactEvaluator::TrueSelectivityBatch — so the grid batch kernel sees
  /// the batch's spatial queries together, and the latest_batch_size
  /// histogram gets one sample of k — then per-query clock advance,
  /// estimation, training, and switch bookkeeping run serially in
  /// arrival order. Outcomes are bit-identical to calling OnQuery on each
  /// query in sequence: counts filter by each query's own window cutoff,
  /// and the module-wide non-decreasing-timestamp contract means
  /// interleaved eviction can only remove objects already outside every
  /// later cutoff.
  /// `stages`, when non-null, receives one QueryStageBreakdown per query
  /// (ground-truth time amortized over the batch pass).
  void OnQueryBatch(const stream::Query* queries, size_t k,
                    QueryOutcome* outcomes,
                    QueryStageBreakdown* stages = nullptr);

  /// Currently employed estimator kind.
  estimators::EstimatorKind active_kind() const { return active_kind_; }

  /// Pre-filling candidate, if a switch is being anticipated.
  std::optional<estimators::EstimatorKind> candidate_kind() const {
    return candidate_kind_;
  }

  Phase phase() const { return phase_; }

  /// All switches performed so far.
  const std::vector<SwitchEvent>& switch_log() const { return switch_log_; }

  /// Learning-model recommendation for a query (introspection; also used
  /// by the Table II experiment).
  estimators::EstimatorKind Recommend(const stream::Query& q) const;

  const Scoreboard& scoreboard() const { return scoreboard_; }
  const ml::HoeffdingTree& model() const { return *model_; }

  /// Objects currently inside the window.
  uint64_t window_population() const { return window_population_.total(); }

  /// Objects ingested over the stream lifetime (telemetry-backed).
  uint64_t objects_ingested() const { return objects_counter_->value(); }

  /// Queries answered over the stream lifetime (telemetry-backed).
  uint64_t queries_answered() const { return queries_counter_->value(); }

  const LatestConfig& config() const { return config_; }


  /// Metrics registry and lifecycle event log.
  obs::Telemetry& telemetry() { return *telemetry_; }
  const obs::Telemetry& telemetry() const { return *telemetry_; }

  /// Metrics, the quality plane, the SLO monitor and the introspection
  /// server (core/module_observer.h). Always present.
  ModuleObserver& observer() { return *observer_; }

  /// Persists the COMPLETE lifecycle — phase machine, clock, window
  /// contents, every live estimator, model, scoreboard, monitors, and
  /// lifetime counters — so a crashed process resumes bit-identically
  /// after WAL replay (src/persist/). The buffer carries a configuration
  /// fingerprint; LoadState refuses snapshots from an incompatible
  /// configuration.
  void SaveState(util::BinaryWriter* writer) const;

  /// Restores a snapshot written by SaveState into a freshly created
  /// module with the same configuration. On failure the module is in an
  /// unspecified (but not unsafe) state and must be discarded.
  util::Status LoadState(util::BinaryReader* reader);

  /// Same layout as SaveState minus the wall-clock statistics (the
  /// scoreboard's latency side) — the only lifecycle state two runs over
  /// the same event stream legitimately differ on. Two alpha = 0 runs
  /// fed identical streams produce bitwise-identical digests, which is
  /// what the recovery tests and the crash smoke compare. NOT loadable
  /// by LoadState.
  void SaveDeterministicState(util::BinaryWriter* writer) const;

  /// True iff the kind is part of this deployment's portfolio.
  bool IsEnabled(estimators::EstimatorKind kind) const {
    return config_.enabled_estimators[static_cast<uint32_t>(kind)];
  }

 private:
  /// Reads (never writes) lifecycle state for its gauges and audits.
  friend class ModuleObserver;

  explicit LatestModule(const LatestConfig& config);

  /// Lazily constructs the estimator instance for a kind.
  estimators::Estimator* EnsureInstance(estimators::EstimatorKind kind);
  void DestroyInstance(estimators::EstimatorKind kind);
  estimators::Estimator* instance(estimators::EstimatorKind kind) {
    return instances_[static_cast<uint32_t>(kind)].get();
  }

  /// Advances event time; fans slice rotations out to all live structures.
  void AdvanceClock(stream::Timestamp t);

  /// Estimate scaled for partial pre-fill, plus measured latency/accuracy.
  EstimatorMeasurement Measure(estimators::Estimator* est,
                               const stream::Query& q, uint64_t actual) const;

  /// Builds the learning-model feature vector for a query.
  ml::FeatureVector BuildFeatures(const stream::Query& q) const;

  /// Moves from pre-training to the incremental phase.
  void ConcludePretraining();

  /// Pre-fill / discard / switch logic after an incremental query.
  bool MaybeSwitch(const stream::Query& q, uint64_t query_index);

  /// Registers the lifetime counters and decision-state gauges.
  void RegisterMetrics();

  /// Configuration fingerprint: every knob that shapes the serialized
  /// layout or the post-restore decision sequence. LoadState refuses a
  /// snapshot whose fingerprint bytes differ.
  void WriteFingerprint(util::BinaryWriter* writer) const;

  /// Shared body of SaveState/SaveDeterministicState.
  void SaveStateImpl(util::BinaryWriter* writer,
                     bool include_wall_clock) const;

  /// Base lifecycle event stamped with clock, query count, phase, and
  /// monitor accuracy.
  obs::Event MakeEvent(obs::EventType type) const;

  /// Emits kPhaseChanged and updates the phase gauge.
  void EnterPhase(Phase next);

  /// Shared body of OnQuery / OnQueryBatch. A non-null
  /// `precomputed_actual` skips the per-query ground-truth pass and
  /// charges `precomputed_truth_ms` to the ground-truth stage instead.
  QueryOutcome OnQueryImpl(const stream::Query& q,
                           const uint64_t* precomputed_actual,
                           double precomputed_truth_ms);

  /// Records the query's stage breakdown and hands the finished query to
  /// the observer.
  void FinishQuery(const QueryOutcome& outcome, uint64_t ordinal,
                   double ground_truth_ms, double estimate_ms,
                   double model_ms);

  /// Stage attribution of the most recent query (written by FinishQuery,
  /// read back by OnQueryBatch for its `stages` out-array). Plain member:
  /// the module is single-threaded by contract.
  QueryStageBreakdown last_stage_breakdown_;

  LatestConfig config_;
  Phase phase_ = Phase::kWarmup;

  stream::SliceClock clock_;
  stream::WindowPopulation window_population_;
  exact::ExactEvaluator system_log_;
  std::vector<uint64_t> batch_truths_;  // OnQueryBatch scratch.

  std::array<std::unique_ptr<estimators::Estimator>,
             estimators::kNumEstimatorKinds>
      instances_;
  estimators::EstimatorKind active_kind_;
  std::optional<estimators::EstimatorKind> candidate_kind_;

  std::unique_ptr<ml::HoeffdingTree> model_;
  Scoreboard scoreboard_;
  util::MovingAverage accuracy_monitor_;
  util::MovingAverage recent_spatial_ratio_;
  util::MovingAverage recent_keyword_ratio_;
  util::MovingAverage recent_hybrid_ratio_;

  /// Recent workload mix as (spatial, keyword, hybrid) fractions.
  std::array<double, 3> RecentTypeWeights() const;

  /// Stream keyword statistics for the keyword-selectivity feature.
  estimators::SpaceSavingCounter keyword_stats_;
  double keyword_objects_ = 0.0;
  double keyword_decay_;

  /// Picks an enabled replacement when a recommendation lands on a
  /// disabled kind (or the active one).
  estimators::EstimatorKind ClampToEnabled(estimators::EstimatorKind kind,
                                           bool exclude_active) const;

  /// Tracks error since the last (re)training and fires the automatic
  /// retraining trigger of Section V-D.
  void TrackModelError(double relative_error);

  uint64_t pretrain_seen_ = 0;
  uint64_t incremental_queries_ = 0;
  uint64_t last_switch_query_ = 0;
  std::vector<SwitchEvent> switch_log_;

  double error_since_retrain_ = 0.0;
  uint64_t queries_since_retrain_ = 0;

  /// Telemetry: the registry is the source of truth for lifetime
  /// counters (objects_ingested(), queries_answered(), ...). Declared
  /// before observer_, which registers into it and must die first.
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::unique_ptr<ModuleObserver> observer_;

  obs::Counter* objects_counter_ = nullptr;
  obs::Counter* queries_counter_ = nullptr;
  obs::Counter* switches_counter_ = nullptr;
  obs::Counter* prefills_started_counter_ = nullptr;
  obs::Counter* prefills_aborted_counter_ = nullptr;
  obs::Counter* retrains_counter_ = nullptr;
  obs::Gauge* phase_gauge_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Gauge* candidate_gauge_ = nullptr;

  /// Threshold-crossing edge detection for the event log.
  bool monitor_below_prefill_ = false;
  bool monitor_below_tau_ = false;
};

}  // namespace latest::core

#endif  // LATEST_CORE_LATEST_MODULE_H_
