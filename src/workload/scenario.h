// Adversarial workload scenarios: declarative, seeded mutations composed
// over the synthetic stream so the LATEST lifecycle can be proven out
// against regime changes instead of only the stock generator.
//
// A ScenarioSpec describes one named stream: a two-regime clustered
// object generator (dense hotspot + uniform background, banded Zipf-ish
// keywords — the shape of tools/latest_stream_run's drift smoke) plus a
// set of mutations, each activated over a window of the object stream:
//
//   * spatial shift   — the dense cluster moves: abruptly (flash crowd)
//                       or linearly interpolated (gradual centroid drift);
//   * vocabulary churn— the active keyword band migrates: new-term
//                       injection ramps up as old terms decay;
//   * load wave       — diurnal sinusoidal modulation of arrival rate
//                       via a monotone time warp;
//   * burst           — a contiguous stretch of the stream arrives at
//                       `burst_factor` times the base rate (queries can
//                       stay paced in event time via query_pace_ms);
//   * query-mix flip  — the spatial/keyword/hybrid proportions of the
//                       query stream change mid-stream.
//
// Everything is a pure function of the spec (seeded Rng, index-driven
// mutation ramps), so a scenario replays bit-identically: the durability
// layer can fast-forward through it after a crash and two runs produce
// byte-identical deterministic state digests.
//
// MakeScenario(name) returns the catalog entry for a named scenario
// together with its acceptance gate — the per-scenario thresholds
// (detection delay, time-to-recover, tau hit rate, regret) that
// tests/scenario_test.cc and the CI scenario matrix enforce.

#ifndef LATEST_WORKLOAD_SCENARIO_H_
#define LATEST_WORKLOAD_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geo/rect.h"
#include "stream/object.h"
#include "stream/query.h"
#include "util/rng.h"
#include "util/status.h"

namespace latest::workload {

/// Query-type proportions of one query regime; the remainder after
/// keyword + spatial is hybrid (range + keyword).
struct ScenarioQueryMix {
  double keyword = 0.70;
  double spatial = 0.15;
  util::Status Validate() const;
};

/// Full description of one adversarial scenario stream.
struct ScenarioSpec {
  std::string name;
  std::string description;

  uint64_t objects = 16000;
  int64_t duration_ms = 8000;
  uint64_t seed = 5;

  /// Query cadence: one query per `query_every_objects` objects once the
  /// stream clock passes `query_warmup_ms` (the window length, so the
  /// warm-up phase sees data only). When `query_pace_ms > 0` queries are
  /// instead scheduled by event time — one whenever the stream clock
  /// crosses the next pace boundary — which keeps the query rate steady
  /// through ingest bursts.
  uint32_t query_every_objects = 10;
  int64_t query_warmup_ms = 1000;
  int64_t query_pace_ms = 0;

  /// Object regime: `cluster_fraction` of objects fall uniformly inside
  /// the dense cluster, the rest uniformly over the bounds.
  geo::Rect bounds{0, 0, 100, 100};
  double cluster_fraction = 0.7;
  geo::Rect cluster_before{20, 20, 40, 40};
  geo::Rect cluster_after{20, 20, 40, 40};
  /// Activation window of the spatial shift, as fractions of the object
  /// stream. begin == end means an abrupt jump at that point; begin < end
  /// linearly interpolates the cluster between the two rectangles.
  double spatial_shift_begin = 0.5;
  double spatial_shift_end = 0.5;

  /// Keyword regime: ids are drawn u^2-skewed from a band of
  /// `vocab_band` ids starting at the active base. During the vocabulary
  /// churn window each keyword draw picks the new band with probability
  /// equal to the ramp — new terms inject while old terms decay.
  uint32_t vocab_band = 50;
  stream::KeywordId vocab_base_before = 0;
  stream::KeywordId vocab_base_after = 0;
  double vocab_shift_begin = 0.5;
  double vocab_shift_end = 0.5;

  /// Diurnal load wave: arrival rate modulated by
  /// 1 - amplitude * sin(2 pi periods f) through a monotone time warp.
  /// amplitude must stay < 1 so time never runs backwards.
  double load_wave_amplitude = 0.0;
  uint32_t load_wave_periods = 2;

  /// Burst: objects in [burst_begin, burst_begin + burst_length] (object
  /// fractions) arrive at `burst_factor` times the base rate.
  double burst_begin = 0.0;
  double burst_length = 0.0;
  double burst_factor = 1.0;

  /// Query regimes before/after the flip point (fraction of objects);
  /// query_flip_at >= 1 means the mix never changes.
  ScenarioQueryMix query_mix_before;
  ScenarioQueryMix query_mix_after;
  double query_flip_at = 1.0;

  /// Keywords-per-keyword-query bounds (uniform).
  uint32_t min_query_keywords = 1;
  uint32_t max_query_keywords = 1;

  /// DeepSampling-inspired validation mode: the replay harness records
  /// the scoreboard's predicted accuracy/latency for every measured
  /// estimator immediately before each query and scores the prediction
  /// against the realized measurement — validating that switch decisions
  /// rest on calibrated expectations.
  bool validate_predictions = false;

  util::Status Validate() const;
};

/// One injected distribution change of a scenario, in stream coordinates
/// — what detection-delay and time-to-recover are measured against.
struct DriftInjection {
  /// "spatial", "vocab", or "query_mix".
  std::string kind;
  /// Activation window as fractions of the object stream (begin == end
  /// for abrupt changes).
  double begin_fraction = 0.0;
  double end_fraction = 0.0;
  /// The same window in event time and object index.
  int64_t onset_ms = 0;
  int64_t settled_ms = 0;
  uint64_t onset_object = 0;
};

/// The injected drifts of a spec, onset-ordered (empty for stationary
/// scenarios like `baseline`, `diurnal`, `burst`).
std::vector<DriftInjection> InjectionsOf(const ScenarioSpec& spec);

/// Per-scenario acceptance thresholds, enforced by the replay harness,
/// tests/scenario_test.cc, and the CI scenario matrix.
struct ScenarioGate {
  /// The drift detectors must fire within `max_detection_delay_queries`
  /// answered queries of the earliest injection onset.
  bool expects_detection = false;
  uint64_t max_detection_delay_queries = 0;
  /// Slice-mean active accuracy must be back at/above tau within this
  /// many window slices of each injection settling (< 0 disables).
  int64_t max_recover_slices = -1;
  /// Floors over the incremental phase.
  double min_tau_hit_rate = 0.0;
  double min_mean_accuracy = 0.0;
  /// Ceiling on lifetime counterfactual regret from the switch audit
  /// trail (< 0 disables).
  double max_cumulative_regret = -1.0;
  /// Ceiling on the mean absolute error of scoreboard accuracy
  /// predictions (validate_predictions mode only; < 0 disables).
  double max_accuracy_prediction_mae = -1.0;
};

/// A named scenario with its acceptance gate.
struct ScenarioCatalogEntry {
  ScenarioSpec spec;
  ScenarioGate gate;
};

/// Names of every catalog scenario, in presentation order.
std::vector<std::string> ScenarioNames();

/// Builds a catalog scenario scaled to the given stream volume. The
/// defaults match tools/latest_stream_run's smoke shape (16000 objects
/// over 8000 event-time ms). Fails with InvalidArgument on an unknown
/// name.
util::Result<ScenarioCatalogEntry> MakeScenario(std::string_view name,
                                                uint64_t objects = 16000,
                                                int64_t duration_ms = 8000,
                                                uint64_t seed = 5);

/// One interleaved stream event.
struct ScenarioEvent {
  bool is_query = false;
  stream::GeoTextObject object;  // Valid when !is_query.
  stream::Query query;           // Valid when is_query.
};

/// Streams the events of a scenario in non-decreasing timestamp order.
/// A pure function of the spec: equal specs produce equal streams.
class ScenarioStream {
 public:
  explicit ScenarioStream(const ScenarioSpec& spec);

  bool HasNext() const;
  ScenarioEvent Next();

  uint64_t objects_produced() const { return objects_produced_; }

  /// Timestamp the stream will assign to object `index` (the composed
  /// monotone time warp; independent of consumption state).
  int64_t TimestampOfObject(uint64_t index) const;

  const ScenarioSpec& spec() const { return spec_; }

 private:
  geo::Rect ClusterAt(double fraction) const;
  /// Active keyword-band base at this point of the stream; draws from
  /// `rng` only inside the churn window (mid-ramp the band is chosen
  /// per keyword, which is what makes churn gradual).
  stream::KeywordId KeywordBase(double fraction, util::Rng* rng);
  stream::GeoTextObject MakeObject(uint64_t index);
  stream::Query MakeQuery(double fraction, int64_t timestamp);

  ScenarioSpec spec_;
  util::Rng object_rng_;
  util::Rng query_rng_;
  uint64_t objects_produced_ = 0;
  bool query_pending_ = false;
  double pending_fraction_ = 0.0;
  int64_t pending_timestamp_ = 0;
  int64_t next_query_due_ms_ = 0;
};

}  // namespace latest::workload

#endif  // LATEST_WORKLOAD_SCENARIO_H_
