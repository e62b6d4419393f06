#include "workload/scenario.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace latest::workload {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Linear activation of a mutation window: 0 before `begin`, 1 at/after
/// `end`, linear in between. begin == end is an abrupt step.
double Ramp(double f, double begin, double end) {
  if (f < begin) return 0.0;
  if (f >= end) return 1.0;
  return (f - begin) / (end - begin);
}

/// Monotone event-time warp: object fraction -> warped time fraction.
///
/// Burst first (its window is specified in object fractions: that
/// stretch of the stream is compressed into 1/factor of its event
/// time), then the diurnal wave
///   t(f) = f - a/(2 pi p) * (1 - cos(2 pi p f)),
/// whose derivative 1 - a sin(2 pi p f) stays positive for a < 1 and
/// which is exact (t(1) = 1) at integer period counts.
double WarpFraction(const ScenarioSpec& spec, double f) {
  double t = f;
  if (spec.burst_length > 0.0 && spec.burst_factor > 1.0) {
    const double b = spec.burst_begin;
    const double len = spec.burst_length;
    const double rate = 1.0 / spec.burst_factor;
    const double total = (1.0 - len) + len * rate;
    double acc;
    if (t <= b) {
      acc = t;
    } else if (t < b + len) {
      acc = b + (t - b) * rate;
    } else {
      acc = b + len * rate + (t - b - len);
    }
    t = acc / total;
  }
  if (spec.load_wave_amplitude > 0.0) {
    const double periods =
        static_cast<double>(std::max<uint32_t>(1, spec.load_wave_periods));
    const double omega = 2.0 * kPi * periods;
    t = t - spec.load_wave_amplitude / omega * (1.0 - std::cos(omega * t));
  }
  return std::clamp(t, 0.0, 1.0);
}

int64_t TimestampAt(const ScenarioSpec& spec, double f) {
  return static_cast<int64_t>(static_cast<double>(spec.duration_ms) *
                              WarpFraction(spec, f));
}

/// Derives the per-stream generator seed (SplitMix64 of the scenario
/// seed and a stream tag) so object and query draws are independent.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream_tag) {
  uint64_t state = seed + 0x9E3779B97F4A7C15ULL * (stream_tag + 1);
  return util::SplitMix64(&state);
}

util::Status CheckFraction(const char* what, double value) {
  if (value >= 0.0 && value <= 1.0) return util::Status::Ok();
  return util::Status::InvalidArgument(std::string(what) +
                                       " must lie in [0, 1]");
}

bool MixesDiffer(const ScenarioQueryMix& a, const ScenarioQueryMix& b) {
  return a.keyword != b.keyword || a.spatial != b.spatial;
}

}  // namespace

util::Status ScenarioQueryMix::Validate() const {
  if (keyword < 0.0 || spatial < 0.0 || keyword + spatial > 1.0) {
    return util::Status::InvalidArgument(
        "query mix proportions must be non-negative and sum to <= 1");
  }
  return util::Status::Ok();
}

util::Status ScenarioSpec::Validate() const {
  if (objects == 0) return util::Status::InvalidArgument("objects must be > 0");
  if (duration_ms <= 0) {
    return util::Status::InvalidArgument("duration_ms must be > 0");
  }
  if (query_pace_ms == 0 && query_every_objects == 0) {
    return util::Status::InvalidArgument(
        "query_every_objects must be > 0 without query pacing");
  }
  if (!bounds.IsValid()) {
    return util::Status::InvalidArgument("bounds must have positive area");
  }
  LATEST_RETURN_IF_ERROR(CheckFraction("cluster_fraction", cluster_fraction));
  for (const geo::Rect* cluster : {&cluster_before, &cluster_after}) {
    if (!cluster->IsValid() || !bounds.ContainsRect(*cluster)) {
      return util::Status::InvalidArgument(
          "cluster rectangles must be valid and inside bounds");
    }
  }
  LATEST_RETURN_IF_ERROR(
      CheckFraction("spatial_shift_begin", spatial_shift_begin));
  LATEST_RETURN_IF_ERROR(CheckFraction("spatial_shift_end", spatial_shift_end));
  if (spatial_shift_begin > spatial_shift_end) {
    return util::Status::InvalidArgument(
        "spatial_shift_begin must be <= spatial_shift_end");
  }
  if (vocab_band == 0) {
    return util::Status::InvalidArgument("vocab_band must be > 0");
  }
  LATEST_RETURN_IF_ERROR(CheckFraction("vocab_shift_begin", vocab_shift_begin));
  LATEST_RETURN_IF_ERROR(CheckFraction("vocab_shift_end", vocab_shift_end));
  if (vocab_shift_begin > vocab_shift_end) {
    return util::Status::InvalidArgument(
        "vocab_shift_begin must be <= vocab_shift_end");
  }
  if (load_wave_amplitude < 0.0 || load_wave_amplitude >= 1.0) {
    return util::Status::InvalidArgument(
        "load_wave_amplitude must lie in [0, 1) to keep time monotone");
  }
  LATEST_RETURN_IF_ERROR(CheckFraction("burst_begin", burst_begin));
  LATEST_RETURN_IF_ERROR(CheckFraction("burst_length", burst_length));
  if (burst_begin + burst_length > 1.0) {
    return util::Status::InvalidArgument(
        "burst window must end within the stream");
  }
  if (burst_factor < 1.0) {
    return util::Status::InvalidArgument("burst_factor must be >= 1");
  }
  LATEST_RETURN_IF_ERROR(query_mix_before.Validate());
  LATEST_RETURN_IF_ERROR(query_mix_after.Validate());
  if (query_flip_at < 0.0) {
    return util::Status::InvalidArgument("query_flip_at must be >= 0");
  }
  if (min_query_keywords == 0 || min_query_keywords > max_query_keywords) {
    return util::Status::InvalidArgument(
        "query keyword bounds must satisfy 1 <= min <= max");
  }
  return util::Status::Ok();
}

std::vector<DriftInjection> InjectionsOf(const ScenarioSpec& spec) {
  std::vector<DriftInjection> out;
  const auto add = [&](const char* kind, double begin, double end) {
    DriftInjection injection;
    injection.kind = kind;
    injection.begin_fraction = begin;
    injection.end_fraction = end;
    injection.onset_ms = TimestampAt(spec, begin);
    injection.settled_ms = TimestampAt(spec, end);
    injection.onset_object =
        static_cast<uint64_t>(begin * static_cast<double>(spec.objects));
    out.push_back(std::move(injection));
  };
  if (!(spec.cluster_before == spec.cluster_after) &&
      spec.spatial_shift_begin < 1.0) {
    add("spatial", spec.spatial_shift_begin, spec.spatial_shift_end);
  }
  if (spec.vocab_base_before != spec.vocab_base_after &&
      spec.vocab_shift_begin < 1.0) {
    add("vocab", spec.vocab_shift_begin, spec.vocab_shift_end);
  }
  if (spec.query_flip_at < 1.0 &&
      MixesDiffer(spec.query_mix_before, spec.query_mix_after)) {
    add("query_mix", spec.query_flip_at, spec.query_flip_at);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const DriftInjection& a, const DriftInjection& b) {
                     return a.onset_ms < b.onset_ms;
                   });
  return out;
}

ScenarioStream::ScenarioStream(const ScenarioSpec& spec)
    : spec_(spec),
      object_rng_(DeriveSeed(spec.seed, 13)),
      query_rng_(DeriveSeed(spec.seed, 99)),
      next_query_due_ms_(spec.query_warmup_ms) {}

bool ScenarioStream::HasNext() const {
  return query_pending_ || objects_produced_ < spec_.objects;
}

int64_t ScenarioStream::TimestampOfObject(uint64_t index) const {
  const double f =
      static_cast<double>(index) / static_cast<double>(spec_.objects);
  return TimestampAt(spec_, f);
}

geo::Rect ScenarioStream::ClusterAt(double fraction) const {
  const double ramp =
      Ramp(fraction, spec_.spatial_shift_begin, spec_.spatial_shift_end);
  if (ramp <= 0.0) return spec_.cluster_before;
  if (ramp >= 1.0) return spec_.cluster_after;
  const auto lerp = [ramp](double a, double b) { return a + ramp * (b - a); };
  return geo::Rect{lerp(spec_.cluster_before.min_x, spec_.cluster_after.min_x),
                   lerp(spec_.cluster_before.min_y, spec_.cluster_after.min_y),
                   lerp(spec_.cluster_before.max_x, spec_.cluster_after.max_x),
                   lerp(spec_.cluster_before.max_y, spec_.cluster_after.max_y)};
}

stream::KeywordId ScenarioStream::KeywordBase(double fraction,
                                              util::Rng* rng) {
  const double ramp =
      Ramp(fraction, spec_.vocab_shift_begin, spec_.vocab_shift_end);
  // Only consume a draw mid-ramp so stationary-vocabulary scenarios do
  // not perturb the generator sequence.
  if (ramp <= 0.0) return spec_.vocab_base_before;
  if (ramp >= 1.0) return spec_.vocab_base_after;
  return rng->NextBool(ramp) ? spec_.vocab_base_after
                             : spec_.vocab_base_before;
}

stream::GeoTextObject ScenarioStream::MakeObject(uint64_t index) {
  const double f =
      static_cast<double>(index) / static_cast<double>(spec_.objects);
  stream::GeoTextObject obj;
  obj.oid = index;
  if (object_rng_.NextBool(spec_.cluster_fraction)) {
    const geo::Rect cluster = ClusterAt(f);
    obj.loc = {object_rng_.NextDouble(cluster.min_x, cluster.max_x),
               object_rng_.NextDouble(cluster.min_y, cluster.max_y)};
  } else {
    obj.loc = {object_rng_.NextDouble(spec_.bounds.min_x, spec_.bounds.max_x),
               object_rng_.NextDouble(spec_.bounds.min_y, spec_.bounds.max_y)};
  }
  const int num_kw = 1 + static_cast<int>(object_rng_.NextBounded(3));
  for (int k = 0; k < num_kw; ++k) {
    // u^2 skew: low ids inside the active band dominate, giving the
    // keyword distribution a head the selectivity estimators can learn.
    const double u = object_rng_.NextDouble();
    obj.keywords.push_back(
        KeywordBase(f, &object_rng_) +
        static_cast<stream::KeywordId>(u * u *
                                       static_cast<double>(spec_.vocab_band)));
  }
  stream::CanonicalizeKeywords(&obj.keywords);
  obj.timestamp = TimestampOfObject(index);
  return obj;
}

stream::Query ScenarioStream::MakeQuery(double fraction, int64_t timestamp) {
  stream::Query q;
  q.timestamp = timestamp;
  const ScenarioQueryMix& mix = fraction < spec_.query_flip_at
                                    ? spec_.query_mix_before
                                    : spec_.query_mix_after;
  const double u = query_rng_.NextDouble();
  const bool keyword_only = u < mix.keyword;
  const bool spatial_only = !keyword_only && u < mix.keyword + mix.spatial;
  if (!keyword_only) {
    // Ranges scale with the bounds: centers keep a 10% margin, extents
    // span 5-30% of each side (the stock 100x100 smoke shape).
    const double margin_x = spec_.bounds.Width() * 0.1;
    const double margin_y = spec_.bounds.Height() * 0.1;
    const geo::Point center{
        query_rng_.NextDouble(spec_.bounds.min_x + margin_x,
                              spec_.bounds.max_x - margin_x),
        query_rng_.NextDouble(spec_.bounds.min_y + margin_y,
                              spec_.bounds.max_y - margin_y)};
    q.range = geo::Rect::FromCenter(
        center, query_rng_.NextDouble(0.05, 0.30) * spec_.bounds.Width(),
        query_rng_.NextDouble(0.05, 0.30) * spec_.bounds.Height());
  }
  if (!spatial_only) {
    const uint32_t span = spec_.max_query_keywords - spec_.min_query_keywords;
    const uint32_t count =
        spec_.min_query_keywords +
        (span == 0 ? 0
                   : static_cast<uint32_t>(query_rng_.NextBounded(span + 1)));
    for (uint32_t k = 0; k < count; ++k) {
      q.keywords.push_back(
          KeywordBase(fraction, &query_rng_) +
          static_cast<stream::KeywordId>(
              query_rng_.NextBounded(spec_.vocab_band)));
    }
    stream::CanonicalizeKeywords(&q.keywords);
  }
  return q;
}

ScenarioEvent ScenarioStream::Next() {
  ScenarioEvent event;
  if (query_pending_) {
    query_pending_ = false;
    event.is_query = true;
    event.query = MakeQuery(pending_fraction_, pending_timestamp_);
    return event;
  }
  const uint64_t index = objects_produced_;
  event.object = MakeObject(index);
  ++objects_produced_;
  const int64_t ts = event.object.timestamp;
  bool due = false;
  if (spec_.query_pace_ms > 0) {
    // Event-time pacing: at most one query per object, catching up one
    // pace boundary at a time — the query rate stays steady through
    // ingest bursts instead of spiking with the object rate.
    if (ts >= next_query_due_ms_) {
      due = true;
      next_query_due_ms_ += spec_.query_pace_ms;
    }
  } else {
    due = ts >= spec_.query_warmup_ms &&
          index % spec_.query_every_objects == 0;
  }
  if (due) {
    query_pending_ = true;
    pending_fraction_ =
        static_cast<double>(index) / static_cast<double>(spec_.objects);
    pending_timestamp_ = ts;
  }
  return event;
}

std::vector<std::string> ScenarioNames() {
  return {"baseline",    "flip",   "flash_crowd", "centroid_drift",
          "vocab_churn", "diurnal", "burst",      "query_flip",
          "deep_sampling"};
}

util::Result<ScenarioCatalogEntry> MakeScenario(std::string_view name,
                                                uint64_t objects,
                                                int64_t duration_ms,
                                                uint64_t seed) {
  ScenarioCatalogEntry entry;
  ScenarioSpec& spec = entry.spec;
  ScenarioGate& gate = entry.gate;
  spec.name = std::string(name);
  spec.objects = objects;
  spec.duration_ms = duration_ms;
  spec.seed = seed;

  // Gate floors shared by every scenario; per-scenario blocks tighten or
  // relax them. The numbers are pinned against the deterministic
  // alpha = 0 runs of the replay harness (see tests/scenario_test.cc).
  gate.min_tau_hit_rate = 0.50;
  gate.min_mean_accuracy = 0.70;

  const geo::Rect kClusterAway{60, 60, 80, 80};

  if (name == "baseline") {
    spec.description =
        "stationary control: no injected drift; gates pin steady-state "
        "accuracy and tau hit rate";
    gate.min_tau_hit_rate = 0.60;
    gate.min_mean_accuracy = 0.72;
    gate.max_cumulative_regret = 0.5;
  } else if (name == "flip") {
    spec.description =
        "abrupt combined drift at mid-stream: the dense cluster jumps to "
        "the opposite corner and a disjoint keyword vocabulary takes over "
        "(the --flip-workload-at shape)";
    spec.cluster_after = kClusterAway;
    spec.spatial_shift_begin = spec.spatial_shift_end = 0.5;
    spec.vocab_base_after = 50;
    spec.vocab_shift_begin = spec.vocab_shift_end = 0.5;
    gate.expects_detection = true;
    gate.max_detection_delay_queries = 120;
    gate.max_recover_slices = 20;
    gate.max_cumulative_regret = 0.5;
  } else if (name == "flash_crowd") {
    spec.description =
        "sudden spatial hotspot migration: the dense cluster jumps "
        "mid-stream while the vocabulary stays put";
    spec.cluster_after = kClusterAway;
    spec.spatial_shift_begin = spec.spatial_shift_end = 0.5;
    gate.expects_detection = true;
    gate.max_detection_delay_queries = 120;
    gate.max_recover_slices = 20;
    gate.max_cumulative_regret = 0.5;
  } else if (name == "centroid_drift") {
    spec.description =
        "gradual spatial drift: the dense cluster glides to the opposite "
        "corner over the middle 40% of the stream";
    spec.cluster_after = kClusterAway;
    spec.spatial_shift_begin = 0.35;
    spec.spatial_shift_end = 0.75;
    gate.expects_detection = true;
    gate.max_detection_delay_queries = 500;
    gate.max_recover_slices = 20;
    gate.max_cumulative_regret = 0.5;
  } else if (name == "vocab_churn") {
    spec.description =
        "keyword-vocabulary churn: a new term band injects while the old "
        "band decays over the middle tenth of the stream";
    spec.vocab_base_after = 50;
    spec.vocab_shift_begin = 0.45;
    spec.vocab_shift_end = 0.55;
    gate.expects_detection = true;
    gate.max_detection_delay_queries = 200;
    gate.max_recover_slices = 20;
    gate.max_cumulative_regret = 0.5;
  } else if (name == "diurnal") {
    spec.description =
        "diurnal load waves: arrival rate swings by +/-90% over two "
        "periods with no distribution change; gates pin stability";
    spec.load_wave_amplitude = 0.9;
    spec.load_wave_periods = 2;
    gate.max_cumulative_regret = 2.0;
  } else if (name == "burst") {
    spec.description =
        "burst ingest with paced queries: a fifth of the stream arrives "
        "at 8x rate while queries stay paced in event time";
    spec.burst_begin = 0.45;
    spec.burst_length = 0.2;
    spec.burst_factor = 8.0;
    // Pace queries at the stationary cadence (one per query_every
    // objects at the base rate) so the burst changes only ingest.
    spec.query_pace_ms = std::max<int64_t>(
        1, duration_ms * spec.query_every_objects /
               static_cast<int64_t>(std::max<uint64_t>(1, objects)));
    gate.max_cumulative_regret = 3.0;
  } else if (name == "query_flip") {
    spec.description =
        "query-distribution flip: the mix flips from keyword-heavy "
        "(70/15/15) to spatial-heavy (5/80/15) at mid-stream";
    spec.query_mix_after = {0.05, 0.80};
    spec.query_flip_at = 0.5;
    gate.max_cumulative_regret = 4.0;
  } else if (name == "deep_sampling") {
    spec.description =
        "DeepSampling-style validation: scoreboard-predicted accuracy and "
        "response time are scored against realized measurements across a "
        "query-mix flip";
    spec.query_mix_after = {0.05, 0.80};
    spec.query_flip_at = 0.5;
    spec.validate_predictions = true;
    gate.max_cumulative_regret = 4.0;
    gate.max_accuracy_prediction_mae = 0.25;
  } else {
    return util::Status::InvalidArgument("unknown scenario: " +
                                         std::string(name));
  }

  const util::Status status = spec.Validate();
  if (!status.ok()) return status;
  return entry;
}

}  // namespace latest::workload
