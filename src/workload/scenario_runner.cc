#include "workload/scenario_runner.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <utility>

#include "persist/crc32.h"
#include "util/serialization.h"

namespace latest::workload {
namespace {

using core::LatestConfig;
using core::LatestModule;
using core::Phase;
using core::QueryOutcome;

/// Which monitored series count as "detecting" an injection of a kind.
/// Spatial injections move the ingest centroid; vocabulary injections
/// move per-slice keyword churn; query-mix flips have no dedicated
/// ingest series, so any active-estimator error series counts.
bool SeriesMatchesInjection(const std::string& kind,
                            const std::string& series) {
  if (kind == "spatial") return series == "ingest_centroid";
  if (kind == "vocab") return series == "ingest_vocab_churn";
  return series.rfind("error_", 0) == 0;
}

/// Only injections with a dedicated ingest drift series participate in
/// the detection gate.
bool InjectionIsGated(const DriftInjection& injection) {
  return injection.kind == "spatial" || injection.kind == "vocab";
}

void AppendDouble(std::ostringstream* out, double value) {
  // Fixed precision keeps the JSON deterministic across runs and
  // readable; every gated metric is accuracy-derived, so 6 digits are
  // plenty.
  *out << std::fixed << std::setprecision(6) << value;
}

}  // namespace

LatestConfig ServingConfig(const ScenarioSpec& spec, ServingMode mode) {
  LatestConfig config;
  config.bounds = spec.bounds;
  config.window.window_length_ms = 1000;
  config.window.num_slices = 10;
  config.pretrain_queries = 40;
  config.monitor_window = 16;
  config.min_queries_between_switches = 16;
  config.estimator.reservoir_capacity = 500;
  config.default_estimator = estimators::EstimatorKind::kH4096;
  config.maintain_shadow_estimators = mode == ServingMode::kShadow;
  config.alpha = 0.0;
  config.seed = spec.seed;
  return config;
}

uint64_t ScenarioOutcome::DetectionDelayMax() const {
  uint64_t max_delay = 0;
  for (const InjectionOutcome& injection : injections) {
    if (!injection.detected) continue;
    max_delay = std::max(max_delay, injection.detection_delay_queries);
  }
  return max_delay;
}

int64_t ScenarioOutcome::RecoverSlicesMax() const {
  int64_t max_slices = 0;
  for (const InjectionOutcome& injection : injections) {
    if (!injection.recovered) continue;
    max_slices = std::max(max_slices, injection.recover_slices);
  }
  return max_slices;
}

bool ScenarioOutcome::AllDetected() const {
  for (const InjectionOutcome& injection : injections) {
    if (InjectionIsGated(injection.injection) && !injection.detected) {
      return false;
    }
  }
  return true;
}

bool ScenarioOutcome::AllRecovered() const {
  for (const InjectionOutcome& injection : injections) {
    if (!injection.recovered) return false;
  }
  return true;
}

util::Result<ScenarioOutcome> RunScenario(const ScenarioCatalogEntry& entry) {
  const ScenarioSpec& spec = entry.spec;
  LATEST_RETURN_IF_ERROR(spec.Validate());

  const LatestConfig config = ServingConfig(spec, ServingMode::kShadow);
  auto created = LatestModule::Create(config);
  if (!created.ok()) return created.status();
  std::unique_ptr<LatestModule> module = std::move(created).value();

  ScenarioOutcome outcome;
  outcome.spec = spec;
  outcome.gate = entry.gate;
  outcome.tau = config.tau;

  // Injection bookkeeping: lifetime queries answered when each onset
  // passes (for detection delay), plus the per-injection verdict.
  const std::vector<DriftInjection> injections = InjectionsOf(spec);
  std::vector<uint64_t> queries_at_onset(injections.size(), 0);
  std::vector<bool> onset_passed(injections.size(), false);
  outcome.injections.resize(injections.size());
  for (size_t i = 0; i < injections.size(); ++i) {
    outcome.injections[i].injection = injections[i];
  }

  // Accuracy trajectory: per-window-slice sums over incremental-phase
  // queries, slice index = event time / slice length.
  const int64_t slice_ms = static_cast<int64_t>(
      config.window.window_length_ms / config.window.num_slices);
  std::vector<double> slice_sum;
  std::vector<uint64_t> slice_count;
  const auto slice_of = [slice_ms](int64_t ts) {
    return static_cast<size_t>(ts / slice_ms);
  };

  double accuracy_sum = 0.0;
  uint64_t tau_hits = 0;
  double prediction_accuracy_error = 0.0;
  double prediction_latency_error = 0.0;

  ScenarioStream stream(spec);
  while (stream.HasNext()) {
    const ScenarioEvent event = stream.Next();
    const int64_t ts =
        event.is_query ? event.query.timestamp : event.object.timestamp;
    for (size_t i = 0; i < injections.size(); ++i) {
      if (!onset_passed[i] && ts >= injections[i].onset_ms) {
        onset_passed[i] = true;
        queries_at_onset[i] = module->queries_answered();
      }
    }
    if (!event.is_query) {
      module->OnObject(event.object);
      continue;
    }

    // DeepSampling-style calibration: snapshot the scoreboard's
    // expectation for every portfolio member before the query, score it
    // against the realized shadow measurement after. AccuracyOf returns
    // 0 for never-measured cells, which filters the cold start.
    std::array<double, estimators::kNumEstimatorKinds> predicted_accuracy{};
    std::array<double, estimators::kNumEstimatorKinds> predicted_latency{};
    const bool predict = spec.validate_predictions;
    if (predict) {
      const stream::QueryType type = event.query.Type();
      for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
        const auto kind = static_cast<estimators::EstimatorKind>(k);
        predicted_accuracy[k] = module->scoreboard().AccuracyOf(type, kind);
        predicted_latency[k] = module->scoreboard().LatencyOf(type, kind);
      }
    }

    const QueryOutcome result = module->OnQuery(event.query);
    ++outcome.queries;

    if (result.phase == Phase::kIncremental) {
      ++outcome.incremental_queries;
      accuracy_sum += result.accuracy;
      if (result.accuracy >= config.tau) ++tau_hits;
      const size_t slice = slice_of(ts);
      if (slice >= slice_sum.size()) {
        slice_sum.resize(slice + 1, 0.0);
        slice_count.resize(slice + 1, 0);
      }
      slice_sum[slice] += result.accuracy;
      ++slice_count[slice];

      if (predict) {
        for (const core::EstimatorMeasurement& m : result.measurements) {
          const auto k = static_cast<uint32_t>(m.kind);
          if (predicted_accuracy[k] <= 0.0) continue;
          ++outcome.prediction_samples;
          prediction_accuracy_error +=
              std::abs(predicted_accuracy[k] - m.accuracy);
          prediction_latency_error +=
              std::abs(predicted_latency[k] - m.latency_ms);
        }
      }
    }

    // Drain after every query so detections carry their firing order;
    // ingest-series detections fired during preceding OnObject calls
    // are drained here too (pending entries persist until drained).
    for (const obs::DriftDetection& detection :
         module->observer().drift_monitor()->Drain()) {
      for (size_t i = 0; i < injections.size(); ++i) {
        InjectionOutcome& verdict = outcome.injections[i];
        if (verdict.detected || !onset_passed[i]) continue;
        if (detection.timestamp < injections[i].onset_ms) continue;
        if (!SeriesMatchesInjection(injections[i].kind, detection.series)) {
          continue;
        }
        verdict.detected = true;
        verdict.detection_delay_queries =
            detection.query_count > queries_at_onset[i]
                ? detection.query_count - queries_at_onset[i]
                : 0;
      }
    }
  }
  outcome.drift_detections = module->observer().drift_detections();
  outcome.objects = stream.objects_produced();
  if (outcome.incremental_queries > 0) {
    outcome.mean_accuracy =
        accuracy_sum / static_cast<double>(outcome.incremental_queries);
    outcome.tau_hit_rate = static_cast<double>(tau_hits) /
                           static_cast<double>(outcome.incremental_queries);
  }
  if (outcome.prediction_samples > 0) {
    outcome.accuracy_prediction_mae =
        prediction_accuracy_error /
        static_cast<double>(outcome.prediction_samples);
    outcome.latency_prediction_mae_ms =
        prediction_latency_error /
        static_cast<double>(outcome.prediction_samples);
  }
  outcome.switches = module->switch_log().size();

  outcome.accuracy_trajectory.assign(slice_sum.size(), -1.0);
  for (size_t s = 0; s < slice_sum.size(); ++s) {
    if (slice_count[s] > 0) {
      outcome.accuracy_trajectory[s] =
          slice_sum[s] / static_cast<double>(slice_count[s]);
    }
  }

  // Time-to-recover: first slice at/after the injection settling whose
  // mean active accuracy is back at/above tau.
  for (InjectionOutcome& verdict : outcome.injections) {
    const size_t settled_slice = slice_of(verdict.injection.settled_ms);
    for (size_t s = settled_slice; s < slice_sum.size(); ++s) {
      if (slice_count[s] == 0) continue;
      if (slice_sum[s] / static_cast<double>(slice_count[s]) >= config.tau) {
        verdict.recovered = true;
        verdict.recover_slices = static_cast<int64_t>(s - settled_slice);
        break;
      }
    }
  }

  const obs::SwitchAuditTrail::Summary audit =
      module->observer().audit_trail()->GetSummary();
  outcome.audit_entries = audit.total_recorded;
  outcome.audit_resolved = audit.total_resolved;
  outcome.cumulative_regret = audit.cumulative_regret;

  util::BinaryWriter state;
  module->SaveDeterministicState(&state);
  outcome.state_crc = persist::Crc32(state.buffer());

  // ---- Acceptance gates ----
  const ScenarioGate& gate = outcome.gate;
  const auto fail = [&outcome](std::string reason) {
    outcome.gates_passed = false;
    outcome.gate_failures.push_back(std::move(reason));
  };
  if (gate.expects_detection) {
    for (const InjectionOutcome& verdict : outcome.injections) {
      if (!InjectionIsGated(verdict.injection)) continue;
      if (!verdict.detected) {
        fail("missed detection: " + verdict.injection.kind +
             " injection raised no matching drift detection");
      } else if (verdict.detection_delay_queries >
                 gate.max_detection_delay_queries) {
        std::ostringstream reason;
        reason << "slow detection: " << verdict.injection.kind << " took "
               << verdict.detection_delay_queries << " queries (bound "
               << gate.max_detection_delay_queries << ")";
        fail(reason.str());
      }
    }
  }
  if (gate.max_recover_slices >= 0) {
    for (const InjectionOutcome& verdict : outcome.injections) {
      if (!verdict.recovered) {
        fail("no recovery: accuracy never returned to tau after the " +
             verdict.injection.kind + " injection");
      } else if (verdict.recover_slices > gate.max_recover_slices) {
        std::ostringstream reason;
        reason << "slow recovery: " << verdict.injection.kind << " took "
               << verdict.recover_slices << " slices (bound "
               << gate.max_recover_slices << ")";
        fail(reason.str());
      }
    }
  }
  if (outcome.tau_hit_rate < gate.min_tau_hit_rate) {
    std::ostringstream reason;
    reason << "tau_hit_rate " << std::fixed << std::setprecision(4)
           << outcome.tau_hit_rate << " < " << gate.min_tau_hit_rate;
    fail(reason.str());
  }
  if (outcome.mean_accuracy < gate.min_mean_accuracy) {
    std::ostringstream reason;
    reason << "mean_accuracy " << std::fixed << std::setprecision(4)
           << outcome.mean_accuracy << " < " << gate.min_mean_accuracy;
    fail(reason.str());
  }
  if (gate.max_cumulative_regret >= 0.0 &&
      outcome.cumulative_regret > gate.max_cumulative_regret) {
    std::ostringstream reason;
    reason << "cumulative_regret " << std::fixed << std::setprecision(4)
           << outcome.cumulative_regret << " > " << gate.max_cumulative_regret;
    fail(reason.str());
  }
  if (gate.max_accuracy_prediction_mae >= 0.0) {
    if (outcome.prediction_samples == 0) {
      fail("prediction gate armed but no prediction samples were scored");
    } else if (outcome.accuracy_prediction_mae >
               gate.max_accuracy_prediction_mae) {
      std::ostringstream reason;
      reason << "accuracy_prediction_mae " << std::fixed
             << std::setprecision(4) << outcome.accuracy_prediction_mae
             << " > " << gate.max_accuracy_prediction_mae;
      fail(reason.str());
    }
  }

  return outcome;
}

std::string ToResultJson(const ScenarioOutcome& outcome) {
  std::ostringstream out;
  out << "{\"experiment\":\"scenario_replay\",\"point\":\""
      << outcome.spec.name << "\",\"scenario\":\"" << outcome.spec.name
      << "\",\"objects\":" << outcome.objects
      << ",\"queries\":" << outcome.queries
      << ",\"incremental_queries\":" << outcome.incremental_queries
      << ",\"mean_accuracy\":";
  AppendDouble(&out, outcome.mean_accuracy);
  out << ",\"tau_hit_rate\":";
  AppendDouble(&out, outcome.tau_hit_rate);
  out << ",\"switches\":" << outcome.switches
      << ",\"drift_detections\":" << outcome.drift_detections
      << ",\"audit_entries\":" << outcome.audit_entries
      << ",\"audit_resolved\":" << outcome.audit_resolved
      << ",\"cumulative_regret\":";
  AppendDouble(&out, outcome.cumulative_regret);
  out << ",\"injections\":" << outcome.injections.size()
      << ",\"detected\":" << (outcome.AllDetected() ? 1 : 0)
      << ",\"detection_delay_queries_max\":" << outcome.DetectionDelayMax()
      << ",\"recovered\":" << (outcome.AllRecovered() ? 1 : 0)
      << ",\"recover_slices_max\":" << outcome.RecoverSlicesMax()
      << ",\"prediction_samples\":" << outcome.prediction_samples
      << ",\"accuracy_prediction_mae\":";
  AppendDouble(&out, outcome.accuracy_prediction_mae);
  out << ",\"latency_prediction_mae_ms\":";
  AppendDouble(&out, outcome.latency_prediction_mae_ms);
  out << ",\"accuracy_trajectory\":[";
  for (size_t s = 0; s < outcome.accuracy_trajectory.size(); ++s) {
    if (s != 0) out << ",";
    out << std::fixed << std::setprecision(4)
        << outcome.accuracy_trajectory[s];
  }
  out << "],\"state_crc\":\"" << std::hex << std::setw(8)
      << std::setfill('0') << outcome.state_crc << std::dec
      << "\",\"gates_passed\":" << (outcome.gates_passed ? 1 : 0)
      << ",\"gate_failures\":[";
  for (size_t i = 0; i < outcome.gate_failures.size(); ++i) {
    if (i != 0) out << ",";
    out << "\"" << outcome.gate_failures[i] << "\"";
  }
  out << "]}";
  return out.str();
}

}  // namespace latest::workload
