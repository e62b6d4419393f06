// Per-(query type x estimator) performance scoreboard.
//
// LATEST accumulates each estimator's measured accuracy and latency per
// query type: the pre-training phase fills every cell (all estimators run
// every query); the incremental phase keeps the measured estimators fresh
// through EWMAs. The scoreboard (a) labels incremental training records
// for the Hoeffding tree with the currently-best estimator and (b) serves
// as the model's fallback recommendation before the tree has learned
// anything.

#ifndef LATEST_CORE_SCOREBOARD_H_
#define LATEST_CORE_SCOREBOARD_H_

#include <array>
#include <cstdint>
#include <optional>

#include "core/metrics.h"
#include "estimators/estimator.h"
#include "obs/metrics_registry.h"
#include "stream/query.h"
#include "util/minmax_scaler.h"
#include "util/moving_stats.h"
#include "util/serialization.h"

namespace latest::core {

/// One measurement of one estimator on one query.
struct EstimatorMeasurement {
  estimators::EstimatorKind kind = estimators::EstimatorKind::kH4096;
  double estimate = 0.0;
  double accuracy = 0.0;    // In [0, 1].
  double latency_ms = 0.0;  // Wall clock of the Estimate call.
};

/// EWMA accuracy/latency per (query type, estimator kind) plus the global
/// latency min-max scaler that normalizes latencies for alpha blending.
///
/// Not thread-safe by design: the module calls `Record` in ascending kind
/// order after measuring the portfolio — EWMA updates are
/// order-sensitive, and a fixed order keeps the lifecycle deterministic.
class Scoreboard {
 public:
  /// ewma_alpha: weight of the newest measurement.
  explicit Scoreboard(double ewma_alpha = 0.05);

  /// Mirrors every cell into gauges on `registry`
  /// (`latest_scoreboard_accuracy{type,estimator}` and friends). Call once
  /// before any Record; pass null to detach. The registry must outlive the
  /// scoreboard.
  void AttachTelemetry(obs::MetricsRegistry* registry);

  /// Records one measurement under the given query type.
  void Record(stream::QueryType type, const EstimatorMeasurement& m);

  /// Alpha-blended score of one cell; nullopt when the cell has never
  /// been measured.
  std::optional<double> Score(stream::QueryType type,
                              estimators::EstimatorKind kind,
                              double alpha) const;

  /// Best-scoring estimator for the query type. `exclude` removes one
  /// kind from consideration (used to force a switch away from the
  /// failing active estimator). Falls back to RSH when nothing has been
  /// measured.
  estimators::EstimatorKind BestFor(
      stream::QueryType type, double alpha,
      std::optional<estimators::EstimatorKind> exclude = std::nullopt) const;

  /// Expected alpha-blended score of one estimator under a workload mix:
  /// weights[t] is the recent fraction of query type t (spatial, keyword,
  /// hybrid). Unmeasured cells are skipped with their weight; nullopt
  /// when no weighted cell has been measured.
  std::optional<double> WeightedScore(estimators::EstimatorKind kind,
                                      const std::array<double, 3>& weights,
                                      double alpha) const;

  /// Best estimator under a workload mix (see WeightedScore); falls back
  /// to RSH when nothing is measured.
  estimators::EstimatorKind WeightedBestFor(
      const std::array<double, 3>& weights, double alpha,
      std::optional<estimators::EstimatorKind> exclude = std::nullopt) const;

  /// EWMA accuracy of a cell (0 when never measured).
  double AccuracyOf(stream::QueryType type,
                    estimators::EstimatorKind kind) const;

  /// EWMA latency of a cell in ms (0 when never measured).
  double LatencyOf(stream::QueryType type,
                   estimators::EstimatorKind kind) const;

  /// Normalizes a latency against everything observed so far.
  double NormalizeLatency(double latency_ms) const {
    return latency_scaler_.Scale(latency_ms);
  }

  /// Persists every cell and the latency scaler. With
  /// `include_latency = false` the wall-clock side (per-cell latency
  /// averages and the latency scaler) is omitted: that layout is for
  /// deterministic state digests — two runs over the same event stream
  /// agree on it bitwise — and is NOT loadable by Restore.
  void Serialize(util::BinaryWriter* writer,
                 bool include_latency = true) const;

  /// Restores a snapshot written by Serialize(writer, true). On failure
  /// an error is returned and the scoreboard is partly restored: discard
  /// it.
  util::Status Restore(util::BinaryReader* reader);

 private:
  struct Cell {
    util::Ewma accuracy;
    util::Ewma latency_ms;
    uint64_t count = 0;
    Cell() : accuracy(0.05), latency_ms(0.05) {}
    explicit Cell(double a) : accuracy(a), latency_ms(a) {}
  };

  static constexpr uint32_t kNumTypes = 3;

  const Cell& CellOf(stream::QueryType type,
                     estimators::EstimatorKind kind) const {
    return cells_[static_cast<uint32_t>(type)][static_cast<uint32_t>(kind)];
  }
  Cell& CellOf(stream::QueryType type, estimators::EstimatorKind kind) {
    return cells_[static_cast<uint32_t>(type)][static_cast<uint32_t>(kind)];
  }

  /// Cached telemetry handles of one cell (null when detached).
  struct CellGauges {
    obs::Gauge* accuracy = nullptr;
    obs::Gauge* latency_ms = nullptr;
    obs::Counter* records = nullptr;
  };

  void PublishCell(stream::QueryType type, estimators::EstimatorKind kind);

  std::array<std::array<Cell, estimators::kNumEstimatorKinds>, kNumTypes>
      cells_;
  std::array<std::array<CellGauges, estimators::kNumEstimatorKinds>,
             kNumTypes>
      gauges_{};
  util::MinMaxScaler latency_scaler_;
};

}  // namespace latest::core

#endif  // LATEST_CORE_SCOREBOARD_H_
