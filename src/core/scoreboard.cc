#include "core/scoreboard.h"

namespace latest::core {

Scoreboard::Scoreboard(double ewma_alpha) {
  for (auto& row : cells_) {
    for (auto& cell : row) cell = Cell(ewma_alpha);
  }
}

void Scoreboard::AttachTelemetry(obs::MetricsRegistry* registry) {
  for (uint32_t t = 0; t < kNumTypes; ++t) {
    for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
      CellGauges& handles = gauges_[t][k];
      if (registry == nullptr) {
        handles = CellGauges{};
        continue;
      }
      const obs::LabelSet labels = {
          {"type", stream::QueryTypeName(static_cast<stream::QueryType>(t))},
          {"estimator",
           estimators::EstimatorKindName(
               static_cast<estimators::EstimatorKind>(k))}};
      handles.accuracy = registry->GetGauge(
          "latest_scoreboard_accuracy",
          "EWMA accuracy per (query type, estimator) scoreboard cell",
          labels);
      handles.latency_ms = registry->GetGauge(
          "latest_scoreboard_latency_ms",
          "EWMA Estimate latency per scoreboard cell (ms)", labels);
      handles.records = registry->GetCounter(
          "latest_scoreboard_records_total",
          "Measurements recorded per scoreboard cell", labels);
    }
  }
}

void Scoreboard::PublishCell(stream::QueryType type,
                             estimators::EstimatorKind kind) {
  const CellGauges& handles =
      gauges_[static_cast<uint32_t>(type)][static_cast<uint32_t>(kind)];
  if (handles.accuracy == nullptr) return;
  const Cell& cell = CellOf(type, kind);
  handles.accuracy->Set(cell.accuracy.Value());
  handles.latency_ms->Set(cell.latency_ms.Value());
}

void Scoreboard::Record(stream::QueryType type,
                        const EstimatorMeasurement& m) {
  Cell& cell = CellOf(type, m.kind);
  cell.accuracy.Add(m.accuracy);
  cell.latency_ms.Add(m.latency_ms);
  ++cell.count;
  latency_scaler_.Observe(m.latency_ms);
  const CellGauges& handles =
      gauges_[static_cast<uint32_t>(type)][static_cast<uint32_t>(m.kind)];
  if (handles.records != nullptr) handles.records->Increment();
  PublishCell(type, m.kind);
}

std::optional<double> Scoreboard::Score(stream::QueryType type,
                                        estimators::EstimatorKind kind,
                                        double alpha) const {
  const Cell& cell = CellOf(type, kind);
  if (cell.count == 0) return std::nullopt;
  const double latency_norm = latency_scaler_.Scale(cell.latency_ms.Value());
  return BlendedScore(cell.accuracy.Value(), latency_norm, alpha);
}

estimators::EstimatorKind Scoreboard::BestFor(
    stream::QueryType type, double alpha,
    std::optional<estimators::EstimatorKind> exclude) const {
  estimators::EstimatorKind best = estimators::EstimatorKind::kRsh;
  double best_score = -1.0;
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const auto kind = static_cast<estimators::EstimatorKind>(k);
    if (exclude.has_value() && kind == *exclude) continue;
    const auto score = Score(type, kind, alpha);
    if (score.has_value() && *score > best_score) {
      best_score = *score;
      best = kind;
    }
  }
  if (best_score < 0.0 && exclude.has_value() && best == *exclude) {
    // Nothing measured and the fallback is excluded: pick any other kind.
    best = estimators::EstimatorKind::kH4096;
  }
  return best;
}

std::optional<double> Scoreboard::WeightedScore(
    estimators::EstimatorKind kind, const std::array<double, 3>& weights,
    double alpha) const {
  double score = 0.0;
  double weight_total = 0.0;
  for (uint32_t t = 0; t < kNumTypes; ++t) {
    if (weights[t] <= 0.0) continue;
    const auto s = Score(static_cast<stream::QueryType>(t), kind, alpha);
    if (!s.has_value()) continue;
    score += weights[t] * (*s);
    weight_total += weights[t];
  }
  if (weight_total <= 0.0) return std::nullopt;
  return score / weight_total;
}

estimators::EstimatorKind Scoreboard::WeightedBestFor(
    const std::array<double, 3>& weights, double alpha,
    std::optional<estimators::EstimatorKind> exclude) const {
  estimators::EstimatorKind best = estimators::EstimatorKind::kRsh;
  double best_score = -1.0;
  for (uint32_t k = 0; k < estimators::kNumEstimatorKinds; ++k) {
    const auto kind = static_cast<estimators::EstimatorKind>(k);
    if (exclude.has_value() && kind == *exclude) continue;
    const auto score = WeightedScore(kind, weights, alpha);
    if (score.has_value() && *score > best_score) {
      best_score = *score;
      best = kind;
    }
  }
  if (best_score < 0.0 && exclude.has_value() && best == *exclude) {
    best = estimators::EstimatorKind::kH4096;
  }
  return best;
}

double Scoreboard::AccuracyOf(stream::QueryType type,
                              estimators::EstimatorKind kind) const {
  return CellOf(type, kind).accuracy.Value();
}

double Scoreboard::LatencyOf(stream::QueryType type,
                             estimators::EstimatorKind kind) const {
  return CellOf(type, kind).latency_ms.Value();
}

void Scoreboard::Serialize(util::BinaryWriter* writer,
                           bool include_latency) const {
  writer->WriteU32(kNumTypes);
  writer->WriteU32(estimators::kNumEstimatorKinds);
  for (const auto& row : cells_) {
    for (const Cell& cell : row) {
      writer->WriteBool(!cell.accuracy.empty());
      writer->WriteDouble(cell.accuracy.Value());
      if (include_latency) {
        writer->WriteBool(!cell.latency_ms.empty());
        writer->WriteDouble(cell.latency_ms.Value());
      }
      writer->WriteU64(cell.count);
    }
  }
  if (include_latency) {
    writer->WriteU64(latency_scaler_.count());
    writer->WriteDouble(latency_scaler_.min());
    writer->WriteDouble(latency_scaler_.max());
  }
}

util::Status Scoreboard::Restore(util::BinaryReader* reader) {
  auto fail = [](const char* what) {
    return util::Status::InvalidArgument(
        std::string("corrupt scoreboard snapshot: ") + what);
  };
  uint32_t types;
  uint32_t kinds;
  if (!reader->ReadU32(&types) || types != kNumTypes ||
      !reader->ReadU32(&kinds) || kinds != estimators::kNumEstimatorKinds) {
    return fail("shape mismatch");
  }
  for (auto& row : cells_) {
    for (Cell& cell : row) {
      bool acc_seeded;
      double acc;
      bool lat_seeded;
      double lat;
      uint64_t count;
      if (!reader->ReadBool(&acc_seeded) || !reader->ReadDouble(&acc) ||
          !reader->ReadBool(&lat_seeded) || !reader->ReadDouble(&lat) ||
          !reader->ReadU64(&count)) {
        return fail("truncated cell");
      }
      cell.accuracy.Restore(acc, acc_seeded);
      cell.latency_ms.Restore(lat, lat_seeded);
      cell.count = count;
    }
  }
  uint64_t scaler_count;
  double scaler_min;
  double scaler_max;
  if (!reader->ReadU64(&scaler_count) || !reader->ReadDouble(&scaler_min) ||
      !reader->ReadDouble(&scaler_max)) {
    return fail("truncated scaler");
  }
  latency_scaler_.Restore(scaler_min, scaler_max, scaler_count);
  return util::Status::Ok();
}

}  // namespace latest::core
