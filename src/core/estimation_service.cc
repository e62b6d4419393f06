#include "core/estimation_service.h"

#include "obs/span.h"

namespace latest::core {

util::Result<std::unique_ptr<EstimationService>> EstimationService::Create(
    const LatestConfig& config) {
  auto module = LatestModule::Create(config);
  if (!module.ok()) return module.status();
  return std::unique_ptr<EstimationService>(
      new EstimationService(std::move(module).value()));
}

EstimationService::EstimationService(std::unique_ptr<LatestModule> module)
    : module_(std::move(module)) {
  obs::MetricsRegistry& registry = module_->telemetry().registry();
  posts_counter_ = registry.GetCounter(
      "latest_service_posts_total", "Raw posts ingested through the service");
  requests_counter_ = registry.GetCounter(
      "latest_service_requests_total",
      "EstimateCount requests received by the service");
  rejected_counter_ = registry.GetCounter(
      "latest_service_requests_rejected_total",
      "EstimateCount requests rejected before reaching the module");
  dropped_keywords_counter_ = registry.GetCounter(
      "latest_service_unknown_keywords_total",
      "Query keywords dropped because they never appeared on the stream");
  vocabulary_gauge_ = registry.GetGauge(
      "latest_service_vocabulary_size", "Distinct keywords interned");
}

void EstimationService::IngestKeywords(
    stream::ObjectId oid, const geo::Point& location,
    const std::vector<std::string>& keywords, stream::Timestamp timestamp) {
  stream::GeoTextObject obj;
  obj.oid = oid;
  obj.loc = location;
  obj.timestamp = timestamp;
  obj.keywords.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    obj.keywords.push_back(dictionary_.Intern(keyword));
  }
  stream::CanonicalizeKeywords(&obj.keywords);
  posts_counter_->Increment();
  vocabulary_gauge_->Set(static_cast<double>(dictionary_.size()));
  module_->OnObject(obj);
}

util::Result<QueryOutcome> EstimationService::EstimateCount(
    const std::optional<geo::Rect>& range,
    const std::vector<std::string>& keywords, stream::Timestamp timestamp) {
  requests_counter_->Increment();
  stream::Query q;
  q.range = range;
  q.timestamp = timestamp;
  {
    LATEST_SPAN("tokenize");
    for (const std::string& keyword : keywords) {
      stream::KeywordId id;
      // Unknown keywords have never appeared in the window: they cannot
      // match anything and are dropped from the predicate.
      if (dictionary_.Lookup(keyword, &id)) {
        q.keywords.push_back(id);
      } else {
        dropped_keywords_counter_->Increment();
      }
    }
    stream::CanonicalizeKeywords(&q.keywords);
  }

  if (!q.HasRange() && !q.HasKeywords()) {
    if (!keywords.empty()) {
      // Every requested keyword is unknown: the true count is zero.
      QueryOutcome outcome;
      outcome.phase = module_->phase();
      outcome.active = module_->active_kind();
      outcome.accuracy = 1.0;
      return outcome;
    }
    rejected_counter_->Increment();
    return util::Status::InvalidArgument(
        "query needs a spatial range or at least one keyword");
  }
  if (range.has_value() && !range->IsValid()) {
    rejected_counter_->Increment();
    return util::Status::InvalidArgument("spatial range has no area");
  }
  return module_->OnQuery(q);
}

}  // namespace latest::core
