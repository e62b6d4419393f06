// EstimationService: a string-keyword facade over LatestModule.
//
// LatestModule works with interned keyword ids, which is the right
// interface inside a system. Applications, however, hold keyword and
// query strings. The service owns a keyword dictionary and exposes:
//
//   service.IngestKeywords(oid, {lon, lat}, {"fire", "#downtown"}, t);
//   auto est = service.EstimateCount(area, {"fire", "#downtown"}, t);
//
// Unknown query keywords (never seen on the stream) are dropped before
// estimation; a query reduced to no predicates is rejected.

#ifndef LATEST_CORE_ESTIMATION_SERVICE_H_
#define LATEST_CORE_ESTIMATION_SERVICE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/latest_module.h"
#include "stream/keyword_dictionary.h"

namespace latest::core {

/// High-level geo-textual estimation API with string keywords.
class EstimationService {
 public:
  /// Fails with InvalidArgument on a bad module configuration.
  static util::Result<std::unique_ptr<EstimationService>> Create(
      const LatestConfig& config);

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  /// Ingests one post: its keyword strings are interned. Timestamps must
  /// be non-decreasing.
  void IngestKeywords(stream::ObjectId oid, const geo::Point& location,
                      const std::vector<std::string>& keywords,
                      stream::Timestamp timestamp);

  /// Estimates the number of window posts inside `range` (optional)
  /// carrying at least one of `keywords` (optional, strings). Returns
  /// InvalidArgument when both predicates are absent or every keyword is
  /// unknown and no range is given.
  util::Result<QueryOutcome> EstimateCount(
      const std::optional<geo::Rect>& range,
      const std::vector<std::string>& keywords, stream::Timestamp timestamp);

  /// Number of distinct keywords interned so far.
  size_t vocabulary_size() const { return dictionary_.size(); }

  const LatestModule& module() const { return *module_; }
  LatestModule& module() { return *module_; }
  const stream::KeywordDictionary& dictionary() const { return dictionary_; }

 private:
  explicit EstimationService(std::unique_ptr<LatestModule> module);

  std::unique_ptr<LatestModule> module_;
  stream::KeywordDictionary dictionary_;

  // Service-layer telemetry (owned by the module's registry).
  obs::Counter* posts_counter_ = nullptr;
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* dropped_keywords_counter_ = nullptr;
  obs::Gauge* vocabulary_gauge_ = nullptr;
};

}  // namespace latest::core

#endif  // LATEST_CORE_ESTIMATION_SERVICE_H_
