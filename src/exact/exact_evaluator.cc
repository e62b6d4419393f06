#include "exact/exact_evaluator.h"

#include <algorithm>

namespace latest::exact {

ExactEvaluator::ExactEvaluator(const geo::Rect& bounds,
                               stream::Timestamp window_length_ms,
                               uint32_t grid_cols, uint32_t grid_rows)
    : window_length_ms_(window_length_ms),
      store_(std::max<stream::Timestamp>(
          1, window_length_ms / kStoreSlicesPerWindow)),
      grid_(&store_, bounds, grid_cols, grid_rows),
      inverted_(&store_) {}

void ExactEvaluator::Insert(const stream::GeoTextObject& obj) {
  // One store row per object; both indexes reference it. The location and
  // keyword set are passed through directly — no store read-back.
  const stream::WindowStore::Row row = store_.Append(obj);
  grid_.Insert(row, obj.loc);
  if (!obj.keywords.empty()) {
    inverted_.Insert(row, obj.keywords.data(), obj.keywords.size());
  }
}

uint64_t ExactEvaluator::TrueSelectivity(const stream::Query& q) {
  const stream::Timestamp cutoff = q.timestamp - window_length_ms_;
  // Keyword postings are usually far more selective than spatial cells in
  // these workloads, so any query with a keyword predicate goes to the
  // inverted index; pure spatial queries go to the grid.
  if (q.HasKeywords()) return inverted_.CountMatches(q, cutoff);
  return grid_.CountMatches(q, cutoff);
}

void ExactEvaluator::TrueSelectivityBatch(const stream::Query* queries,
                                          size_t k, uint64_t* counts) {
  // Same routing as TrueSelectivity. Keyword and hybrid queries are
  // answered per query, in arrival order, on the inverted index: its
  // postings short-circuit them, and no batch form of that path beat it.
  // Pure spatial queries are collected into one grid batch pass;
  // batch_idx_ remembers each one's position in the caller's arrays.
  batch_qs_.clear();
  batch_cutoffs_.clear();
  batch_idx_.clear();
  for (size_t i = 0; i < k; ++i) {
    const stream::Timestamp cutoff = queries[i].timestamp - window_length_ms_;
    if (queries[i].HasKeywords()) {
      counts[i] = inverted_.CountMatches(queries[i], cutoff);
      continue;
    }
    batch_qs_.push_back(&queries[i]);
    batch_cutoffs_.push_back(cutoff);
    batch_idx_.push_back(static_cast<uint32_t>(i));
  }
  if (batch_qs_.empty()) return;
  batch_counts_.resize(batch_qs_.size());
  grid_.CountMatchesBatch(batch_qs_.data(), batch_cutoffs_.data(),
                          batch_qs_.size(), batch_counts_.data());
  for (size_t j = 0; j < batch_idx_.size(); ++j) {
    counts[batch_idx_[j]] = batch_counts_[j];
  }
}

void ExactEvaluator::EvictExpired(stream::Timestamp now) {
  const stream::Timestamp cutoff = now - window_length_ms_;
  grid_.EvictBefore(cutoff);
  inverted_.EvictBefore(cutoff);
  // Only after both indexes dropped every row below the cutoff may the
  // store retire the slices holding them.
  store_.DropBefore(cutoff);
}

void ExactEvaluator::Save(util::BinaryWriter* writer) const {
  store_.Save(writer);
}

bool ExactEvaluator::Load(util::BinaryReader* reader) {
  grid_.Clear();
  inverted_.Clear();
  if (!store_.Load(reader)) return false;
  // Rebuild the row-reference indexes from the restored columns. The
  // original indexes may have lazily evicted some resident rows already;
  // re-inserting them is harmless — they are re-evicted on the next scan
  // past the cutoff, and match counts never include them.
  const stream::WindowStore::Reader rows(store_);
  for (stream::WindowStore::Row row = store_.first_live_row();
       row < store_.end_row(); ++row) {
    grid_.Insert(row, rows.loc(row));
    const auto [keywords, len] = rows.keywords(row);
    if (len > 0) inverted_.Insert(row, keywords, len);
  }
  return true;
}

}  // namespace latest::exact
