// Exact RC-DVQ evaluation: the "query processor + system logs" of the
// paper.
//
// After LATEST returns an estimate, the actual query executes on real data
// and the system log records the true selectivity (Section V-D). This
// evaluator plays that role: it owns the columnar window store of actual
// objects plus a spatial grid and an inverted keyword index referencing
// it, and answers every query exactly, choosing the backend by predicate
// type.

#ifndef LATEST_EXACT_EXACT_EVALUATOR_H_
#define LATEST_EXACT_EXACT_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "exact/grid_index.h"
#include "exact/inverted_index.h"
#include "stream/object.h"
#include "stream/query.h"
#include "stream/window_store.h"
#include "util/serialization.h"

namespace latest::exact {

/// Ground-truth evaluator over the sliding window.
class ExactEvaluator {
 public:
  /// bounds: spatial domain; window_length_ms: the window size T.
  ExactEvaluator(const geo::Rect& bounds, stream::Timestamp window_length_ms,
                 uint32_t grid_cols = 64, uint32_t grid_rows = 64);

  /// Inserts an object (timestamps non-decreasing).
  void Insert(const stream::GeoTextObject& obj);

  /// Exact selectivity of q over the window ending at q.timestamp.
  uint64_t TrueSelectivity(const stream::Query& q);

  /// Batched exact evaluation: answers the pure-spatial queries of
  /// `queries[0..k)` in one GridIndex::CountMatchesBatch pass, and each
  /// keyword or hybrid query with the inverted index's per-query path in
  /// arrival order. counts[i] is bit-identical to
  /// TrueSelectivity(queries[i]) at every kernel tier.
  void TrueSelectivityBatch(const stream::Query* queries, size_t k,
                            uint64_t* counts);

  /// Evicts everything older than now - T; call periodically to bound
  /// memory between queries.
  void EvictExpired(stream::Timestamp now);

  stream::Timestamp window_length_ms() const { return window_length_ms_; }

  /// The columnar store backing both indexes (for occupancy gauges).
  const stream::WindowStore& store() const { return store_; }

  /// Persists the columnar store only: the grid and inverted indexes are
  /// derived data (row references) and are rebuilt on Load.
  void Save(util::BinaryWriter* writer) const;

  /// Restores a store persisted by Save and rebuilds both indexes by
  /// re-inserting every resident row. Exact counting is insertion-order
  /// independent, so the rebuilt evaluator answers bit-identically. False
  /// on malformed input (the evaluator is left cleared).
  bool Load(util::BinaryReader* reader);

 private:
  /// Store slices per window; matches the default WindowConfig slicing so
  /// a full rotation retires exactly one sealed slice.
  static constexpr uint32_t kStoreSlicesPerWindow = 16;

  stream::Timestamp window_length_ms_;
  // Declaration order matters: the store must outlive the indexes that
  // hold rows into it.
  stream::WindowStore store_;
  GridIndex grid_;
  InvertedIndex inverted_;

  // Spatial sub-batch scratch, reused across TrueSelectivityBatch calls.
  std::vector<const stream::Query*> batch_qs_;
  std::vector<stream::Timestamp> batch_cutoffs_;
  std::vector<uint32_t> batch_idx_;
  std::vector<uint64_t> batch_counts_;
};

}  // namespace latest::exact

#endif  // LATEST_EXACT_EXACT_EVALUATOR_H_
