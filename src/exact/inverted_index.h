// Windowed inverted keyword index, the textual backend of the exact
// evaluator.
//
// Per keyword, a timestamp-ordered contiguous postings vector of row
// references into the shared WindowStore. Keyword and hybrid RC-DVQ
// queries are answered exactly by merging the postings of the query
// keywords and deduplicating objects (an object carrying several query
// keywords counts once). Deduplication uses an epoch-stamped seen-bitmap
// keyed by dense row ids — one array store per candidate instead of a
// per-query hash set — which is exact because every window object occupies
// exactly one store row.

#ifndef LATEST_EXACT_INVERTED_INDEX_H_
#define LATEST_EXACT_INVERTED_INDEX_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "exact/row_scan.h"
#include "stream/query.h"
#include "stream/window_store.h"

namespace latest::exact {

/// Windowed exact inverted keyword index over a shared columnar store.
class InvertedIndex {
 public:
  using Row = stream::WindowStore::Row;

  /// store: the columnar window store rows refer into (borrowed, must
  /// outlive the index).
  explicit InvertedIndex(const stream::WindowStore* store) : store_(store) {}

  /// Indexes a store row under each keyword of its span.
  void Insert(Row row);

  /// Same, with the keyword set supplied by the caller (the evaluator
  /// already holds it at append time), skipping the store lookup.
  void Insert(Row row, const stream::KeywordId* kw, size_t kw_len);

  /// Exact number of window objects matching a query that has a keyword
  /// predicate. Must not be called for pure spatial queries.
  uint64_t CountMatches(const stream::Query& q, stream::Timestamp cutoff);

  /// Removes all postings with timestamp < cutoff.
  void EvictBefore(stream::Timestamp cutoff);

  /// Total live postings (not distinct objects).
  uint64_t num_postings() const { return num_postings_; }

  void Clear();

 private:
  /// One keyword's postings: rows in arrival order; [head, size) live.
  struct PostingList {
    std::vector<Row> rows;
    uint32_t head = 0;
    /// Cached timestamp of rows[head], or kUnknownTs when not yet read.
    /// Never stale-high (set only from reads; heads only advance), so
    /// `head_ts >= cutoff` proves the whole list live with no store read.
    stream::Timestamp head_ts = kUnknownTs;
  };

  static constexpr stream::Timestamp kUnknownTs =
      std::numeric_limits<stream::Timestamp>::min();

  void EvictList(PostingList* list, const stream::WindowStore::Reader& reader,
                 stream::Timestamp cutoff);

  /// Ensures the seen-bitmap covers the resident row range and opens a
  /// fresh dedup epoch; returns the index mask.
  uint32_t PrepareSeenEpoch();

  const stream::WindowStore* store_;
  std::vector<PostingList> postings_;
  uint64_t num_postings_ = 0;

  /// Epoch-stamped dedup bitmap: seen_stamps_[row & mask] == seen_epoch_
  /// means the row was already counted this query. Sized to the next
  /// power of two >= resident rows, so `row & mask` is injective over the
  /// contiguous live range and never aliases two live rows.
  std::vector<uint32_t> seen_stamps_;
  uint32_t seen_epoch_ = 0;
};

}  // namespace latest::exact

#endif  // LATEST_EXACT_INVERTED_INDEX_H_
