#include "exact/inverted_index.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace latest::exact {

namespace {

/// Evicted posting prefixes compact once the dead prefix is this long and
/// at least half the buffer (mirrors GridIndex cells).
constexpr uint32_t kMinHeadForCompaction = 32;

}  // namespace

void InvertedIndex::Insert(Row row) {
  const stream::WindowStore::Reader reader(*store_);
  const auto [kw, kw_len] = reader.keywords(row);
  Insert(row, kw, kw_len);
}

void InvertedIndex::Insert(Row row, const stream::KeywordId* kw,
                           size_t kw_len) {
  for (size_t i = 0; i < kw_len; ++i) {
    const stream::KeywordId id = kw[i];
    if (id >= postings_.size()) postings_.resize(id + 1);
    postings_[id].rows.push_back(row);
    ++num_postings_;
  }
}

void InvertedIndex::EvictList(PostingList* list,
                              const stream::WindowStore::Reader& reader,
                              stream::Timestamp cutoff) {
  const size_t end = list->rows.size();
  if (list->head >= end) return;
  // Steady-state fast path: the cached head timestamp proves the whole
  // list live without a store read (postings arrive in timestamp order).
  if (list->head_ts != kUnknownTs && list->head_ts >= cutoff) return;
  const Row first_live = store_->first_live_row();
  uint32_t head = list->head;
  list->head_ts = kUnknownTs;
  while (head < end) {
    const Row row = list->rows[head];
    // Rows of dropped store slices are discarded without dereferencing.
    if (row >= first_live) {
      const stream::Timestamp ts = reader.timestamp(row);
      if (ts >= cutoff) {
        list->head_ts = ts;
        break;
      }
    }
    ++head;
    --num_postings_;
  }
  list->head = head;
  if (head >= kMinHeadForCompaction && head >= list->rows.size() / 2) {
    list->rows.erase(list->rows.begin(), list->rows.begin() + head);
    list->head = 0;
  }
}

uint32_t InvertedIndex::PrepareSeenEpoch() {
  const uint64_t resident = store_->resident_rows();
  uint64_t size = seen_stamps_.size();
  if (size < resident) {
    size = 64;
    while (size < resident) size *= 2;
    seen_stamps_.assign(size, 0);
    seen_epoch_ = 0;
  }
  if (seen_epoch_ == std::numeric_limits<uint32_t>::max()) {
    std::fill(seen_stamps_.begin(), seen_stamps_.end(), 0);
    seen_epoch_ = 0;
  }
  ++seen_epoch_;
  return static_cast<uint32_t>(size - 1);
}

uint64_t InvertedIndex::CountMatches(const stream::Query& q,
                                     stream::Timestamp cutoff) {
  assert(q.HasKeywords());
  const stream::WindowStore::Reader reader(*store_);

  // Single-keyword fast path: one list holds each object at most once, so
  // no dedup state is touched at all.
  if (q.keywords.size() == 1) {
    const stream::KeywordId id = q.keywords[0];
    if (id >= postings_.size()) return 0;
    PostingList& list = postings_[id];
    EvictList(&list, reader, cutoff);
    uint64_t count = 0;
    if (!q.HasRange()) return list.rows.size() - list.head;
    RowScanner scan(reader);
    const size_t n = list.rows.size();
    for (size_t i = list.head; i < n; ++i) {
      if (q.range->Contains(scan.loc(list.rows[i]))) ++count;
    }
    return count;
  }

  const uint32_t mask = PrepareSeenEpoch();
  const bool check_range = q.HasRange();
  uint64_t count = 0;
  RowScanner scan(reader);
  for (const stream::KeywordId id : q.keywords) {
    if (id >= postings_.size()) continue;
    PostingList& list = postings_[id];
    EvictList(&list, reader, cutoff);
    const size_t n = list.rows.size();
    for (size_t i = list.head; i < n; ++i) {
      const Row row = list.rows[i];
      if (check_range && !q.range->Contains(scan.loc(row))) continue;
      uint32_t& stamp = seen_stamps_[row & mask];
      if (stamp != seen_epoch_) {
        stamp = seen_epoch_;
        ++count;
      }
    }
  }
  return count;
}

void InvertedIndex::EvictBefore(stream::Timestamp cutoff) {
  const stream::WindowStore::Reader reader(*store_);
  for (PostingList& list : postings_) {
    EvictList(&list, reader, cutoff);
  }
}

void InvertedIndex::Clear() {
  postings_.clear();
  num_postings_ = 0;
  seen_stamps_.clear();
  seen_epoch_ = 0;
}

}  // namespace latest::exact
