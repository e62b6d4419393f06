#include "exact/inverted_index.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "simd/kernels.h"

namespace latest::exact {

namespace {

/// Evicted posting prefixes compact once the dead prefix is this long and
/// at least half the buffer (mirrors GridIndex cells).
constexpr uint32_t kMinHeadForCompaction = 32;

/// A ranged multi-keyword query takes the dense path (full-store SIMD
/// rect mask + AND/popcount) once its candidates exceed 1/8 of the
/// resident rows; sparser candidate sets iterate their bits instead.
constexpr uint64_t kDenseCandidateFraction = 8;

/// Zeroes the first `nbits` bits of a mask (rows below a query's stricter
/// window cutoff).
void ClearMaskPrefix(uint64_t* mask, size_t nbits) {
  const size_t full = nbits >> 6;
  for (size_t w = 0; w < full; ++w) mask[w] = 0;
  if (nbits & 63) mask[full] &= ~uint64_t{0} << (nbits & 63);
}

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

const uint64_t* InvertedIndex::HotMask(stream::KeywordId id) const {
  const auto it = std::lower_bound(
      hot_ids_.begin(), hot_ids_.end(), id,
      [](const std::pair<stream::KeywordId, uint32_t>& entry,
         stream::KeywordId v) { return entry.first < v; });
  if (it == hot_ids_.end() || it->first != id) return nullptr;
  return hot_masks_[it->second].data();
}

void InvertedIndex::EvalBatchQuery(const stream::Query& q,
                                   stream::Timestamp cutoff,
                                   stream::Timestamp min_cutoff, Row base0,
                                   Row end_row,
                                   const stream::WindowStore::Reader& reader,
                                   BatchScratch* scratch,
                                   uint64_t* out) const {
  *out = 0;
  // Store rows ascend in timestamp, so `row >= cut_row <=> ts >= cutoff`:
  // one global binary search replaces per-row timestamp checks, and
  // per-list starts become integer lower bounds over the row values.
  Row cut_row = base0;
  if (cutoff > min_cutoff) {
    Row lo = base0;
    Row hi = end_row;
    while (lo < hi) {
      const Row mid = lo + (hi - lo) / 2;
      if (reader.timestamp(mid) < cutoff) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    cut_row = lo;
  }

  // Single-keyword fast path, as in CountMatches: one list holds each
  // object at most once, so no dedup bitmap is needed.
  if (q.keywords.size() == 1) {
    const stream::KeywordId id = q.keywords[0];
    if (id >= postings_.size()) return;
    const PostingList& list = postings_[id];
    const Row* begin = list.rows.data() + list.head;
    const Row* end = list.rows.data() + list.rows.size();
    if (cut_row > base0) begin = std::lower_bound(begin, end, cut_row);
    const size_t n = static_cast<size_t>(end - begin);
    if (!q.HasRange()) {
      *out = n;
      return;
    }
    scratch->rows.Gather(reader, begin, n, /*want_kws=*/false);
    *out = simd::RectContainCount(scratch->rows.locs.data(), n, *q.range);
    return;
  }

  const size_t resident_bits = end_row - base0;
  if (resident_bits == 0) return;
  const size_t words = simd::MaskWords(resident_bits);
  // Candidate bitmap = union of the keywords' posting rows; the bitmap
  // deduplicates objects carrying several query keywords for free.
  scratch->cand.assign(words, 0);
  for (const stream::KeywordId id : q.keywords) {
    if (id >= postings_.size()) continue;
    if (const uint64_t* hot = HotMask(id)) {
      simd::MaskOr(scratch->cand.data(), hot, words);
      continue;
    }
    const PostingList& list = postings_[id];
    const size_t n = list.rows.size();
    for (size_t i = list.head; i < n; ++i) {
      const Row bit = list.rows[i] - base0;
      scratch->cand[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  }
  if (cut_row > base0) ClearMaskPrefix(scratch->cand.data(), cut_row - base0);

  if (!q.HasRange()) {
    *out = simd::MaskPopcount(scratch->cand.data(), words);
    return;
  }
  const uint64_t candidates = simd::MaskPopcount(scratch->cand.data(), words);
  if (candidates == 0) return;
  if (candidates * kDenseCandidateFraction >= resident_bits) {
    // Dense: one SIMD rect sweep over every resident slice, merged into a
    // store-wide location mask, then AND + popcount against the
    // candidates.
    scratch->rect.assign(words, 0);
    Row row = base0;
    while (row < end_row) {
      const stream::WindowStore::ColumnSlab slab = reader.slab(row);
      const size_t len = slab.end - row;
      scratch->slab.resize(simd::MaskWords(len));
      simd::RectContainMask(slab.locs + (row - slab.base), len, *q.range,
                            scratch->slab.data());
      simd::MaskOrShifted(scratch->rect.data(), row - base0,
                          scratch->slab.data(), len);
      row = slab.end;
    }
    *out = simd::MaskAndPopcount(scratch->cand.data(), scratch->rect.data(),
                                 words);
    return;
  }
  // Sparse: resolve only the candidate rows' locations.
  RowScanner scan(reader);
  uint64_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = scratch->cand[w];
    while (bits != 0) {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const Row row = base0 + static_cast<Row>(w * 64 + b);
      if (q.range->Contains(scan.loc(row))) ++count;
    }
  }
  *out = count;
}

void InvertedIndex::CountMatchesBatch(const stream::Query* const* queries,
                                      const stream::Timestamp* cutoffs,
                                      size_t k, uint64_t* counts) {
  if (k == 0) return;
  stream::Timestamp min_cutoff = cutoffs[0];
  for (size_t i = 1; i < k; ++i) min_cutoff = std::min(min_cutoff, cutoffs[i]);

  const Row base0 = store_->first_live_row();
  const Row end_row = store_->end_row();
  const stream::WindowStore::Reader reader(*store_);
  // Evict every batch keyword once at the batch-minimum cutoff (queries
  // with stricter cutoffs mask the stale prefix later) and build the
  // hot-keyword bitmap index — keywords shared by two or more
  // multi-keyword queries get their posting rows materialized as a
  // bitmap OR-ed by each user instead of re-walked.
  batch_kws_.clear();
  for (size_t i = 0; i < k; ++i) {
    assert(queries[i]->HasKeywords());
    const bool multi = queries[i]->keywords.size() >= 2;
    for (const stream::KeywordId id : queries[i]->keywords) {
      batch_kws_.emplace_back(id, multi);
    }
  }
  std::sort(batch_kws_.begin(), batch_kws_.end());
  hot_ids_.clear();
  const size_t words = simd::MaskWords(end_row - base0);
  size_t next_mask = 0;
  for (size_t i = 0; i < batch_kws_.size();) {
    const stream::KeywordId id = batch_kws_[i].first;
    size_t multi_uses = 0;
    for (; i < batch_kws_.size() && batch_kws_[i].first == id; ++i) {
      if (batch_kws_[i].second) ++multi_uses;
    }
    if (id >= postings_.size()) continue;
    PostingList& list = postings_[id];
    EvictList(&list, reader, min_cutoff);
    if (multi_uses >= 2 && list.head < list.rows.size() && words > 0) {
      if (next_mask == hot_masks_.size()) hot_masks_.emplace_back();
      std::vector<uint64_t>& mask = hot_masks_[next_mask];
      mask.assign(words, 0);
      const size_t n = list.rows.size();
      for (size_t j = list.head; j < n; ++j) {
        const Row bit = list.rows[j] - base0;
        mask[bit >> 6] |= uint64_t{1} << (bit & 63);
      }
      hot_ids_.emplace_back(id, static_cast<uint32_t>(next_mask));
      ++next_mask;
    }
  }

  for (size_t i = 0; i < k; ++i) {
    EvalBatchQuery(*queries[i], cutoffs[i], min_cutoff, base0, end_row,
                   reader, &serial_scratch_, &counts[i]);
  }
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
