// Slice-partitioned columnar storage of the live window S_T.
//
// Every stream object is appended exactly once into the store, which keeps
// per-slice structure-of-arrays columns (timestamps, locations, oids,
// keyword spans backed by a per-slice bump arena). Consumers — the exact
// grid/quadtree/inverted backends — reference objects by dense uint32 row
// ids instead of holding copies, so their scans iterate plain arrays and
// window expiry is an O(1) drop of the oldest slice's buffers: no
// per-object destruction, no deque churn.
//
// Row ids are globally monotone: row n is the n-th object ever appended.
// A slice is sealed when an append's timestamp reaches the next slice
// boundary; DropBefore() retires sealed slices whose newest timestamp is
// older than the window cutoff, recycling their buffers (capacity intact)
// through a free list. Indexes guard against rows of dropped slices with
// first_live_row(): any held row below it refers to an already-expired
// object and must be discarded without dereferencing.
//
// Threading: Append/DropBefore/Clear are single-writer; Reader-based
// lookups are safe from many threads concurrently as long as no writer
// runs.

#ifndef LATEST_STREAM_WINDOW_STORE_H_
#define LATEST_STREAM_WINDOW_STORE_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "geo/point.h"
#include "stream/keyword_arena.h"
#include "stream/object.h"
#include "util/serialization.h"

namespace latest::stream {

/// Columnar windowed object store shared by the exact backends.
class WindowStore {
 public:
  /// Dense global object row id; monotone in append order.
  using Row = uint32_t;

  /// slice_duration_ms: time covered by one slice (typically T divided by
  /// the window's slice count; must be >= 1).
  explicit WindowStore(Timestamp slice_duration_ms);

  /// Appends one object (timestamps non-decreasing) and returns its row.
  Row Append(const GeoTextObject& obj);

  /// Retires every sealed slice whose newest timestamp is < cutoff. Call
  /// only after index consumers evicted rows below the same cutoff; rows
  /// of retired slices must no longer be dereferenced.
  void DropBefore(Timestamp cutoff);

  /// First row still resident; rows below it belong to dropped slices.
  Row first_live_row() const {
    return slices_.empty() ? next_row_ : slices_.front().base;
  }

  /// One past the newest row.
  Row end_row() const { return next_row_; }

  /// Rows currently resident (including not-yet-dropped expired ones).
  uint64_t resident_rows() const { return next_row_ - first_live_row(); }

  /// Keyword payload bytes held across resident slice arenas.
  uint64_t arena_bytes() const { return arena_bytes_; }

  /// Resident slice count (including the open one).
  uint32_t slices_resident() const {
    return static_cast<uint32_t>(slices_.size());
  }

  /// Approximate bytes held by resident columns + arenas (capacity, not
  /// payload, since recycled slices keep their buffers).
  uint64_t MemoryBytes() const;

  Timestamp slice_duration_ms() const { return slice_duration_ms_; }

  /// Drops all slices and rows; row ids keep counting monotonically.
  void Clear();

  /// Persists every resident slice (columns + arenas) and the row
  /// counter. The free list is transient capacity and is not persisted.
  void Save(util::BinaryWriter* writer) const;

  /// Restores a store persisted by Save, replacing the current contents;
  /// false on malformed input (the store is left cleared). The slice
  /// duration must match the one this store was constructed with.
  bool Load(util::BinaryReader* reader);

 private:
  struct Slice;

 public:
  /// Raw pointers into one slice's columns, for hot scan loops that index
  /// rows of [base, end) directly instead of resolving each row. Valid
  /// until the next store mutation.
  struct ColumnSlab {
    Row base = 0;
    Row end = 0;  // base + slice rows; 0 for the empty default slab.
    const Timestamp* timestamps = nullptr;
    const geo::Point* locs = nullptr;
    const KeywordSpan* spans = nullptr;
    const KeywordArena* arena = nullptr;

    bool contains(Row row) const { return row >= base && row < end; }
  };

  /// Snapshot accessor resolving rows to columns. Creation is cheap;
  /// create one per scan. Lookups cache the containing slice, so the
  /// timestamp-ordered scans of the exact backends resolve almost every
  /// row without the slice binary search.
  class Reader {
   public:
    explicit Reader(const WindowStore& store) : store_(store) {}

    Timestamp timestamp(Row row) const {
      const Slice& s = SliceFor(row);
      return s.timestamps[row - s.base];
    }
    const geo::Point& loc(Row row) const {
      const Slice& s = SliceFor(row);
      return s.locs[row - s.base];
    }
    ObjectId oid(Row row) const {
      const Slice& s = SliceFor(row);
      return s.oids[row - s.base];
    }
    /// The row's keyword set: pointer into the slice arena + length.
    std::pair<const KeywordId*, uint32_t> keywords(Row row) const {
      const Slice& s = SliceFor(row);
      const KeywordSpan span = s.spans[row - s.base];
      return {s.arena.Data(span), span.len};
    }
    /// Direct column pointers for the slice containing `row`. Hot scan
    /// loops hold the slab while successive rows stay inside it, paying
    /// the slice resolve once per run instead of once per column access.
    ColumnSlab slab(Row row) const {
      const Slice& s = SliceFor(row);
      return ColumnSlab{s.base,
                        static_cast<Row>(s.base + s.rows()),
                        s.timestamps.data(),
                        s.locs.data(),
                        s.spans.data(),
                        &s.arena};
    }

   private:
    friend class WindowStore;
    const Slice& SliceFor(Row row) const;

    const WindowStore& store_;
    mutable size_t cached_slice_ = 0;
  };

 private:
  /// One window slice: SoA columns over [base, base + timestamps.size()).
  struct Slice {
    Row base = 0;
    /// Event time at which the slice seals (exclusive upper bound for
    /// appends; late/clamped events may still land here).
    Timestamp seal_ts = 0;
    Timestamp max_ts = std::numeric_limits<Timestamp>::min();
    std::vector<Timestamp> timestamps;
    std::vector<geo::Point> locs;
    std::vector<ObjectId> oids;
    std::vector<KeywordSpan> spans;
    KeywordArena arena;

    size_t rows() const { return timestamps.size(); }
    void Reset(Row new_base, Timestamp new_seal_ts);
    uint64_t CapacityBytes() const;
  };

  void OpenSlice(Timestamp first_ts);

  Timestamp slice_duration_ms_;
  std::deque<Slice> slices_;
  /// Retired slices kept for recycling so steady state allocates nothing.
  std::vector<Slice> free_slices_;
  Row next_row_ = 0;
  uint64_t arena_bytes_ = 0;
};

}  // namespace latest::stream

#endif  // LATEST_STREAM_WINDOW_STORE_H_
