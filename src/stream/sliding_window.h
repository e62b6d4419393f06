// Time-window machinery shared by every windowed structure in LATEST.
//
// The paper evaluates all queries against S_T, the past T time units of the
// stream. We discretize the window into `num_slices` equal time slices; a
// structure keeps per-slice state and drops the oldest slice whenever event
// time crosses a slice boundary. This gives O(1) amortized expiry without
// storing raw per-object timestamps in every estimator.

#ifndef LATEST_STREAM_SLIDING_WINDOW_H_
#define LATEST_STREAM_SLIDING_WINDOW_H_

#include <cstdint>
#include <vector>

#include "stream/object.h"
#include "util/serialization.h"
#include "util/status.h"

namespace latest::stream {

/// Configuration of the shared time window.
struct WindowConfig {
  /// Window length T in milliseconds of event time.
  Timestamp window_length_ms = 60 * 60 * 1000;

  /// Number of equal slices the window is divided into. More slices means
  /// finer expiry granularity at slightly higher per-structure overhead.
  uint32_t num_slices = 16;

  /// Validates the configuration.
  util::Status Validate() const;

  /// Duration of one slice.
  Timestamp SliceDuration() const {
    return window_length_ms / static_cast<Timestamp>(num_slices);
  }
};

/// Maps event time to absolute slice indexes and detects rotations.
///
/// Usage: the stream driver calls Advance(t) for every event; the returned
/// count says how many slice rotations occurred, which the owner fans out
/// to every windowed structure (estimators, window population counter...).
class SliceClock {
 public:
  explicit SliceClock(const WindowConfig& config);

  /// Advances event time to `t` and returns the number of slice
  /// boundaries crossed since the last call. Out-of-order (late)
  /// timestamps clamp to the current event time: the clock never moves
  /// backwards, a late event causes no rotation, and `now()` is
  /// unchanged — the late object simply lands in the current slice.
  uint32_t Advance(Timestamp t);

  /// Absolute index of the slice containing `t`.
  int64_t SliceIndexOf(Timestamp t) const;

  /// Absolute index of the current (newest) slice.
  int64_t current_slice() const { return current_slice_; }

  /// Latest event time seen.
  Timestamp now() const { return now_; }

  const WindowConfig& config() const { return config_; }

  /// Persists the clock position (the config is construction-time state).
  void Save(util::BinaryWriter* writer) const {
    writer->WriteI64(now_);
    writer->WriteI64(current_slice_);
  }

  /// Restores a position persisted by Save; false on truncation.
  bool Load(util::BinaryReader* reader) {
    return reader->ReadI64(&now_) && reader->ReadI64(&current_slice_);
  }

 private:
  WindowConfig config_;
  Timestamp now_ = 0;
  int64_t current_slice_ = 0;
};

/// A ring buffer of per-slice values of type T. `Rotate()` drops the oldest
/// slice and opens a fresh (value-initialized) one.
template <typename T>
class SliceRing {
 public:
  explicit SliceRing(uint32_t num_slices)
      : slices_(num_slices), head_(0) {}

  /// Mutable access to the newest slice.
  T& Current() { return slices_[head_]; }
  const T& Current() const { return slices_[head_]; }

  /// Slice i steps back from the newest (0 = newest).
  T& FromNewest(uint32_t i) {
    return slices_[(head_ + slices_.size() - i) % slices_.size()];
  }
  const T& FromNewest(uint32_t i) const {
    return slices_[(head_ + slices_.size() - i) % slices_.size()];
  }

  /// Drops the oldest slice; the freed slot becomes the new empty current
  /// slice.
  void Rotate() {
    head_ = (head_ + 1) % slices_.size();
    slices_[head_] = T{};
  }

  /// Applies `fn` to every slice (ordering unspecified).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& s : slices_) fn(s);
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& s : slices_) fn(s);
  }

  uint32_t num_slices() const { return static_cast<uint32_t>(slices_.size()); }

  /// Persists the ring: head cursor plus every slot in raw index order
  /// (the same order ForEach visits), each slot written by `save_slice`.
  template <typename SaveFn>
  void Save(util::BinaryWriter* writer, SaveFn&& save_slice) const {
    writer->WriteU64(slices_.size());
    writer->WriteU64(head_);
    for (const auto& s : slices_) save_slice(s, writer);
  }

  /// Restores a ring persisted by Save; `load_slice(T*, reader)` must
  /// return false on malformed input. The slice count must match the one
  /// this ring was constructed with.
  template <typename LoadFn>
  bool Load(util::BinaryReader* reader, LoadFn&& load_slice) {
    uint64_t num_slices, head;
    if (!reader->ReadU64(&num_slices) || !reader->ReadU64(&head)) return false;
    if (num_slices != slices_.size() || head >= slices_.size()) return false;
    for (auto& s : slices_) {
      if (!load_slice(&s, reader)) return false;
    }
    head_ = head;
    return true;
  }

 private:
  std::vector<T> slices_;
  size_t head_;
};

/// Per-slice object population of the window: how many stream objects fall
/// in each live slice. LATEST uses it to scale estimates from partially
/// pre-filled estimators (Section V-D) and as the window size |S_T|.
class WindowPopulation {
 public:
  explicit WindowPopulation(uint32_t num_slices) : counts_(num_slices) {}

  /// Records one arriving object (into the current slice).
  void Add() {
    ++counts_.Current();
    ++total_;
  }

  /// Drops the oldest slice.
  void Rotate() {
    total_ -= counts_.FromNewest(counts_.num_slices() - 1);
    counts_.Rotate();
  }

  /// Objects currently inside the window.
  uint64_t total() const { return total_; }

  uint32_t num_slices() const { return counts_.num_slices(); }

  /// Persists the per-slice counts and running total.
  void Save(util::BinaryWriter* writer) const {
    counts_.Save(writer, [](uint64_t count, util::BinaryWriter* w) {
      w->WriteU64(count);
    });
    writer->WriteU64(total_);
  }

  /// Restores a state persisted by Save; false on shape mismatch or
  /// truncation.
  bool Load(util::BinaryReader* reader) {
    if (!counts_.Load(reader, [](uint64_t* count, util::BinaryReader* r) {
          return r->ReadU64(count);
        })) {
      return false;
    }
    return reader->ReadU64(&total_);
  }

 private:
  SliceRing<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace latest::stream

#endif  // LATEST_STREAM_SLIDING_WINDOW_H_
