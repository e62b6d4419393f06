// Moving-window and exponentially-weighted statistics.
//
// LATEST's accuracy monitor averages estimation accuracy over the most
// recent queries (Section V-D); the per-estimator scoreboard keeps EWMA
// accuracy/latency per query type.

#ifndef LATEST_UTIL_MOVING_STATS_H_
#define LATEST_UTIL_MOVING_STATS_H_

#include <cstddef>
#include <vector>

#include "util/serialization.h"

namespace latest::util {

/// Mean over a fixed-capacity sliding window of the most recent samples.
class MovingAverage {
 public:
  /// capacity: number of most-recent samples averaged (> 0).
  explicit MovingAverage(size_t capacity);

  /// Adds a sample, evicting the oldest once at capacity.
  void Add(double v);

  /// Mean of the currently held samples; 0 when empty.
  double Mean() const;

  size_t size() const { return size_; }
  size_t capacity() const { return buffer_.size(); }
  bool full() const { return size_ == buffer_.size(); }

  /// Drops all samples.
  void Reset();

  /// Persists window contents and cursor position.
  void Save(BinaryWriter* writer) const {
    writer->WriteU64(buffer_.size());
    writer->WriteU64(head_);
    writer->WriteU64(size_);
    writer->WriteDouble(sum_);
    for (double v : buffer_) writer->WriteDouble(v);
  }

  /// Restores a state persisted by Save; the capacity must match the one
  /// this instance was constructed with. False on mismatch or truncation.
  bool Load(BinaryReader* reader) {
    uint64_t capacity, head, size;
    double sum;
    if (!reader->ReadU64(&capacity) || !reader->ReadU64(&head) ||
        !reader->ReadU64(&size) || !reader->ReadDouble(&sum)) {
      return false;
    }
    if (capacity != buffer_.size() || head > capacity || size > capacity) {
      return false;
    }
    std::vector<double> values(capacity);
    for (auto& v : values) {
      if (!reader->ReadDouble(&v)) return false;
    }
    buffer_ = std::move(values);
    head_ = head;
    size_ = size;
    sum_ = sum;
    return true;
  }

 private:
  std::vector<double> buffer_;
  size_t head_ = 0;  // Next write position.
  size_t size_ = 0;
  double sum_ = 0.0;
};

/// Exponentially weighted moving average: ewma <- (1-a)*ewma + a*v.
class Ewma {
 public:
  /// alpha in (0, 1]: weight of the newest sample.
  explicit Ewma(double alpha);

  void Add(double v);

  /// Current estimate; `fallback` before any sample.
  double Value(double fallback = 0.0) const;

  /// Restores a persisted state (value meaningful only when seeded).
  void Restore(double value, bool seeded) {
    value_ = value;
    seeded_ = seeded;
  }

  bool empty() const { return !seeded_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace latest::util

#endif  // LATEST_UTIL_MOVING_STATS_H_
