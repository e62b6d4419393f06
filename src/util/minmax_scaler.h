// Running min-max normalization to [0, 1].
//
// Section V-C of the paper scales both learning-model performance features
// (query accuracy and query latency) through min-max normalization before
// weighting them with alpha. The scaler tracks the observed range
// incrementally so it works over an unbounded stream.

#ifndef LATEST_UTIL_MINMAX_SCALER_H_
#define LATEST_UTIL_MINMAX_SCALER_H_

#include <cstdint>

namespace latest::util {

/// Tracks observed min/max of a scalar stream and scales values to [0, 1].
class MinMaxScaler {
 public:
  MinMaxScaler() = default;

  /// Widens the observed range to include v.
  void Observe(double v);

  /// Scales v into [0, 1] against the observed range, clamping outliers.
  /// Before any observation (or with a degenerate range) returns 0.5.
  double Scale(double v) const;

  uint64_t count() const { return count_; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Restores a persisted state.
  void Restore(double min, double max, uint64_t count) {
    min_ = min;
    max_ = max;
    count_ = count;
  }

 private:
  double min_ = 0.0;
  double max_ = 0.0;
  uint64_t count_ = 0;
};

}  // namespace latest::util

#endif  // LATEST_UTIL_MINMAX_SCALER_H_
