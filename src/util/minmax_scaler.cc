#include "util/minmax_scaler.h"

#include <algorithm>

namespace latest::util {

void MinMaxScaler::Observe(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
}

double MinMaxScaler::Scale(double v) const {
  if (count_ == 0 || max_ <= min_) return 0.5;
  const double t = (v - min_) / (max_ - min_);
  return std::clamp(t, 0.0, 1.0);
}

}  // namespace latest::util
