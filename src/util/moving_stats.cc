#include "util/moving_stats.h"

#include <algorithm>
#include <cassert>

namespace latest::util {

MovingAverage::MovingAverage(size_t capacity) : buffer_(capacity, 0.0) {
  assert(capacity > 0);
}

void MovingAverage::Add(double v) {
  if (size_ == buffer_.size()) {
    sum_ -= buffer_[head_];
  } else {
    ++size_;
  }
  buffer_[head_] = v;
  sum_ += v;
  head_ = (head_ + 1) % buffer_.size();
}

double MovingAverage::Mean() const {
  if (size_ == 0) return 0.0;
  return sum_ / static_cast<double>(size_);
}

void MovingAverage::Reset() {
  std::fill(buffer_.begin(), buffer_.end(), 0.0);
  head_ = 0;
  size_ = 0;
  sum_ = 0.0;
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  assert(alpha > 0.0 && alpha <= 1.0);
}

void Ewma::Add(double v) {
  if (!seeded_) {
    value_ = v;
    seeded_ = true;
  } else {
    value_ = (1.0 - alpha_) * value_ + alpha_ * v;
  }
}

double Ewma::Value(double fallback) const { return seeded_ ? value_ : fallback; }

}  // namespace latest::util
