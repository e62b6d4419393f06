#include "stream/sliding_window.h"

#include <algorithm>
#include <cassert>

namespace latest::stream {

util::Status WindowConfig::Validate() const {
  if (window_length_ms <= 0) {
    return util::Status::InvalidArgument("window_length_ms must be > 0");
  }
  if (num_slices == 0) {
    return util::Status::InvalidArgument("num_slices must be > 0");
  }
  if (window_length_ms % static_cast<Timestamp>(num_slices) != 0) {
    return util::Status::InvalidArgument(
        "window_length_ms must be a multiple of num_slices");
  }
  return util::Status::Ok();
}

SliceClock::SliceClock(const WindowConfig& config) : config_(config) {
  assert(config.Validate().ok());
}

uint32_t SliceClock::Advance(Timestamp t) {
  // Late (out-of-order) timestamps clamp: t < now_ leaves the clock
  // where it is, so a straggler neither rotates slices nor rewinds
  // `now()` — it is accounted into the current slice.
  now_ = std::max(now_, t);
  const int64_t slice = SliceIndexOf(now_);
  if (slice <= current_slice_) return 0;
  const auto rotations = static_cast<uint32_t>(slice - current_slice_);
  current_slice_ = slice;
  return rotations;
}

int64_t SliceClock::SliceIndexOf(Timestamp t) const {
  return t / config_.SliceDuration();
}

}  // namespace latest::stream
