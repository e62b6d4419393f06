// Deterministic pseudo-random number generation for the whole library.
//
// All randomness in LATEST (stream synthesis, reservoir replacement, SPN
// clustering, ...) flows through seeded Rng instances so that every
// experiment is replayable bit-for-bit. The core generator is xoshiro256**,
// seeded via SplitMix64.

#ifndef LATEST_UTIL_RNG_H_
#define LATEST_UTIL_RNG_H_

#include <cstdint>

namespace latest::util {

class BinaryReader;
class BinaryWriter;

/// SplitMix64 step; also usable as a standalone 64-bit mixer.
uint64_t SplitMix64(uint64_t* state);

/// Deterministic seeded PRNG (xoshiro256**). Copyable: a copy continues an
/// independent replayable sequence from the copied state.
class Rng {
 public:
  /// Seeds the generator; equal seeds produce equal sequences.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound). bound must be > 0. Uses rejection to avoid
  /// modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box-Muller (cached second value).
  double NextGaussian();

  /// Gaussian with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// Bernoulli draw with success probability p.
  bool NextBool(double p);

  /// Persists the generator state so a restored process continues the
  /// exact same sequence.
  void Save(BinaryWriter* writer) const;

  /// Restores a state persisted by Save; false on truncation.
  bool Load(BinaryReader* reader);

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace latest::util

#endif  // LATEST_UTIL_RNG_H_
