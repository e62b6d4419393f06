// 64-bit hashing helpers shared by synopses (KMV), grids, and dictionaries.

#ifndef LATEST_UTIL_HASHING_H_
#define LATEST_UTIL_HASHING_H_

#include <cstdint>

namespace latest::util {

/// Finalizing 64-bit mixer (Murmur3 fmix64). Bijective; good avalanche.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// Combines two 64-bit hashes into one.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

/// Hashes a value with a seeded family member (distinct seeds give
/// approximately independent hash functions, as required by KMV synopses).
inline uint64_t SeededHash(uint64_t value, uint64_t seed) {
  return Mix64(value ^ Mix64(seed));
}

/// Maps a 64-bit hash to the unit interval [0, 1).
inline double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace latest::util

#endif  // LATEST_UTIL_HASHING_H_
