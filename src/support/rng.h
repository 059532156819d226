// Deterministic pseudo-random number generation (SplitMix64) used by
// workload generators and property tests. We avoid <random> engines so the
// exact streams are stable across standard library implementations.
#pragma once

#include <cstdint>

#include "src/support/hash.h"

namespace parad {

/// SplitMix64: tiny, fast, high-quality 64-bit PRNG with a one-word state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = hash::kGolden) : state_(seed) {}

  std::uint64_t nextU64() { return hash::mix64(state_ += hash::kGolden); }

  /// Uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * nextDouble(); }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n ? nextU64() % n : 0; }

 private:
  std::uint64_t state_;
};

}  // namespace parad
