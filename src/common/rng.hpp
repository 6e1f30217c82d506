// Deterministic pseudo-random number generation for workload models.
//
// xoshiro256** seeded via SplitMix64: fast, high quality, and — unlike
// std::mt19937 across standard libraries — bit-for-bit reproducible, which
// the experiment harness relies on to regenerate the paper's tables.
#pragma once

#include <cstdint>

namespace nfv {

/// SplitMix64 step; used to expand a single seed into xoshiro state.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna). Period 2^256-1.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift reduction.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace nfv
