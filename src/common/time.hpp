// Time base for the NFVnice simulation substrate.
//
// All simulated time is expressed in CPU cycles of the modelled machine
// (Intel Xeon E5-2697 v3 @ 2.60 GHz in the paper's testbed). Using an
// integral cycle count as the global clock keeps the event engine exact and
// deterministic; helpers below convert to and from wall-clock units.
#pragma once

#include <cstdint>

namespace nfv {

/// Simulated time in CPU cycles. Signed 64-bit so durations can be
/// subtracted freely; 2^63 cycles at 2.6 GHz is ~112 years of simulation.
using Cycles = std::int64_t;

/// `x` cycles as Cycles, saturated to [lo, 2^62]: converting a double
/// beyond Cycles' range is undefined behaviour. NaN gives `lo`.
constexpr Cycles saturate_cycles(double x, Cycles lo) {
  if (!(x >= static_cast<double>(lo))) return lo;
  return static_cast<Cycles>(x < 0x1p62 ? x : 0x1p62);
}

/// Frequency of the modelled CPU. The paper's testbed runs at 2.60 GHz and
/// all NF costs in the paper are quoted in cycles at that frequency.
inline constexpr double kDefaultCpuHz = 2.6e9;

/// Conversions between cycles and wall-clock units at a given frequency.
/// Kept as a value type so experiments can model different clock speeds.
class CpuClock {
 public:
  constexpr explicit CpuClock(double hz = kDefaultCpuHz) : hz_(hz) {}

  [[nodiscard]] constexpr double hz() const { return hz_; }

  [[nodiscard]] constexpr Cycles from_seconds(double s) const {
    return static_cast<Cycles>(s * hz_);
  }
  [[nodiscard]] constexpr Cycles from_millis(double ms) const {
    return from_seconds(ms * 1e-3);
  }
  [[nodiscard]] constexpr Cycles from_micros(double us) const {
    return from_seconds(us * 1e-6);
  }
  [[nodiscard]] constexpr Cycles from_nanos(double ns) const {
    return from_seconds(ns * 1e-9);
  }

  [[nodiscard]] constexpr double to_seconds(Cycles c) const {
    return static_cast<double>(c) / hz_;
  }
  [[nodiscard]] constexpr double to_millis(Cycles c) const {
    return to_seconds(c) * 1e3;
  }
  [[nodiscard]] constexpr double to_micros(Cycles c) const {
    return to_seconds(c) * 1e6;
  }
  [[nodiscard]] constexpr double to_nanos(Cycles c) const {
    return to_seconds(c) * 1e9;
  }

 private:
  double hz_;
};

}  // namespace nfv
