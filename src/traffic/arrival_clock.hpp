// Arrival clock of the open-loop sources (UdpSource, ChurnSource).
//
// The paper's generators emit at a constant rate (§4.1). Real generators
// are never perfectly phase locked, though; without jitter, same-rate
// flows emit at identical timestamps and ring-full drops bias
// deterministically toward one flow. So each gap is the rate's interval
// plus zero-mean uniform ±10% jitter, which keeps the long-run rate exact.
//
// Arrivals are laid out a burst at a time: the clock draws the burst's
// gaps, plus the gap to the first arrival of the burst after it, from its
// own RNG. Gap j always separates arrivals j and j+1, so the arrival
// timestamps are the same at any burst setting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace nfv::traffic {

class ArrivalClock {
 public:
  /// `rate_pps` (> 0) sets the mean gap; `burst` arrivals per batch
  /// (0 counts as 1).
  ArrivalClock(const CpuClock& clock, double rate_pps, std::uint32_t burst,
               std::uint64_t seed)
      : interval_(std::max<Cycles>(1, clock.from_seconds(1.0 / rate_pps))),
        burst_(std::max<std::uint32_t>(1, burst)),
        rng_(seed) {
    batch_.reserve(burst_);
  }

  /// The first batch starts at `first`.
  void start(Cycles first) { next_time_ = first; }

  /// Lay out the next batch's arrival times; returns its last one, when
  /// the batch is due.
  Cycles next_batch() {
    batch_.clear();
    batch_.push_back(next_time_);
    for (std::uint32_t i = 1; i < burst_; ++i) {
      batch_.push_back(batch_.back() + draw_gap());
    }
    next_time_ = batch_.back() + draw_gap();
    return batch_.back();
  }

  /// The laid-out batch's arrival times, oldest first.
  [[nodiscard]] const std::vector<Cycles>& batch() const { return batch_; }

 private:
  Cycles draw_gap() {
    const double u = 2.0 * rng_.next_double() - 1.0;  // [-1, 1)
    const double jitter = u * 0.1 * static_cast<double>(interval_);
    const Cycles gap = interval_ + static_cast<Cycles>(jitter);
    return gap < 1 ? 1 : gap;
  }

  Cycles interval_;
  std::uint32_t burst_;
  Rng rng_;
  std::vector<Cycles> batch_;
  Cycles next_time_ = 0;
};

}  // namespace nfv::traffic
