// Time-windowed sample store with median/quantile queries.
//
// The NF Manager estimates an NF's per-packet processing time as the median
// over a 100 ms moving window of sampled timings (§3.5). Samples are stored
// with their timestamp; expired samples are evicted lazily on query/insert.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/time.hpp"

namespace nfv {

class MovingWindow {
 public:
  explicit MovingWindow(Cycles window) : window_(window) {}

  void record(Cycles now, std::uint64_t value) {
    evict(now);
    samples_.push_back({now, value});
  }

  /// Number of live samples at time `now`.
  [[nodiscard]] std::size_t size(Cycles now) {
    evict(now);
    return samples_.size();
  }

  /// Median of live samples; 0 if empty. O(n) selection on each call — the
  /// Monitor calls this at 1 kHz over ~100 samples, which is negligible.
  [[nodiscard]] std::uint64_t median(Cycles now) {
    return quantile(now, 0.5);
  }

  [[nodiscard]] std::uint64_t quantile(Cycles now, double q) {
    evict(now);
    if (samples_.empty()) return 0;
    scratch_.clear();
    for (const auto& s : samples_) scratch_.push_back(s.value);
    q = std::clamp(q, 0.0, 1.0);
    const std::size_t k =
        std::min(scratch_.size() - 1,
                 static_cast<std::size_t>(q * static_cast<double>(scratch_.size())));
    std::nth_element(scratch_.begin(), scratch_.begin() + static_cast<std::ptrdiff_t>(k),
                     scratch_.end());
    return scratch_[k];
  }

  [[nodiscard]] double mean(Cycles now) {
    evict(now);
    if (samples_.empty()) return 0.0;
    std::uint64_t sum = 0;
    for (const auto& s : samples_) sum += s.value;
    return static_cast<double>(sum) / static_cast<double>(samples_.size());
  }

  void clear() { samples_.clear(); }

  [[nodiscard]] Cycles window() const { return window_; }

 private:
  struct Sample {
    Cycles when;
    std::uint64_t value;
  };

  void evict(Cycles now) {
    while (!samples_.empty() && samples_.front().when < now - window_) {
      samples_.pop_front();
    }
  }

  Cycles window_;
  std::deque<Sample> samples_;
  std::vector<std::uint64_t> scratch_;
};

}  // namespace nfv
