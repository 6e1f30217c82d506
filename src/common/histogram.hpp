// Log-bucketed latency/cost histogram with percentile estimation.
//
// NFVnice stores sampled per-packet processing times in a histogram shared
// between libnf and the NF Manager so that service time can be estimated at
// arbitrary percentiles without keeping every sample (§3.2, §3.5). This is
// that histogram: power-of-two-ish buckets over a cycle range, O(1) insert,
// O(buckets) percentile queries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.hpp"

namespace nfv {

class Histogram {
 public:
  /// Buckets span [1, max_value]; values are clamped into range.
  /// `buckets_per_octave` controls resolution (4 => ~19% relative error).
  explicit Histogram(std::uint64_t max_value = (1ULL << 30),
                     unsigned buckets_per_octave = 4);

  void record(std::uint64_t value);
  void clear();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return count_ == 0 ? 0 : max_; }

  /// Value at quantile q in [0,1] (q=0.5 is the median the Monitor uses).
  /// Returns the representative (geometric midpoint) of the target bucket.
  [[nodiscard]] std::uint64_t value_at_quantile(double q) const;
  [[nodiscard]] std::uint64_t median() const { return value_at_quantile(0.5); }

  /// Merge another histogram with identical bucketing into this one.
  void merge(const Histogram& other);

 private:
  [[nodiscard]] std::size_t bucket_index(std::uint64_t value) const;
  [[nodiscard]] std::uint64_t bucket_representative(std::size_t index) const;

  std::uint64_t max_value_;
  unsigned buckets_per_octave_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace nfv
