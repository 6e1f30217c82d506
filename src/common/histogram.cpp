#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace nfv {

Histogram::Histogram(std::uint64_t max_value, unsigned buckets_per_octave)
    : max_value_(std::max<std::uint64_t>(max_value, 2)),
      buckets_per_octave_(std::max(1u, buckets_per_octave)) {
  const unsigned octaves = static_cast<unsigned>(std::bit_width(max_value_));
  counts_.assign(static_cast<std::size_t>(octaves) * buckets_per_octave_ + 1, 0);
}

std::size_t Histogram::bucket_index(std::uint64_t value) const {
  value = std::clamp<std::uint64_t>(value, 1, max_value_);
  // log2(value) * buckets_per_octave, computed without floating point for
  // the integer part and with a linear interpolation within the octave.
  // value >= 1, so the octave base is exactly 1 << msb and dividing by it
  // is a shift.
  const unsigned msb = static_cast<unsigned>(std::bit_width(value)) - 1;
  const std::uint64_t frac_num = value - (1ULL << msb);  // in [0, 2^msb)
  const std::size_t sub =
      static_cast<std::size_t>((frac_num * buckets_per_octave_) >> msb);
  const std::size_t index = static_cast<std::size_t>(msb) * buckets_per_octave_ + sub;
  return std::min(index, counts_.size() - 1);
}

std::uint64_t Histogram::bucket_representative(std::size_t index) const {
  const unsigned msb = static_cast<unsigned>(index / buckets_per_octave_);
  const std::size_t sub = index % buckets_per_octave_;
  const double base = std::ldexp(1.0, static_cast<int>(msb));
  const double lo = base * (1.0 + static_cast<double>(sub) / buckets_per_octave_);
  const double hi = base * (1.0 + static_cast<double>(sub + 1) / buckets_per_octave_);
  return static_cast<std::uint64_t>(std::sqrt(lo * hi));  // geometric midpoint
}

void Histogram::record(std::uint64_t value) {
  ++counts_[bucket_index(value)];
  ++count_;
  sum_ += value;
  if (count_ == 1) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
}

void Histogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = sum_ = min_ = max_ = 0;
}

std::uint64_t Histogram::value_at_quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= target && counts_[i] > 0) {
      // Clamp the representative to the observed extrema so single-value
      // histograms report that exact value.
      return std::clamp(bucket_representative(i), min_, max_);
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  const std::size_t n = std::min(counts_.size(), other.counts_.size());
  for (std::size_t i = 0; i < n; ++i) counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

}  // namespace nfv
