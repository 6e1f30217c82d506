#include "obs/latency_estimator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nfv::obs {

namespace {

/// Nearest-rank index: the ceil(q*n)-th smallest, clamped into [0, n-1].
std::size_t rank_index(double q, std::size_t n) {
  assert(n > 0);
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : std::min(rank - 1, n - 1);
}

std::uint64_t rank_of(std::vector<std::uint64_t>& samples, double q) {
  const std::size_t idx = rank_index(q, samples.size());
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

}  // namespace

LatencyEstimator::LatencyEstimator(std::size_t window)
    : ring_(window > 0 ? window : 1) {}

void LatencyEstimator::append_samples(std::vector<std::uint64_t>& out) const {
  if (size_ == 0) return;
  // Oldest-first: when full the oldest sample sits at next_, otherwise the
  // ring has not wrapped and the window starts at slot 0.
  const std::size_t start = size_ == ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t slot = start + i;
    if (slot >= ring_.size()) slot -= ring_.size();
    out.push_back(ring_[slot]);
  }
}

LatencyEstimator::Snapshot LatencyEstimator::snapshot_of(
    std::vector<std::uint64_t> samples, std::uint64_t total_count) {
  Snapshot s;
  s.samples = samples.size();
  s.total_count = total_count;
  if (samples.empty()) return s;
  s.p50 = rank_of(samples, 0.50);
  s.p95 = rank_of(samples, 0.95);
  s.p99 = rank_of(samples, 0.99);
  s.max = *std::max_element(samples.begin(), samples.end());
  return s;
}

std::uint64_t LatencyEstimator::quantile(double q) const {
  if (size_ == 0) return 0;
  scratch_.clear();
  append_samples(scratch_);
  return rank_of(scratch_, q);
}

}  // namespace nfv::obs
