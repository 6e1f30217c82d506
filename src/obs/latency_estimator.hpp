// Fixed-window tail-latency percentile estimator (DESIGN.md §16).
//
// A LatencyEstimator keeps the most recent `window` latency samples in a
// circular buffer and answers p50/p95/p99/max queries over that window by
// copying the held samples and running std::nth_element on the copy — the
// BESS NFVMonitor::GetTailLatency technique. Recording is O(1) with zero
// steady-state allocation (the ring is sized once at construction); a
// quantile query costs O(window) into a reused scratch buffer and never
// disturbs the ring, so back-to-back queries of an idle estimator agree.
//
// The quantile definition is the nearest-rank rule the exemplar uses:
// over n held samples, quantile q is the ceil(q*n)-th smallest (so p99 of
// 100 samples is the 99th smallest, and any q over a single sample is
// that sample). Quantiles are a pure function of the held multiset, which
// is what makes the shard-merge path exact: concatenating the per-lane
// windows in lane order and calling snapshot_of() yields byte-identical
// results at any worker count, because lane decomposition — and with it
// which lane records which sample — is fixed by the topology.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nfv::obs {

class LatencyEstimator {
 public:
  /// Window quantiles plus lifetime counters, all computed in one pass.
  struct Snapshot {
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t max = 0;          ///< max of the held window
    std::size_t samples = 0;        ///< samples currently held (<= window)
    std::uint64_t total_count = 0;  ///< samples ever recorded
  };

  /// Default window: ~2k samples bounds the snapshot cost while covering
  /// several monitor periods of egress at the rates the benches drive.
  static constexpr std::size_t kDefaultWindow = 2048;

  explicit LatencyEstimator(std::size_t window = kDefaultWindow);

  /// O(1), allocation-free: overwrite the oldest sample once full.
  void record(std::uint64_t sample) {
    ring_[next_] = sample;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    if (size_ < ring_.size()) ++size_;
    ++total_;
  }

  /// Nearest-rank quantile of the held window (0 when empty). Ranks a
  /// copy; the ring itself is never reordered.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  /// Append the held samples (oldest first) to `out` — the shard-merge
  /// path concatenates per-lane windows with this before snapshot_of().
  void append_samples(std::vector<std::uint64_t>& out) const;

  /// Rank an arbitrary sample set under quantile()'s nearest-rank rule.
  /// Takes the samples by value (nth_element reorders them);
  /// `total_count` passes through.
  [[nodiscard]] static Snapshot snapshot_of(std::vector<std::uint64_t> samples,
                                            std::uint64_t total_count);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t window() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t total_count() const { return total_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() {
    next_ = 0;
    size_ = 0;
    total_ = 0;
  }

 private:
  std::vector<std::uint64_t> ring_;
  std::size_t next_ = 0;   ///< slot the next sample lands in
  std::size_t size_ = 0;   ///< held samples (ring fill level)
  std::uint64_t total_ = 0;
  /// Reused window copy, so repeated queries allocate only on growth.
  mutable std::vector<std::uint64_t> scratch_;
};

}  // namespace nfv::obs
