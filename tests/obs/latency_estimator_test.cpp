// LatencyEstimator: the fixed-window tail-quantile estimator behind the
// per-chain SLO telemetry (DESIGN.md §16). The tests pin the nearest-rank
// rule exactly — index ceil(q*n)-1 over the sorted window — plus the
// ring-buffer wraparound order, query non-destruction, and the
// shard-merge contract (quantiles over a concatenated sample multiset are
// order-independent, so merged == unsharded).

#include "obs/latency_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace nfv::obs {
namespace {

/// One estimator's window ranked the way the report ranks a merged one.
LatencyEstimator::Snapshot snapshot(const LatencyEstimator& est) {
  std::vector<std::uint64_t> samples;
  est.append_samples(samples);
  return LatencyEstimator::snapshot_of(std::move(samples), est.total_count());
}

TEST(LatencyEstimator, EmptyReportsZeros) {
  LatencyEstimator est;
  EXPECT_TRUE(est.empty());
  EXPECT_EQ(est.size(), 0u);
  EXPECT_EQ(est.total_count(), 0u);
  EXPECT_EQ(est.quantile(0.99), 0u);
  const auto snap = snapshot(est);
  EXPECT_EQ(snap.p50, 0u);
  EXPECT_EQ(snap.p95, 0u);
  EXPECT_EQ(snap.p99, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.samples, 0u);
}

TEST(LatencyEstimator, NearestRankOnOneToHundred) {
  // 1..100: nearest-rank index ceil(q*100)-1 picks exactly the q*100-th
  // value — the textbook case every implementation should agree on.
  LatencyEstimator est(128);
  for (std::uint64_t v = 1; v <= 100; ++v) est.record(v);
  EXPECT_EQ(est.quantile(0.50), 50u);
  EXPECT_EQ(est.quantile(0.95), 95u);
  EXPECT_EQ(est.quantile(0.99), 99u);
  EXPECT_EQ(est.quantile(1.0), 100u);
  const auto snap = snapshot(est);
  EXPECT_EQ(snap.p50, 50u);
  EXPECT_EQ(snap.p95, 95u);
  EXPECT_EQ(snap.p99, 99u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_EQ(snap.samples, 100u);
  EXPECT_EQ(snap.total_count, 100u);
}

TEST(LatencyEstimator, SingleSampleIsEveryQuantile) {
  LatencyEstimator est;
  est.record(42);
  EXPECT_EQ(est.quantile(0.01), 42u);
  EXPECT_EQ(est.quantile(0.5), 42u);
  EXPECT_EQ(est.quantile(0.99), 42u);
}

TEST(LatencyEstimator, WindowWraparoundKeepsNewestSamples) {
  // Window of 8 fed 1..100: only 93..100 remain. Nearest-rank over n=8:
  // p50 -> index ceil(0.5*8)-1 = 3 -> 96; p99 -> index 7 -> 100.
  LatencyEstimator est(8);
  for (std::uint64_t v = 1; v <= 100; ++v) est.record(v);
  EXPECT_EQ(est.size(), 8u);
  EXPECT_EQ(est.total_count(), 100u);
  EXPECT_EQ(est.quantile(0.50), 96u);
  EXPECT_EQ(est.quantile(0.99), 100u);
  std::vector<std::uint64_t> samples;
  est.append_samples(samples);
  const std::vector<std::uint64_t> expect{93, 94, 95, 96, 97, 98, 99, 100};
  EXPECT_EQ(samples, expect);  // oldest-first
}

TEST(LatencyEstimator, SnapshotDoesNotDisturbTheWindow) {
  LatencyEstimator est(16);
  for (std::uint64_t v = 1; v <= 10; ++v) est.record(v);
  const std::uint64_t p50 = est.quantile(0.50);
  const std::uint64_t p99 = est.quantile(0.99);
  const std::uint64_t max = est.quantile(1.0);
  // nth_element runs on a scratch copy: repeated quantile queries must
  // agree and must not reorder the ring.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(est.quantile(0.50), p50);
    EXPECT_EQ(est.quantile(0.99), p99);
    EXPECT_EQ(est.quantile(1.0), max);
  }
  std::vector<std::uint64_t> samples;
  est.append_samples(samples);
  for (std::uint64_t v = 1; v <= 10; ++v) EXPECT_EQ(samples[v - 1], v);
}

TEST(LatencyEstimator, RecordAfterSnapshotContinuesTheRing) {
  LatencyEstimator est(4);
  est.record(10);
  est.record(20);
  (void)est.quantile(0.5);
  est.record(30);
  est.record(40);
  est.record(50);  // evicts 10
  std::vector<std::uint64_t> samples;
  est.append_samples(samples);
  const std::vector<std::uint64_t> expect{20, 30, 40, 50};
  EXPECT_EQ(samples, expect);
  EXPECT_EQ(est.quantile(1.0), 50u);
}

TEST(LatencyEstimator, ClearResetsWindowAndTotals) {
  LatencyEstimator est(8);
  for (std::uint64_t v = 1; v <= 20; ++v) est.record(v);
  est.clear();
  EXPECT_TRUE(est.empty());
  EXPECT_EQ(est.total_count(), 0u);
  EXPECT_EQ(est.quantile(0.99), 0u);
  est.record(7);
  EXPECT_EQ(est.quantile(0.5), 7u);
}

TEST(LatencyEstimator, SnapshotOfMatchesSingleEstimator) {
  // The shard-merge contract: concatenating per-lane windows and ranking
  // with snapshot_of() must equal one estimator that saw every sample —
  // quantiles are functions of the sample multiset, not insertion order.
  std::mt19937_64 rng(0xfeedULL);
  std::vector<std::uint64_t> values(300);
  for (auto& v : values) v = rng() % 1'000'000;

  LatencyEstimator whole(512);
  LatencyEstimator lane_a(512);
  LatencyEstimator lane_b(512);
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.record(values[i]);
    (i % 2 == 0 ? lane_a : lane_b).record(values[i]);
  }
  std::vector<std::uint64_t> merged;
  lane_a.append_samples(merged);
  lane_b.append_samples(merged);
  const auto merged_snap = LatencyEstimator::snapshot_of(
      merged, lane_a.total_count() + lane_b.total_count());
  const auto whole_snap = snapshot(whole);
  EXPECT_EQ(merged_snap.p50, whole_snap.p50);
  EXPECT_EQ(merged_snap.p95, whole_snap.p95);
  EXPECT_EQ(merged_snap.p99, whole_snap.p99);
  EXPECT_EQ(merged_snap.max, whole_snap.max);
  EXPECT_EQ(merged_snap.samples, whole_snap.samples);
  EXPECT_EQ(merged_snap.total_count, whole_snap.total_count);
}

TEST(LatencyEstimator, QuantileAgreesWithSortReference) {
  // Property check: nearest-rank via nth_element == nearest-rank via a
  // full sort, across random windows and the quantiles the platform uses.
  std::mt19937_64 rng(0x5eedULL);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng() % 200;
    LatencyEstimator est(256);
    std::vector<std::uint64_t> ref;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t v = rng() % 10'000;
      est.record(v);
      ref.push_back(v);
    }
    std::sort(ref.begin(), ref.end());
    for (const double q : {0.5, 0.95, 0.99}) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(n))); // 1-based nearest rank
      const std::size_t idx = std::min(rank == 0 ? 0 : rank - 1, n - 1);
      EXPECT_EQ(est.quantile(q), ref[idx]) << "n=" << n << " q=" << q;
    }
  }
}

TEST(LatencyEstimator, ZeroWindowIsClampedToOne) {
  LatencyEstimator est(0);
  EXPECT_EQ(est.window(), 1u);
  est.record(5);
  est.record(9);
  EXPECT_EQ(est.size(), 1u);
  EXPECT_EQ(est.quantile(0.5), 9u);  // only the newest survives
}

}  // namespace
}  // namespace nfv::obs
