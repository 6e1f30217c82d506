#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace nfv {
namespace {

TEST(Histogram, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.median(), 0u);
}

TEST(Histogram, SingleValueReportsExactly) {
  Histogram h;
  h.record(550);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 550u);
  EXPECT_EQ(h.max(), 550u);
  EXPECT_EQ(h.median(), 550u);  // clamped to observed extrema
}

TEST(Histogram, MeanIsExact) {
  Histogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
  EXPECT_EQ(h.sum(), 600u);
}

TEST(Histogram, MedianWithinBucketError) {
  Histogram h(1 << 20, 8);
  for (int i = 0; i < 1000; ++i) h.record(250);
  for (int i = 0; i < 10; ++i) h.record(5000);  // outliers
  // Median must stay robust against the outliers: within one bucket (~9%)
  // of 250.
  const auto median = h.median();
  EXPECT_GE(median, 220u);
  EXPECT_LE(median, 280u);
}

TEST(Histogram, QuantileOrdering) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_LE(h.value_at_quantile(0.1), h.value_at_quantile(0.5));
  EXPECT_LE(h.value_at_quantile(0.5), h.value_at_quantile(0.9));
  EXPECT_LE(h.value_at_quantile(0.9), h.value_at_quantile(1.0));
}

TEST(Histogram, ExtremeQuantilesClampToMinMax) {
  Histogram h;
  h.record(100);
  h.record(100000);
  EXPECT_EQ(h.value_at_quantile(0.0), 100u);
  EXPECT_EQ(h.value_at_quantile(1.0), 100000u);
}

TEST(Histogram, ValuesAboveMaxAreClamped) {
  Histogram h(1024, 4);
  h.record(1 << 30);  // way past max_value
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.median(), 1u << 30);  // clamped to observed max
}

TEST(Histogram, ZeroIsTreatedAsOne) {
  Histogram h;
  h.record(0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.record(7);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.median(), 0u);
  h.record(42);
  EXPECT_EQ(h.median(), 42u);
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a, b;
  a.record(100);
  b.record(1000);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 1000u);
  // Median of {100, 1000, 1000} ~ 1000 (within bucket error).
  EXPECT_GT(a.median(), 800u);
}

TEST(Histogram, MergeIntoEmpty) {
  Histogram a, b;
  b.record(33);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 33u);
  EXPECT_EQ(a.max(), 33u);
}

// Relative error property across magnitudes: the bucketed median of a
// point mass must be within the bucket resolution of the true value.
class HistogramResolution : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramResolution, PointMassWithinRelativeError) {
  const std::uint64_t value = GetParam();
  Histogram h((1ULL << 40), 8);
  for (int i = 0; i < 100; ++i) h.record(value);
  const auto median = h.median();
  const double rel =
      std::abs(static_cast<double>(median) - static_cast<double>(value)) /
      static_cast<double>(value);
  EXPECT_LE(rel, 0.10) << "value=" << value << " median=" << median;
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, HistogramResolution,
                         ::testing::Values(1, 7, 50, 120, 270, 550, 2200, 4500,
                                           100000, 12345678, (1ULL << 33)));

// Pins the bucket edges exactly. For every sub-bucket edge e of octaves
// 0-40 (the least integer whose bucket index is that sub-bucket) and for
// e - 1, a histogram holding {1, v, max} reports v's bucket representative
// as its median. The digests fold every (v, median) pair; they were
// captured while bucket_index still divided by the octave base.
std::uint64_t edge_digest(unsigned buckets_per_octave, std::size_t& probes) {
  constexpr std::uint64_t kMax = (1ULL << 41) - 1;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold = [&digest](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  };
  probes = 0;
  std::uint64_t last_edge = 0;
  for (unsigned octave = 0; octave <= 40; ++octave) {
    const std::uint64_t base = 1ULL << octave;
    for (unsigned sub = 0; sub < buckets_per_octave; ++sub) {
      // ceil(sub * base / buckets_per_octave) past the octave base.
      const std::uint64_t edge =
          base + (sub * base + buckets_per_octave - 1) / buckets_per_octave;
      if (edge == last_edge || edge >= 2 * base) continue;
      last_edge = edge;
      for (const std::uint64_t v : {edge, edge - 1}) {
        if (v == 0) continue;
        Histogram h(kMax, buckets_per_octave);
        h.record(1);
        h.record(v);
        h.record(kMax);
        fold(v);
        fold(h.median());
        ++probes;
      }
    }
  }
  return digest;
}

TEST(Histogram, SubBucketEdgesArePinned) {
  struct Pin {
    unsigned buckets_per_octave;
    std::size_t probes;
    std::uint64_t digest;
  };
  const Pin pins[] = {{4, 317, 0xc4556092e332791a},
                      {8, 621, 0x0f54218f8f9e1c65}};
  for (const Pin& pin : pins) {
    std::size_t probes = 0;
    const std::uint64_t digest = edge_digest(pin.buckets_per_octave, probes);
    EXPECT_EQ(probes, pin.probes) << pin.buckets_per_octave;
    EXPECT_EQ(digest, pin.digest)
        << pin.buckets_per_octave << " buckets/octave: now 0x" << std::hex
        << digest;
  }
  // Spot values: 1023 and 1024 straddle an octave edge; 1151 closes the
  // first of eight sub-buckets of octave 10 and 1152 opens the second.
  const std::pair<std::uint64_t, std::uint64_t> spots[] = {
      {1023, 991}, {1024, 1086}, {1151, 1086}, {1152, 1214}};
  for (const auto& [value, median] : spots) {
    Histogram h((1ULL << 41) - 1, 8);
    h.record(1);
    h.record(value);
    h.record((1ULL << 41) - 1);
    EXPECT_EQ(h.median(), median) << value;
  }
}

}  // namespace
}  // namespace nfv
