#include "pktio/ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace nfv::pktio {
namespace {

Mbuf* fake(std::uintptr_t id) { return reinterpret_cast<Mbuf*>(id << 4); }

TEST(Ring, CapacityRoundsToPowerOfTwo) {
  Ring r(100);
  EXPECT_EQ(r.capacity(), 128u);
  Ring r2(128);
  EXPECT_EQ(r2.capacity(), 128u);
  Ring r3(1);
  EXPECT_EQ(r3.capacity(), 2u);
}

TEST(Ring, FifoOrder) {
  Ring r(8);
  for (std::uintptr_t i = 1; i <= 5; ++i) {
    EXPECT_NE(r.enqueue(fake(i)), EnqueueResult::kFull);
  }
  for (std::uintptr_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(r.dequeue(), fake(i));
  }
  EXPECT_EQ(r.dequeue(), nullptr);
}

TEST(Ring, FullRejectsEnqueue) {
  Ring r(4);  // capacity 4
  for (std::uintptr_t i = 1; i <= 4; ++i) {
    EXPECT_NE(r.enqueue(fake(i)), EnqueueResult::kFull);
  }
  EXPECT_TRUE(r.full());
  EXPECT_EQ(r.enqueue(fake(99)), EnqueueResult::kFull);
  EXPECT_EQ(r.size(), 4u);
}

TEST(Ring, WatermarkFeedbackOnEnqueue) {
  Ring r(16, 0.5, 0.25);  // high at 8, low at 4
  EnqueueResult last = EnqueueResult::kOk;
  for (std::uintptr_t i = 1; i <= 7; ++i) last = r.enqueue(fake(i));
  EXPECT_EQ(last, EnqueueResult::kOk);
  last = r.enqueue(fake(8));  // reaches the high mark
  EXPECT_EQ(last, EnqueueResult::kOkOverloaded);
  EXPECT_TRUE(r.above_high_watermark());
}

TEST(Ring, LowWatermarkHysteresis) {
  Ring r(16, 0.5, 0.25);
  for (std::uintptr_t i = 1; i <= 8; ++i) r.enqueue(fake(i));
  EXPECT_TRUE(r.above_high_watermark());
  EXPECT_FALSE(r.below_low_watermark());
  while (r.size() >= 4) r.dequeue();
  EXPECT_TRUE(r.below_low_watermark());
  EXPECT_FALSE(r.above_high_watermark());
}

TEST(Ring, DequeueBurst) {
  Ring r(16);
  for (std::uintptr_t i = 1; i <= 10; ++i) r.enqueue(fake(i));
  Mbuf* out[32];
  EXPECT_EQ(r.dequeue_burst(out, 4), 4u);
  EXPECT_EQ(out[0], fake(1));
  EXPECT_EQ(out[3], fake(4));
  EXPECT_EQ(r.dequeue_burst(out, 32), 6u);
  EXPECT_EQ(out[5], fake(10));
  EXPECT_EQ(r.dequeue_burst(out, 32), 0u);
}

TEST(Ring, EnqueueBurstAcceptsWhatFits) {
  Ring r(8);
  Mbuf* in[6] = {fake(1), fake(2), fake(3), fake(4), fake(5), fake(6)};
  EXPECT_EQ(r.enqueue_burst(in, 6), 6u);
  EXPECT_EQ(r.size(), 6u);
  // Only 2 slots left: the burst is truncated, not rejected.
  Mbuf* more[4] = {fake(7), fake(8), fake(9), fake(10)};
  EXPECT_EQ(r.enqueue_burst(more, 4), 2u);
  EXPECT_TRUE(r.full());
  EXPECT_EQ(r.enqueue_burst(more, 4), 0u);
  EXPECT_EQ(r.size(), 8u);
  for (std::uintptr_t i = 1; i <= 8; ++i) EXPECT_EQ(r.dequeue(), fake(i));
}

TEST(Ring, EnqueueBurstWrapsAround) {
  Ring r(4);
  Mbuf* first[3] = {fake(1), fake(2), fake(3)};
  ASSERT_EQ(r.enqueue_burst(first, 3), 3u);
  EXPECT_EQ(r.dequeue(), fake(1));
  EXPECT_EQ(r.dequeue(), fake(2));
  // Tail wraps past the end of the storage array.
  Mbuf* second[3] = {fake(4), fake(5), fake(6)};
  ASSERT_EQ(r.enqueue_burst(second, 3), 3u);
  for (std::uintptr_t i = 3; i <= 6; ++i) EXPECT_EQ(r.dequeue(), fake(i));
  EXPECT_TRUE(r.empty());
}

TEST(Ring, WrapAroundKeepsOrder) {
  Ring r(4);
  // Repeatedly push/pop so indices wrap many times.
  std::uintptr_t next_in = 1, next_out = 1;
  for (int step = 0; step < 100; ++step) {
    r.enqueue(fake(next_in++));
    r.enqueue(fake(next_in++));
    EXPECT_EQ(r.dequeue(), fake(next_out++));
    EXPECT_EQ(r.dequeue(), fake(next_out++));
  }
  EXPECT_TRUE(r.empty());
}

TEST(Ring, HeadEnqueueTimeTracksOldest) {
  Ring r(8);
  Mbuf a, b;
  a.enqueue_time = 100;
  b.enqueue_time = 200;
  r.enqueue(&a);
  r.enqueue(&b);
  EXPECT_EQ(r.head_enqueue_time(), 100);
  r.dequeue();
  EXPECT_EQ(r.head_enqueue_time(), 200);
  r.dequeue();
  EXPECT_EQ(r.head_enqueue_time(), 0);
}

// The occupancy count is the ring's only counter: accepted enqueues minus
// dequeues, with rejected enqueues and empty dequeues leaving it alone.
TEST(Ring, Counters) {
  Ring r(4);
  for (std::uintptr_t i = 1; i <= 3; ++i) r.enqueue(fake(i));
  r.dequeue();
  EXPECT_EQ(r.size(), 2u);
  for (std::uintptr_t i = 4; i <= 6; ++i) r.enqueue(fake(i));
  EXPECT_EQ(r.size(), 4u);  // the sixth was rejected
  Mbuf* out[8];
  EXPECT_EQ(r.dequeue_burst(out, 8), 4u);
  EXPECT_EQ(r.dequeue(), nullptr);
  EXPECT_EQ(r.size(), 0u);
}

TEST(Ring, DegenerateWatermarks) {
  Ring r(8, 1.0, 1.0);  // high mark at capacity
  for (std::uintptr_t i = 1; i <= 7; ++i) {
    EXPECT_EQ(r.enqueue(fake(i)), EnqueueResult::kOk);
  }
  EXPECT_EQ(r.enqueue(fake(8)), EnqueueResult::kOkOverloaded);
}

// Property sweep: for any capacity/watermark combination, enqueue feedback
// must flip to kOkOverloaded exactly when size reaches the high mark.
class RingWatermarkSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, double>> {};

TEST_P(RingWatermarkSweep, FeedbackMatchesHighMark) {
  const auto [capacity, high] = GetParam();
  Ring r(capacity, high, high / 2);
  std::uintptr_t i = 1;
  while (!r.full()) {
    const auto result = r.enqueue(fake(i++));
    ASSERT_NE(result, EnqueueResult::kFull);
    const bool over = r.size() >= r.high_watermark();
    ASSERT_EQ(result == EnqueueResult::kOkOverloaded, over)
        << "size=" << r.size() << " mark=" << r.high_watermark();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingWatermarkSweep,
    ::testing::Combine(::testing::Values(4u, 16u, 100u, 1024u),
                       ::testing::Values(0.5, 0.8, 0.95)));

}  // namespace
}  // namespace nfv::pktio
