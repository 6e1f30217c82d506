// Model-based property/stress tests for pktio::Ring and pktio::MbufPool.
//
// A seeded nfv::Rng drives long random operation sequences against each
// structure while a trivially-correct reference model (std::deque / a
// borrowed-pointer set) runs alongside; every step cross-checks the
// invariants the rest of the platform leans on — FIFO order, size/capacity
// accounting, watermark tri-state feedback, conservation of descriptors,
// and no double-free / no foreign-pointer leaks out of the pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "pktio/mempool.hpp"
#include "pktio/ring.hpp"

namespace nfv::pktio {
namespace {

TEST(RingProperty, RandomOpsMatchDequeModel) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 0xdeadbeefULL}) {
    Rng rng(seed);
    // Random small capacity exercises the power-of-two rounding too.
    const auto requested = static_cast<std::uint32_t>(rng.next_in(1, 200));
    Ring ring(requested, /*high_watermark=*/0.80, /*low_watermark=*/0.60);
    ASSERT_GE(ring.capacity(), requested);
    ASSERT_EQ(ring.capacity() & (ring.capacity() - 1), 0u)
        << "capacity must round to a power of two";

    std::vector<Mbuf> storage(ring.capacity() + 8);
    std::size_t next_mbuf = 0;
    std::deque<Mbuf*> model;

    for (int step = 0; step < 20'000; ++step) {
      const std::uint64_t op = rng.next_below(3);
      if (op == 0) {  // enqueue
        Mbuf* m = &storage[next_mbuf % storage.size()];
        const EnqueueResult result = ring.enqueue(m);
        if (model.size() == ring.capacity()) {
          EXPECT_EQ(result, EnqueueResult::kFull);
        } else {
          // Tri-state feedback: the return value must reflect the
          // post-enqueue length against the high watermark (§3.5).
          model.push_back(m);
          ++next_mbuf;
          if (model.size() >= ring.high_watermark()) {
            EXPECT_EQ(result, EnqueueResult::kOkOverloaded);
          } else {
            EXPECT_EQ(result, EnqueueResult::kOk);
          }
        }
      } else if (op == 1) {  // dequeue one
        Mbuf* got = ring.dequeue();
        if (model.empty()) {
          EXPECT_EQ(got, nullptr);
        } else {
          EXPECT_EQ(got, model.front()) << "FIFO order violated";
          model.pop_front();
        }
      } else {  // dequeue a burst
        Mbuf* burst[16];
        const auto want = static_cast<std::size_t>(rng.next_in(1, 16));
        const std::size_t n = ring.dequeue_burst(burst, want);
        EXPECT_EQ(n, std::min(want, model.size()));
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(burst[i], model.front());
          model.pop_front();
        }
      }

      ASSERT_EQ(ring.size(), model.size());
      ASSERT_EQ(ring.empty(), model.empty());
      ASSERT_EQ(ring.full(), model.size() == ring.capacity());
      ASSERT_EQ(ring.above_high_watermark(),
                model.size() >= ring.high_watermark());
      ASSERT_EQ(ring.below_low_watermark(),
                model.size() < ring.low_watermark());
    }
  }
}

TEST(RingProperty, WraparoundPreservesFifoOrder) {
  // Force the head/tail indices around the ring many times with a mix of
  // bursts so the mask arithmetic is exercised at every offset.
  Ring ring(8);
  std::vector<Mbuf> storage(8);
  Rng rng(0x5eed);
  std::deque<Mbuf*> model;
  for (int round = 0; round < 1000; ++round) {
    const auto n_in = static_cast<std::size_t>(rng.next_in(1, 8));
    for (std::size_t i = 0; i < n_in; ++i) {
      Mbuf* m = &storage[rng.next_below(storage.size())];
      if (ring.enqueue(m) != EnqueueResult::kFull) model.push_back(m);
    }
    const auto n_out = static_cast<std::size_t>(rng.next_in(1, 8));
    for (std::size_t i = 0; i < n_out; ++i) {
      Mbuf* got = ring.dequeue();
      if (model.empty()) {
        ASSERT_EQ(got, nullptr);
      } else {
        ASSERT_EQ(got, model.front());
        model.pop_front();
      }
    }
  }
}

/// Reference model of an eagerly built pool: every slot index pushed up
/// front onto a stack [cap-1 ... 0] (index 0 on top) and handed out LIFO.
/// MbufPool builds its slots lazily but must hand out the same indices, so
/// reports and traces replay byte-for-byte against the eager pool.
struct EagerPoolModel {
  explicit EagerPoolModel(std::uint32_t cap) : capacity(cap) {
    for (std::uint32_t i = cap; i-- > 0;) free.push_back(i);
  }
  std::uint32_t pop() {
    const std::uint32_t index = free.back();
    free.pop_back();
    high_water = std::max(high_water, index + 1);
    return index;
  }
  [[nodiscard]] std::uint32_t available() const {
    return static_cast<std::uint32_t>(free.size());
  }
  /// Freed slots stacked above the never-used ones [cap-1 ... high_water].
  [[nodiscard]] std::uint32_t freed() const {
    return available() - (capacity - high_water);
  }

  std::uint32_t capacity;
  std::vector<std::uint32_t> free;
  std::uint32_t high_water = 0;  ///< Distinct indices handed out so far.
  std::uint64_t failures = 0;
};

TEST(MempoolProperty, RandomAllocFreeNeverLosesOrDuplicatesBuffers) {
  // Exact-boundary events the op stream must reach, not just allow.
  std::uint64_t full_failures = 0;      // alloc at in_use == capacity
  std::uint64_t crossing_bursts = 0;    // burst = freed slots + 1 fresh
  std::uint64_t exact_fit_bursts = 0;   // burst = every available slot
  std::uint64_t overflow_bursts = 0;    // burst = available + 1, refused
  for (const std::uint64_t seed : {3ULL, 0xabcULL}) {
    Rng rng(seed);
    // Many short pool lifetimes: each starts with no slot built, so the
    // fresh/freed boundary is crossed again and again.
    for (int life = 0; life < 25; ++life) {
      const auto cap = static_cast<std::uint32_t>(rng.next_in(1, 96));
      MbufPool pool(cap);
      EagerPoolModel model(cap);
      std::vector<Mbuf*> borrowed;           // the model: what we hold
      std::set<Mbuf*> held;                  // same, for duplicate checks
      std::vector<Mbuf*> address(cap, nullptr);  // index -> its address

      const auto took = [&](Mbuf* m) {
        ASSERT_NE(m, nullptr);
        ASSERT_EQ(m->pool_index, model.pop()) << "hand-out order diverged";
        if (address[m->pool_index] == nullptr) address[m->pool_index] = m;
        ASSERT_EQ(m, address[m->pool_index]) << "slot moved";
        // A buffer handed out twice while still borrowed would corrupt
        // two packets at once — the double-free's mirror image.
        ASSERT_TRUE(held.insert(m).second)
            << "pool returned a buffer already in use";
        ASSERT_EQ(m->flow_id, 0u) << "metadata not reset";
        m->flow_id = 0xf00d;
        borrowed.push_back(m);
      };
      const auto give_back = [&](std::size_t pick) {
        Mbuf* m = borrowed[pick];
        borrowed[pick] = borrowed.back();
        borrowed.pop_back();
        held.erase(m);
        model.free.push_back(m->pool_index);
        return m;
      };

      for (int step = 0; step < 1'000; ++step) {
        const std::uint64_t op = rng.next_below(8);
        if (op < 3) {  // alloc one
          const bool full = model.available() == 0;
          Mbuf* m = pool.alloc();
          if (full) {
            EXPECT_EQ(m, nullptr) << "pool over-allocated past capacity";
            ++model.failures;
            ASSERT_EQ(held.size(), pool.capacity());
            ++full_failures;
          } else {
            took(m);
          }
        } else if (op < 6) {  // free one
          if (!borrowed.empty()) {
            pool.free(give_back(rng.next_below(borrowed.size())));
          }
        } else if (op == 6) {  // alloc a burst, often sized to a boundary
          const std::uint32_t sizes[] = {
              static_cast<std::uint32_t>(rng.next_in(1, 8)),
              model.freed() + 1, model.available(), model.available() + 1};
          const std::uint32_t n = std::max(1u, sizes[rng.next_below(4)]);
          std::vector<Mbuf*> out(n, nullptr);
          const bool fits = n <= model.available();
          const bool crossing = n == model.freed() + 1 && model.freed() > 0;
          const bool exact = n == model.available();
          const bool overflow = n == model.available() + 1;
          const std::uint32_t got = pool.alloc_burst(out.data(), n);
          if (fits) {
            ASSERT_EQ(got, n);
            for (Mbuf* m : out) took(m);
            crossing_bursts += crossing;
            exact_fit_bursts += exact;
          } else {
            ASSERT_EQ(got, 0u) << "alloc_burst must be all-or-nothing";
            for (Mbuf* m : out) ASSERT_EQ(m, nullptr) << "out was touched";
            ++model.failures;
            overflow_bursts += overflow;
          }
        } else if (!borrowed.empty()) {  // free a burst in random order
          const auto k = static_cast<std::size_t>(
              rng.next_in(1, static_cast<std::int64_t>(
                                 std::min<std::size_t>(16, borrowed.size()))));
          std::vector<Mbuf*> burst;
          for (std::size_t i = 0; i < k; ++i) {
            burst.push_back(give_back(rng.next_below(borrowed.size())));
          }
          pool.free_burst(burst.data(), static_cast<std::uint32_t>(k));
        }
        ASSERT_EQ(pool.in_use(), borrowed.size());
        ASSERT_EQ(pool.in_use(), cap - model.available());
        ASSERT_EQ(pool.alloc_failures(), model.failures);
      }

      // Drain: everything we borrowed goes back exactly once.
      pool.free_burst(borrowed.data(),
                      static_cast<std::uint32_t>(borrowed.size()));
      EXPECT_EQ(pool.in_use(), 0u);
    }
  }
  EXPECT_GT(full_failures, 0u);
  EXPECT_GT(crossing_bursts, 0u);
  EXPECT_GT(exact_fit_bursts, 0u);
  EXPECT_GT(overflow_bursts, 0u);
}

TEST(MempoolProperty, HeldMbufStaysValidWhileSlotsAreBuilt) {
  // Every later alloc builds a new slot until the pool is full: a pool
  // that grew its storage by reallocation would move `held` under its
  // owner (and ASan would flag the stale pointer).
  MbufPool pool(1024);
  Mbuf* held = pool.alloc();
  ASSERT_NE(held, nullptr);
  held->flow_id = 0xfeed;
  held->seq = 42;
  const std::uint32_t index = held->pool_index;

  std::vector<Mbuf*> others;
  while (Mbuf* m = pool.alloc()) {
    m->flow_id = 1;
    m->seq = others.size();
    others.push_back(m);
  }
  ASSERT_EQ(others.size(), pool.capacity() - 1);
  EXPECT_EQ(pool.alloc_failures(), 1u) << "exhausted at exactly capacity()";
  // Churn half the pool through free + re-alloc while `held` stays out.
  const std::size_t half = pool.capacity() / 2;
  pool.free_burst(others.data() + half,
                  static_cast<std::uint32_t>(others.size() - half));
  ASSERT_EQ(pool.alloc_burst(others.data() + half,
                             static_cast<std::uint32_t>(others.size() - half)),
            others.size() - half);

  EXPECT_EQ(held->flow_id, 0xfeedu);
  EXPECT_EQ(held->seq, 42u);
  EXPECT_EQ(held->pool_index, index);
  pool.free_burst(others.data(), static_cast<std::uint32_t>(others.size()));
  pool.free(held);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.alloc(), held) << "the last freed slot is handed out first";
  pool.free(held);
}

TEST(MempoolProperty, ExhaustAndRecoverFullCycle) {
  MbufPool pool(16);
  std::vector<Mbuf*> all;
  for (std::uint32_t i = 0; i < 16; ++i) {
    Mbuf* m = pool.alloc();
    ASSERT_NE(m, nullptr);
    all.push_back(m);
  }
  // All 16 are distinct buffers.
  std::set<Mbuf*> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), 16u);
  EXPECT_EQ(pool.alloc(), nullptr);
  EXPECT_EQ(pool.in_use(), 16u);

  pool.free(all.back());
  all.pop_back();
  Mbuf* again = pool.alloc();
  ASSERT_NE(again, nullptr);
  all.push_back(again);
  for (Mbuf* m : all) pool.free(m);
  EXPECT_EQ(pool.in_use(), 0u);
}

}  // namespace
}  // namespace nfv::pktio
