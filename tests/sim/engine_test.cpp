#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace nfv::sim {
namespace {

// Every behavioural contract below must hold for both ready-queue backends
// (DESIGN.md §15): the wheel is a performance substitute for the heap, not a
// semantic variant. The suite is instantiated once per backend.
class EngineBackendTest : public ::testing::TestWithParam<EngineBackend> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineBackendTest,
    ::testing::Values(EngineBackend::kHeap, EngineBackend::kWheel),
    [](const ::testing::TestParamInfo<EngineBackend>& param) {
      return std::string(to_string(param.param));
    });

TEST_P(EngineBackendTest, StartsAtZero) {
  Engine e{GetParam()};
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_EQ(e.backend(), GetParam());
}

TEST_P(EngineBackendTest, EventsFireInTimeOrder) {
  Engine e{GetParam()};
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST_P(EngineBackendTest, TiesBreakInSchedulingOrder) {
  Engine e{GetParam()};
  std::vector<int> order;
  e.schedule_at(5, [&] { order.push_back(1); });
  e.schedule_at(5, [&] { order.push_back(2); });
  e.schedule_at(5, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(EngineBackendTest, ScheduleAfterIsRelative) {
  Engine e{GetParam()};
  Cycles fired_at = -1;
  e.schedule_at(100, [&] {
    e.schedule_after(50, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 150);
}

TEST_P(EngineBackendTest, NegativeDelayClampsToNow) {
  Engine e{GetParam()};
  Cycles fired_at = -1;
  e.schedule_at(10, [&] {
    e.schedule_after(-5, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 10);
}

TEST_P(EngineBackendTest, RunUntilStopsAtDeadline) {
  Engine e{GetParam()};
  int fired = 0;
  e.schedule_at(10, [&] { ++fired; });
  e.schedule_at(20, [&] { ++fired; });
  e.schedule_at(21, [&] { ++fired; });
  const auto n = e.run_until(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 20);  // clock advances to the deadline
  e.run();
  EXPECT_EQ(fired, 3);
}

TEST_P(EngineBackendTest, RunUntilAdvancesClockWhenIdle) {
  Engine e{GetParam()};
  e.run_until(1000);
  EXPECT_EQ(e.now(), 1000);
}

TEST_P(EngineBackendTest, CancelPreventsExecution) {
  Engine e{GetParam()};
  bool fired = false;
  const EventId id = e.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST_P(EngineBackendTest, CancelIsIdempotent) {
  Engine e{GetParam()};
  const EventId id = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
  EXPECT_FALSE(e.cancel(kInvalidEventId));
  EXPECT_FALSE(e.cancel(999999));  // never issued
  e.run();
}

TEST_P(EngineBackendTest, CancelFromWithinEarlierEvent) {
  Engine e{GetParam()};
  bool fired = false;
  const EventId id = e.schedule_at(20, [&] { fired = true; });
  e.schedule_at(10, [&] { e.cancel(id); });
  e.run();
  EXPECT_FALSE(fired);
}

TEST_P(EngineBackendTest, PeriodicFiresRepeatedly) {
  Engine e{GetParam()};
  int count = 0;
  e.schedule_periodic(10, [&] { ++count; });
  e.run_until(100);
  EXPECT_EQ(count, 10);  // t=10,20,...,100
}

TEST_P(EngineBackendTest, PeriodicCancelStops) {
  Engine e{GetParam()};
  int count = 0;
  const EventId id = e.schedule_periodic(10, [&] { ++count; });
  e.schedule_at(35, [&] { e.cancel(id); });
  e.run_until(200);
  EXPECT_EQ(count, 3);  // t=10,20,30
}

TEST_P(EngineBackendTest, PeriodicCanCancelItself) {
  Engine e{GetParam()};
  int count = 0;
  EventId id = kInvalidEventId;
  id = e.schedule_periodic(10, [&] {
    if (++count == 5) e.cancel(id);
  });
  e.run_until(1000);
  EXPECT_EQ(count, 5);
}

TEST_P(EngineBackendTest, DispatchedEventsCounts) {
  Engine e{GetParam()};
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.dispatched_events(), 5u);
}

TEST_P(EngineBackendTest, EventsScheduledDuringRunAreExecuted) {
  Engine e{GetParam()};
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.schedule_after(1, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99);
}

TEST_P(EngineBackendTest, SameCycleInsertionDuringDispatchFires) {
  // A callback scheduling at the *current* cycle must see the new event run
  // in the same batch (the wheel re-drains its level-0 cell for this).
  Engine e{GetParam()};
  std::vector<int> order;
  e.schedule_at(10, [&] {
    order.push_back(1);
    e.schedule_at(10, [&] { order.push_back(2); });
  });
  e.schedule_at(10, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));  // fresh seq sorts last
  EXPECT_EQ(e.now(), 10);
}

TEST_P(EngineBackendTest, CancelAfterFireIsNoOp) {
  // Regression: cancelling an already-fired one-shot used to decrement
  // pending_events (underflowing the gauge) and leak heap bookkeeping.
  Engine e{GetParam()};
  int fired = 0;
  const EventId id = e.schedule_at(10, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending_events(), 0u);
  EXPECT_FALSE(e.cancel(id));
  EXPECT_EQ(e.pending_events(), 0u);  // no underflow
  // The engine must still work normally afterwards.
  e.schedule_after(5, [&] { ++fired; });
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST_P(EngineBackendTest, StaleIdCannotCancelReusedSlot) {
  // After a one-shot fires, its slot is recycled for new events. A stale
  // EventId (same slot, older generation) must not cancel the new tenant.
  Engine e{GetParam()};
  bool second_fired = false;
  const EventId old_id = e.schedule_at(1, [] {});
  e.run();
  // The next schedule reuses the freed slot.
  const EventId new_id = e.schedule_at(10, [&] { second_fired = true; });
  EXPECT_FALSE(e.cancel(old_id));  // stale generation: refused
  e.run();
  EXPECT_TRUE(second_fired);
  EXPECT_NE(old_id, new_id);
}

TEST_P(EngineBackendTest, CancelledSlotIsRecycledSafely) {
  // Cancelling an armed event frees its slot immediately; a stale cancel of
  // the same id after the slot is re-armed must be refused.
  Engine e{GetParam()};
  const EventId a = e.schedule_at(50, [] { FAIL() << "cancelled event ran"; });
  EXPECT_TRUE(e.cancel(a));
  EXPECT_EQ(e.pending_events(), 0u);
  int fired = 0;
  e.schedule_at(60, [&] { ++fired; });  // reuses a's slot
  EXPECT_FALSE(e.cancel(a));
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST_P(EngineBackendTest, OneShotSelfCancelDuringDispatchIsNoOp) {
  // A callback cancelling its own (already-firing) id must get `false` and
  // leave the engine consistent.
  Engine e{GetParam()};
  EventId id = kInvalidEventId;
  bool self_cancel_result = true;
  id = e.schedule_at(10, [&] { self_cancel_result = e.cancel(id); });
  e.run();
  EXPECT_FALSE(self_cancel_result);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST_P(EngineBackendTest, ManyCancelledEventsDoNotAccumulateState) {
  // With O(1) cancellation the slot must be reusable at once: heavy
  // schedule/cancel churn keeps pending_events exact.
  Engine e{GetParam()};
  for (int round = 0; round < 1000; ++round) {
    const EventId id = e.schedule_after(100, [] {});
    EXPECT_TRUE(e.cancel(id));
  }
  EXPECT_EQ(e.pending_events(), 0u);
  int fired = 0;
  e.schedule_after(1, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.dispatched_events(), 1u);
}

TEST_P(EngineBackendTest, DeterministicUnderChurn) {
  // Two engines fed the identical schedule/cancel pattern must observe the
  // identical dispatch sequence — the determinism contract every simulation
  // above relies on.
  const auto run_once = [this] {
    Engine e{GetParam()};
    std::vector<Cycles> fire_times;
    std::vector<EventId> live;
    std::uint64_t seed = 99;
    for (int i = 0; i < 3000; ++i) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      const Cycles t = static_cast<Cycles>(seed % 5000);
      live.push_back(
          e.schedule_at(t, [&fire_times, &e] { fire_times.push_back(e.now()); }));
      if (seed % 3 == 0 && !live.empty()) {
        e.cancel(live[seed % live.size()]);
      }
    }
    e.run();
    return fire_times;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST_P(EngineBackendTest, HeavyLoadOrderingProperty) {
  // Many events at random times must still execute in nondecreasing order.
  Engine e{GetParam()};
  std::vector<Cycles> times;
  std::uint64_t seed = 12345;
  for (int i = 0; i < 10000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const Cycles t = static_cast<Cycles>(seed % 100000);
    e.schedule_at(t, [&times, &e] { times.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(times.size(), 10000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    ASSERT_LE(times[i - 1], times[i]);
  }
}

TEST_P(EngineBackendTest, EveryPendingCountFiresInWhenSeqOrder) {
  // Every queue size from 1 to 64 pending events, so most heaps end in a
  // partial last level that each pop sifts through.
  for (int n = 1; n <= 64; ++n) {
    Engine e{GetParam()};
    std::vector<std::pair<Cycles, int>> expected;
    std::vector<std::pair<Cycles, int>> fired;
    for (int i = 0; i < n; ++i) {
      const Cycles when = (i * 37) % 11;  // scrambled, with ties
      expected.emplace_back(when, i);
      e.schedule_at(when, [&fired, &e, i] { fired.emplace_back(e.now(), i); });
    }
    std::sort(expected.begin(), expected.end());  // (when, scheduling order)
    e.run();
    EXPECT_EQ(fired, expected) << n << " pending events";
  }
}

TEST_P(EngineBackendTest, FarFutureEventsFireInOrder) {
  // Deltas spanning every wheel level (up to 2^56 cycles) must cascade down
  // and fire in order; exercises multi-level rollover.
  Engine e{GetParam()};
  std::vector<Cycles> times;
  for (int i = 0; i < 57; ++i) {
    e.schedule_at(Cycles{1} << i, [&times, &e] { times.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(times.size(), 57u);
  for (int i = 0; i < 57; ++i) EXPECT_EQ(times[i], Cycles{1} << i);
}

TEST_P(EngineBackendTest, FarFutureCancelIsExact) {
  // Cancelling events parked on high wheel levels must be O(1)-eager:
  // pending_events drops immediately, and nothing fires later.
  Engine e{GetParam()};
  std::vector<EventId> ids;
  for (int i = 10; i < 50; ++i) {
    ids.push_back(e.schedule_at(Cycles{1} << i, [] { FAIL(); }));
  }
  EXPECT_EQ(e.pending_events(), ids.size());
  for (const EventId id : ids) EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending_events(), 0u);
  e.run();
  EXPECT_EQ(e.dispatched_events(), 0u);
}

TEST_P(EngineBackendTest, ReserveIsBehaviourNeutral) {
  Engine e{GetParam()};
  e.reserve(1 << 16);
  std::vector<int> order;
  e.schedule_at(2, [&] { order.push_back(2); });
  e.schedule_at(1, [&] { order.push_back(1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_P(EngineBackendTest, PeriodicWithLongPeriodCrossesLevels) {
  // Period > one level-0 revolution (256 cycles): each re-arm lands on a
  // higher level and must cascade back down exactly on time.
  Engine e{GetParam()};
  std::vector<Cycles> times;
  e.schedule_periodic(1000, [&] { times.push_back(e.now()); });
  e.run_until(10'000);
  ASSERT_EQ(times.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(times[i], Cycles{1000} * (i + 1));
}

TEST(EngineBackend, ParseAndName) {
  EngineBackend b = EngineBackend::kHeap;
  EXPECT_TRUE(parse_engine_backend("wheel", b));
  EXPECT_EQ(b, EngineBackend::kWheel);
  EXPECT_TRUE(parse_engine_backend("heap", b));
  EXPECT_EQ(b, EngineBackend::kHeap);
  EXPECT_FALSE(parse_engine_backend("bogus", b));
  EXPECT_FALSE(parse_engine_backend("", b));
  EXPECT_FALSE(parse_engine_backend(nullptr, b));
  EXPECT_STREQ(to_string(EngineBackend::kHeap), "heap");
  EXPECT_STREQ(to_string(EngineBackend::kWheel), "wheel");
}

// Differential contract: the two backends, fed an identical randomized
// schedule/cancel/periodic workload, must produce the *identical* dispatch
// log — same tags at the same times in the same order. This is the unit-level
// form of the byte-identical-reports guarantee DESIGN.md §15 claims.
TEST(EngineBackend, HeapWheelDifferentialChurn) {
  const auto run_ops = [](EngineBackend backend) {
    Engine e{backend};
    std::vector<std::pair<Cycles, int>> log;
    std::vector<EventId> live;
    std::uint64_t seed = 0xabcdef12345ULL;
    const auto next = [&seed] {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      return seed >> 16;
    };
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t r = next();
      switch (r % 5) {
        case 0:
        case 1: {  // one-shot at a near/far mix of horizons
          const Cycles t =
              e.now() + static_cast<Cycles>((r % 3 == 0)
                                                ? next() % (Cycles{1} << 34)
                                                : next() % 4096);
          const int tag = i;
          live.push_back(e.schedule_at(
              t, [&log, &e, tag] { log.emplace_back(e.now(), tag); }));
          break;
        }
        case 2: {  // periodic that cancels itself after a few firings
          const Cycles period = 1 + static_cast<Cycles>(next() % 700);
          const int tag = -i;
          struct Periodic {
            EventId id = kInvalidEventId;
            int count = 0;
          };
          auto st = std::make_shared<Periodic>();
          st->id = e.schedule_periodic(period, [&log, &e, tag, st] {
            log.emplace_back(e.now(), tag);
            if (++st->count == 4) e.cancel(st->id);
          });
          break;
        }
        case 3:  // cancel a random live event
          if (!live.empty()) e.cancel(live[next() % live.size()]);
          break;
        case 4:  // partial drain, then keep scheduling
          e.run_until(e.now() + static_cast<Cycles>(next() % 2000));
          break;
      }
    }
    e.run_until(Cycles{1} << 35);
    log.emplace_back(e.now(), static_cast<int>(e.dispatched_events()));
    return log;
  };
  const auto heap_log = run_ops(EngineBackend::kHeap);
  const auto wheel_log = run_ops(EngineBackend::kWheel);
  ASSERT_FALSE(heap_log.empty());
  EXPECT_EQ(heap_log, wheel_log);
}

}  // namespace
}  // namespace nfv::sim
