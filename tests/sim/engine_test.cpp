#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

namespace nfv::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(5, [&] { order.push_back(1); });
  e.schedule_at(5, [&] { order.push_back(2); });
  e.schedule_at(5, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  Cycles fired_at = -1;
  e.schedule_at(100, [&] {
    e.schedule_after(50, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine e;
  Cycles fired_at = -1;
  e.schedule_at(10, [&] {
    e.schedule_after(-5, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(fired_at, 10);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
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

TEST(Engine, RunUntilAdvancesClockWhenIdle) {
  Engine e;
  e.run_until(1000);
  EXPECT_EQ(e.now(), 1000);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelIsIdempotent) {
  Engine e;
  const EventId id = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
  EXPECT_FALSE(e.cancel(kInvalidEventId));
  EXPECT_FALSE(e.cancel(999999));  // never issued
  e.run();
}

TEST(Engine, CancelFromWithinEarlierEvent) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(20, [&] { fired = true; });
  e.schedule_at(10, [&] { e.cancel(id); });
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, PeriodicFiresRepeatedly) {
  Engine e;
  int count = 0;
  e.schedule_periodic(10, [&] { ++count; });
  e.run_until(100);
  EXPECT_EQ(count, 10);  // t=10,20,...,100
}

TEST(Engine, PeriodicCancelStops) {
  Engine e;
  int count = 0;
  const EventId id = e.schedule_periodic(10, [&] { ++count; });
  e.schedule_at(35, [&] { e.cancel(id); });
  e.run_until(200);
  EXPECT_EQ(count, 3);  // t=10,20,30
}

TEST(Engine, PeriodicCanCancelItself) {
  Engine e;
  int count = 0;
  EventId id = kInvalidEventId;
  id = e.schedule_periodic(10, [&] {
    if (++count == 5) e.cancel(id);
  });
  e.run_until(1000);
  EXPECT_EQ(count, 5);
}

TEST(Engine, DispatchedEventsCounts) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.dispatched_events(), 5u);
}

TEST(Engine, EventsScheduledDuringRunAreExecuted) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.schedule_after(1, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99);
}

TEST(Engine, SameCycleInsertionDuringDispatchFires) {
  // A callback scheduling at the *current* cycle must see the new event run
  // before the clock moves on, after every event already due then.
  Engine e;
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

TEST(Engine, CancelAfterFireIsNoOp) {
  // Regression: cancelling an already-fired one-shot used to decrement
  // pending_events (underflowing the gauge) and leak heap bookkeeping.
  Engine e;
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

TEST(Engine, StaleIdCannotCancelReusedSlot) {
  // After a one-shot fires, its slot is recycled for new events. A stale
  // EventId (same slot, older generation) must not cancel the new tenant.
  Engine e;
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

TEST(Engine, CancelledSlotIsRecycledSafely) {
  // Cancelling an armed event frees its slot immediately; a stale cancel of
  // the same id after the slot is re-armed must be refused.
  Engine e;
  const EventId a = e.schedule_at(50, [] { FAIL() << "cancelled event ran"; });
  EXPECT_TRUE(e.cancel(a));
  EXPECT_EQ(e.pending_events(), 0u);
  int fired = 0;
  e.schedule_at(60, [&] { ++fired; });  // reuses a's slot
  EXPECT_FALSE(e.cancel(a));
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, OneShotSelfCancelDuringDispatchIsNoOp) {
  // A callback cancelling its own (already-firing) id must get `false` and
  // leave the engine consistent.
  Engine e;
  EventId id = kInvalidEventId;
  bool self_cancel_result = true;
  id = e.schedule_at(10, [&] { self_cancel_result = e.cancel(id); });
  e.run();
  EXPECT_FALSE(self_cancel_result);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, ManyCancelledEventsDoNotAccumulateState) {
  // With O(1) cancellation the slot must be reusable at once: heavy
  // schedule/cancel churn keeps pending_events exact.
  Engine e;
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

TEST(Engine, DeterministicUnderChurn) {
  // Two engines fed the identical schedule/cancel pattern must observe the
  // identical dispatch sequence — the determinism contract every simulation
  // above relies on.
  const auto run_once = [] {
    Engine e;
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

TEST(Engine, HeavyLoadOrderingProperty) {
  // Many events at random times must still execute in nondecreasing order.
  Engine e;
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

TEST(Engine, EveryPendingCountFiresInWhenSeqOrder) {
  // Every queue size from 1 to 64 pending events, so most heaps end in a
  // partial last level that each pop sifts through.
  for (int n = 1; n <= 64; ++n) {
    Engine e;
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

TEST(Engine, FarFutureEventsFireInOrder) {
  // Timestamps up to 2^56 cycles fill the high word of the packed 128-bit
  // heap key; they must still order by `when` first, then by seq.
  Engine e;
  std::vector<Cycles> times;
  for (int i = 0; i < 57; ++i) {
    e.schedule_at(Cycles{1} << i, [&times, &e] { times.push_back(e.now()); });
  }
  e.run();
  ASSERT_EQ(times.size(), 57u);
  for (int i = 0; i < 57; ++i) EXPECT_EQ(times[i], Cycles{1} << i);
}

TEST(Engine, FarFutureCancelIsExact) {
  // Cancelling far-future events must be exact: pending_events drops at
  // once, and the stale heap keys fire nothing when they surface.
  Engine e;
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

TEST(Engine, PeriodicWithLongPeriodCrossesLevels) {
  // A period far above the gaps between other events: each re-arm is pushed
  // at now + period with a fresh seq and must surface exactly on time.
  Engine e;
  std::vector<Cycles> times;
  e.schedule_periodic(1000, [&] { times.push_back(e.now()); });
  e.run_until(10'000);
  ASSERT_EQ(times.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(times[i], Cycles{1000} * (i + 1));
}

// Reference model of the dispatch contract for the differential test
// below: a std::set ordered by (when, seq) under one global seq counter. A
// periodic re-arm takes a fresh seq once its callback has returned, and
// cancel erases the entry. Deliberately naive, so it shares nothing with
// Engine but the contract. Events are addressed by handle, an index into
// `events`.
struct RefQueue {
  using Entry = std::tuple<Cycles, std::uint64_t, std::size_t>;
  struct Event {
    int tag;
    Cycles period;  ///< 0 = one-shot
    int fired = 0;
    std::optional<Entry> armed;
  };

  std::set<Entry> queue;
  std::vector<Event> events;
  Cycles now = 0;
  std::uint64_t next_seq = 1;
  std::uint64_t dispatched = 0;

  std::size_t add(Cycles when, int tag, Cycles period = 0) {
    events.push_back({tag, period, 0, std::nullopt});
    arm(events.size() - 1, when);
    return events.size() - 1;
  }
  void arm(std::size_t handle, Cycles when) {
    const Entry entry{when, next_seq++, handle};
    queue.insert(entry);
    events[handle].armed = entry;
  }
  bool cancel(std::size_t handle) {
    Event& ev = events[handle];
    if (!ev.armed) return false;
    queue.erase(*ev.armed);
    ev.armed.reset();
    return true;
  }
  /// `on_fire` plays the callback: it logs, may schedule, and says whether
  /// a periodic re-arms.
  void run_until(Cycles deadline,
                 const std::function<bool(std::size_t)>& on_fire) {
    while (!queue.empty() && std::get<0>(*queue.begin()) <= deadline) {
      const auto [when, seq, handle] = *queue.begin();
      queue.erase(queue.begin());
      events[handle].armed.reset();
      now = when;
      ++dispatched;
      if (on_fire(handle)) arm(handle, now + events[handle].period);
    }
    now = std::max(now, deadline);
  }
};

// Differential contract: a randomized schedule/cancel/periodic workload —
// one-shots near and far (up to 2^34 cycles ahead), periodics that cancel
// themselves on their fourth firing, random cancels of one-shots and
// periodics, one-shots that schedule a same-or-next-cycle child while
// dispatching, and partial run_until drains — must produce the reference
// queue's dispatch log exactly: same tags at the same times in the same
// order, with every cancel result, pending count and clock agreeing.
TEST(Engine, MatchesReferenceQueueUnderChurn) {
  using Log = std::vector<std::pair<Cycles, int>>;
  constexpr int kChildTag = 1 << 20;
  constexpr int kFirings = 4;
  // One-shot tags divisible by 4 spawn one child, `tag % 3` cycles later.
  const auto spawns = [](int tag) {
    return tag >= 0 && tag < kChildTag && tag % 4 == 0;
  };

  Engine e;
  RefQueue ref;
  Log got;
  Log want;
  std::vector<std::pair<EventId, std::size_t>> live;  // (engine id, handle)

  std::function<void(int)> fire_one_shot = [&](int tag) {
    got.emplace_back(e.now(), tag);
    if (spawns(tag)) {
      e.schedule_after(tag % 3, [&fire_one_shot, tag] {
        fire_one_shot(kChildTag + tag);
      });
    }
  };
  const auto ref_fire = [&](std::size_t handle) {
    RefQueue::Event& ev = ref.events[handle];
    want.emplace_back(ref.now, ev.tag);
    if (ev.period > 0) return ++ev.fired < kFirings;
    if (spawns(ev.tag)) ref.add(ref.now + ev.tag % 3, kChildTag + ev.tag);
    return false;
  };

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
        const EventId id =
            e.schedule_at(t, [&fire_one_shot, i] { fire_one_shot(i); });
        live.emplace_back(id, ref.add(t, i));
        break;
      }
      case 2: {  // periodic that cancels itself on its fourth firing
        const Cycles period = 1 + static_cast<Cycles>(next() % 700);
        const int tag = -(i + 1);
        struct Periodic {
          EventId id = kInvalidEventId;
          int count = 0;
        };
        auto st = std::make_shared<Periodic>();
        st->id = e.schedule_periodic(period, [&got, &e, tag, st] {
          got.emplace_back(e.now(), tag);
          if (++st->count == kFirings) e.cancel(st->id);
        });
        live.emplace_back(st->id, ref.add(ref.now + period, tag, period));
        break;
      }
      case 3:  // cancel a random live event (it may have fired already)
        if (!live.empty()) {
          const auto [id, handle] = live[next() % live.size()];
          ASSERT_EQ(e.cancel(id), ref.cancel(handle)) << "op " << i;
        }
        break;
      case 4: {  // partial drain, then keep scheduling
        const Cycles deadline = e.now() + static_cast<Cycles>(next() % 2000);
        e.run_until(deadline);
        ref.run_until(deadline, ref_fire);
        ASSERT_EQ(e.now(), ref.now) << "op " << i;
        break;
      }
    }
    ASSERT_EQ(e.pending_events(), ref.queue.size()) << "op " << i;
  }
  e.run_until(Cycles{1} << 35);
  ref.run_until(Cycles{1} << 35, ref_fire);
  EXPECT_EQ(e.now(), ref.now);
  EXPECT_EQ(e.dispatched_events(), ref.dispatched);
  EXPECT_EQ(e.pending_events(), 0u);
  ASSERT_GT(got.size(), 1000u);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace nfv::sim
