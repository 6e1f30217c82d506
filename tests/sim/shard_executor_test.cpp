// ShardExecutor: the phase barrier under the sharded simulation engine
// (DESIGN.md §14). The epochs it separates end one cycle before their
// horizon; shard_determinism_test's pinned digests cover that boundary.

#include "sim/shard_barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace nfv::sim {
namespace {

TEST(ShardExecutor, WorkerCountClampedToLanes) {
  ShardExecutor one(4, 0);
  EXPECT_EQ(one.worker_count(), 1u);
  ShardExecutor capped(2, 8);
  EXPECT_EQ(capped.worker_count(), 2u);
  EXPECT_EQ(capped.lane_count(), 2u);
  ShardExecutor exact(4, 3);
  EXPECT_EQ(exact.worker_count(), 3u);
  // All must run a phase cleanly.
  std::atomic<int> hits{0};
  one.run_phase([&](std::size_t) { hits.fetch_add(1); });
  capped.run_phase([&](std::size_t) { hits.fetch_add(1); });
  exact.run_phase([&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4 + 2 + 4);
}

TEST(ShardExecutor, SingleWorkerRunsInlineOnCallerThread) {
  ShardExecutor exec(3, 1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(3);
  exec.run_phase([&](std::size_t lane) { ran[lane] = std::this_thread::get_id(); });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ShardExecutor, EveryLaneRunsExactlyOncePerPhase) {
  constexpr std::size_t kLanes = 7;
  ShardExecutor exec(kLanes, 4);
  std::vector<std::atomic<int>> counts(kLanes);
  for (int phase = 0; phase < 50; ++phase) {
    exec.run_phase([&](std::size_t lane) { counts[lane].fetch_add(1); });
  }
  for (const auto& c : counts) EXPECT_EQ(c.load(), 50);
}

TEST(ShardExecutor, ReturnIsABarrier) {
  // When run_phase returns, every lane's side effects must be visible to the
  // caller — sum a plain (non-atomic) per-lane array across many phases.
  constexpr std::size_t kLanes = 8;
  ShardExecutor exec(kLanes, 4);
  std::vector<std::uint64_t> cells(kLanes, 0);
  std::uint64_t expected = 0;
  for (int phase = 0; phase < 200; ++phase) {
    exec.run_phase([&](std::size_t lane) { cells[lane] += lane + 1; });
    expected += kLanes * (kLanes + 1) / 2;
    std::uint64_t sum = 0;
    for (const auto v : cells) sum += v;
    ASSERT_EQ(sum, expected) << "phase " << phase;
  }
}

TEST(ShardExecutor, LaneToWorkerAssignmentIsStatic) {
  // Lane i always runs on worker i % workers — record the executing thread
  // per lane across phases and require it never to change. Static
  // assignment is what keeps any per-lane thread-local state coherent.
  constexpr std::size_t kLanes = 6;
  ShardExecutor exec(kLanes, 3);
  std::vector<std::thread::id> first(kLanes);
  exec.run_phase([&](std::size_t lane) { first[lane] = std::this_thread::get_id(); });
  for (int phase = 0; phase < 20; ++phase) {
    std::vector<std::thread::id> now(kLanes);
    exec.run_phase([&](std::size_t lane) { now[lane] = std::this_thread::get_id(); });
    EXPECT_EQ(now, first) << "phase " << phase;
  }
  // Lanes congruent mod workers share a thread; others do not.
  EXPECT_EQ(first[0], first[3]);
  EXPECT_EQ(first[1], first[4]);
  EXPECT_EQ(first[2], first[5]);
  EXPECT_NE(first[0], first[1]);
}

}  // namespace
}  // namespace nfv::sim
