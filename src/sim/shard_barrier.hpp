// Phase executor for the sharded simulation engine.
//
// A sharded Simulation advances in conservative-lookahead epochs: every lane
// runs its own event heap up to the epoch horizon, a barrier, then every lane
// drains the cross-lane mailboxes that other lanes filled during the epoch,
// another barrier. ShardExecutor owns the worker threads (they persist across
// epochs — a barrier costs a fence, not a thread spawn) and runs one such
// phase at a time: run_phase(fn) invokes fn(lane) for every lane, statically
// assigning lane i to worker i % workers, and returns only when all workers
// have finished — that return IS the barrier.
//
// Determinism: lanes never share mutable state inside a phase (each
// per-(src,dst) mailbox has one writer in the run phase and one reader in
// the drain phase), so the result of a phase is independent of how lanes
// interleave across workers. The generation/done counters use
// release/acquire RMW chains, which give every worker's phase-N writes a
// happens-before edge into every other worker's phase-N+1 reads — this is
// what makes the mailbox vectors and engine heaps race-free under TSan.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace nfv::sim {

class ShardExecutor {
 public:
  /// `lanes` is the number of lane slots fn() will be called with; `workers`
  /// is clamped to [1, lanes]. With one worker no threads are spawned and
  /// run_phase executes inline — the shards=1 path is the single-threaded
  /// engine with an extra function call, nothing more.
  ShardExecutor(std::size_t lanes, std::size_t workers);
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// Run fn(lane) for lane = 0..lanes-1 across the workers, then wait for
  /// all of them: callers may assume every lane finished when this returns.
  void run_phase(const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t worker_count() const { return workers_; }
  [[nodiscard]] std::size_t lane_count() const { return lanes_; }

 private:
  void worker_loop(std::size_t worker);
  void run_lanes(std::size_t worker);

  std::size_t lanes_;
  std::size_t workers_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<bool> stop_{false};
  /// Bumped (release) once per phase; workers acquire-spin on it.
  alignas(64) std::atomic<std::uint64_t> generation_{0};
  /// Each worker release-increments after finishing its lanes; the phase is
  /// over when done_ reaches generation_ * workers_.
  alignas(64) std::atomic<std::uint64_t> done_{0};
  std::vector<std::thread> threads_;
};

}  // namespace nfv::sim
