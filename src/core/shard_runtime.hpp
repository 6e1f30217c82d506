// Lane runtime (DESIGN.md §14): the simulated cores, grouped into event
// lanes.
//
// A lane is a group of simulated cores that share one engine plus one
// replica of everything the packet path touches — mbuf pool, flow table,
// Manager, observability, block device. Simulation always drives a
// ShardRuntime, in one of two decompositions:
//
//  * shards == 0: one lane holding every core. Nothing crosses a lane, so
//    its Manager has no ShardLink, no executor or mailboxes are built, and
//    run_until is one inclusive Engine::run_until.
//  * shards == N >= 1: one lane per core, advanced in lock-step epochs of
//    length mgr::kCrossLaneLatency. Within an epoch lanes run concurrently on
//    worker threads and share nothing; the only communication is ShardMsg
//    traffic through per-(src,dst) mailboxes, plain vectors that only the
//    source lane appends to while lanes run, and because every message is
//    stamped send_time + latency, nothing posted during an epoch can be
//    due before the epoch ends. At the epoch barrier each destination lane
//    drains its mailboxes in fixed source-lane order, FIFO within each,
//    and schedules one ordinary engine event per run of consecutively
//    drained messages due at the same instant — so the
//    *decomposition* (one lane per core) is fixed by the topology and the
//    worker count only decides how many lanes run at once. That is the
//    determinism argument in one line: lane event sequences do not depend
//    on how many workers run them, hence reports, traces and counters are
//    byte-identical at any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "flow/flow_table.hpp"
#include "flow/service_chain.hpp"
#include "io/block_device.hpp"
#include "mgr/manager.hpp"
#include "mgr/shard_link.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "pktio/mempool.hpp"
#include "sim/engine.hpp"
#include "sim/shard_barrier.hpp"

namespace nfv::core {

/// One event lane: a group of cores and their private slice of the
/// platform. Everything in here is touched only by the worker thread
/// driving the lane (or by the main thread between runs).
struct Lane {
  /// `link` is null for the one lane of the shards == 0 decomposition.
  Lane(std::uint32_t lane_id, const mgr::ManagerConfig& mgr_cfg,
       const flow::FlowTable::Config& flow_cfg, std::uint32_t mempool_capacity,
       flow::ChainRegistry& chains, mgr::ShardLink* link);

  /// The lane's block device, built on first use.
  io::BlockDevice& disk();

  std::uint32_t id;
  /// Everything pinned to the lane's cores schedules against this engine
  /// and never touches another lane's, so lanes are data-race free by
  /// construction.
  sim::Engine engine;
  pktio::MbufPool pool;
  flow::FlowTable flows;
  obs::Observability obs;
  std::unique_ptr<mgr::Manager> manager;
  /// Per-lane trace buffer (one lane per core only); merged into the
  /// user's recorder and emptied after each run (sorted by timestamp, then
  /// lane, then intra-lane order).
  std::unique_ptr<obs::TraceRecorder> trace;
  /// The user recorder's id for each string `trace` has interned.
  std::vector<obs::StrId> trace_ids;
  std::unique_ptr<io::BlockDevice> block_device;
  /// In-flight cross-lane messages, a store of runs: the drain copies each
  /// maximal run of consecutively drained messages that share a delivery
  /// time into a free slot, the run's one delivery event captures the slot
  /// index, and the slot goes back on `free_slots` when the event fires.
  /// Slots and their vectors are reused, so a lane in steady state never
  /// allocates for a message.
  std::vector<std::vector<mgr::ShardMsg>> pending;
  std::vector<std::uint32_t> free_slots;
  /// Messages delivered beyond the first of their run. The engine counts
  /// one dispatch per run; dispatched_events() adds these, so that every
  /// delivered message counts as one event.
  std::uint64_t run_followers = 0;

  /// Events dispatched on this lane, each delivered message counted as
  /// one: what the report's `dispatched_events` and the lane's
  /// `sim.dispatched_events` probe read.
  [[nodiscard]] std::uint64_t dispatched_events() const {
    return engine.dispatched_events() + run_followers;
  }
};

/// Owns the lanes, the mailbox matrix and the worker pool, and implements
/// the epoch loop. Lane 0 exists from construction.
class ShardRuntime final : public mgr::ShardLink {
 public:
  /// `shards` is 0 for one lane holding every core, else the requested
  /// worker count; the effective count is min(shards, lanes) at the first
  /// run. `mgr_cfg` must outlive it.
  ShardRuntime(std::uint32_t shards, const mgr::ManagerConfig& mgr_cfg,
               const flow::FlowTable::Config& flow_cfg,
               std::uint32_t mempool_capacity, flow::ChainRegistry& chains);
  ~ShardRuntime() override;

  /// Place the next core and return its lane: lane 0 when shards == 0,
  /// else a lane of its own (the first core takes lane 0). Topology-build
  /// time only.
  Lane& add_core();
  [[nodiscard]] Lane& lane_of_core(std::size_t core) {
    return *lanes_[core_lane_[core]];
  }

  [[nodiscard]] Lane& lane(std::size_t i) { return *lanes_[i]; }
  [[nodiscard]] const std::vector<std::unique_ptr<Lane>>& lanes() const {
    return lanes_;
  }
  [[nodiscard]] Cycles now() const { return now_; }
  /// Sum of all lanes' dispatched-event counts (Lane::dispatched_events).
  [[nodiscard]] std::uint64_t dispatched_events() const;

  // mgr::ShardLink — called from lane worker threads during an epoch.
  void post(std::uint32_t src, std::uint32_t dst,
            const mgr::ShardMsg& msg) override;
  [[nodiscard]] std::uint32_t lane_count() const override {
    return static_cast<std::uint32_t>(lanes_.size());
  }

  /// Advance every lane to `target`. With one lane per core this runs
  /// lookahead epochs, two barriers each: all lanes run, then all lanes
  /// drain — a message posted while lane A runs epoch k must not be
  /// converted into an engine event while lane B is still *running* epoch
  /// k, or B's event sequence numbers (and with them same-timestamp
  /// tie-breaks) would depend on worker timing.
  void run_until(Cycles target);

 private:
  /// Per-(src,dst) mailbox: a FIFO that never blocks and never drops. The
  /// source lane appends while lanes run; the destination lane drains and
  /// clears it at the barrier. The two touch it in different phases, and
  /// the barrier between them is the synchronisation. Cache-line aligned so
  /// lanes appending to neighbouring mailboxes do not share a line.
  struct alignas(64) Mailbox {
    std::vector<mgr::ShardMsg> msgs;
  };

  Lane& add_lane();
  void drain_lane(std::size_t dst);

  std::uint32_t shards_;
  // Knobs for added lanes; the caller's Manager config, so flips reach them.
  const mgr::ManagerConfig& mgr_cfg_;
  flow::FlowTable::Config flow_cfg_;
  std::uint32_t mempool_capacity_;
  flow::ChainRegistry& chains_;

  Cycles now_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::uint32_t> core_lane_;  ///< Lane index per core.
  std::vector<Mailbox> boxes_;  ///< [src * n + dst].
  // Declared last: its destructor joins the workers before anything the
  // phase callbacks touch is torn down.
  std::unique_ptr<sim::ShardExecutor> exec_;
};

}  // namespace nfv::core
