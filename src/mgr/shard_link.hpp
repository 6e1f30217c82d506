// Cross-lane messages for the sharded simulation (DESIGN.md §14).
//
// When a Simulation is sharded, each event lane runs its own Manager
// replica; everything chatty (rx/tx rings, wakeups, monitoring, cgroup
// accounting) stays lane-local, and only the traffic that would cross a
// core boundary on a real host crosses a lane boundary here. This header
// defines that traffic: a small tagged-union message plus the posting
// interface the lane runtime implements over per-(src,dst) mailboxes.
//
// Every message carries its delivery time, stamped send_time +
// kCrossLaneLatency by the sender. The lane runtime drains mailboxes at
// epoch barriers and schedules one ordinary engine event at msg.when on the
// destination lane for each run of consecutively drained messages due at
// that instant, which hands the run to Manager::apply_shard_run; because
// the epoch length never exceeds the latency, msg.when is always at or
// beyond the next epoch's start and a drain can never schedule into a
// lane's past. Determinism: mailboxes are drained in fixed source-lane
// order and each mailbox is a FIFO, so the destination engine's sequence
// numbers — and with them all same-timestamp tie-breaks — are reproducible
// at any worker count.
#pragma once

#include <cstdint>

#include "bp/backpressure.hpp"
#include "common/time.hpp"
#include "flow/flow_table.hpp"
#include "flow/service_chain.hpp"
#include "pktio/mbuf.hpp"

namespace nfv::mgr {

/// Modelled cross-lane transit time, and so the lanes' lookahead (epoch
/// length): 10 us at 2.6 GHz, one manager wakeup period — comparable to a
/// loaded inter-core ring + wakeup hop.
inline constexpr Cycles kCrossLaneLatency = 26'000;

struct ShardMsg {
  enum class Kind : std::uint8_t {
    /// Packet handoff: the next hop of pkt's chain lives on another lane.
    /// The Mbuf travels by value — the sender frees its descriptor into its
    /// own pool, the receiver allocates from its pool and copies the fields
    /// in (keeping the receiver-pool index). `nf` is the destination NF.
    kPacket,
    /// Chain egress happened on a lane that is not the flow's home lane
    /// (the lane of the chain's first hop, which owns the flow-table entry
    /// and the per-flow counters). Routes the per-flow accounting and the
    /// egress sink callback home; `pkt` carries the departed packet by
    /// value for the sink (e.g. TCP ack clocking), `pkt.flow_id` names the
    /// flow in the home lane's numbering.
    kFlowEgress,
    /// An ECN mark was applied to `pkt.flow_id`'s packet on a non-home
    /// lane; bump the home lane's per-flow ecn_marked counter. (The mark
    /// itself travels inside the packet.)
    kEcnMark,
    /// Backpressure state transition on the NF's owning lane; mirrors into
    /// the destination lane's BackpressureManager via apply_remote_state.
    kBpState,
    /// Lifecycle broadcast: `nf` died / came back. Updates the remote
    /// lanes' dead_on_chain bookkeeping and remote-dead flags only — the
    /// matching Throttle pin/unpin arrives separately as kBpState.
    kNfDeath,
    kNfRevive,
    /// An rx-full drop on this lane was caused by `nf` (the upstream hop)
    /// on another lane; bump its downstream_drops counter at home.
    kDownstreamDrop,
    /// Tail-latency mirror (DESIGN.md §16): the lane owning a chain's last
    /// hop — where egress happens and the chain's LatencyEstimator lives —
    /// broadcasts the chain's current p99 every monitor tick while the SLO
    /// controller is enabled, so replicas whose NFs sit mid-chain can run
    /// the same boost decisions. `nf` carries the ChainId (the id spaces
    /// are both dense uint32 indices), `tail_p99` the p99 in cycles.
    kChainTail,
    /// Overload-control mirror (DESIGN.md §17): the lane owning a chain's
    /// last hop broadcasts the chain's SLO-violating flag whenever it
    /// flips, but only while the chain has an admission class — the
    /// chain's home lane, where the ingress gate runs, uses the violation
    /// clock as an engage trigger. `nf` carries the ChainId, `tail_p99`
    /// the flag (0/1). Zero messages when admission is unused, so legacy
    /// sharded runs stay byte-identical.
    kChainOverload,
  };

  Kind kind = Kind::kPacket;
  bp::ThrottleState bp_state = bp::ThrottleState::kClear;  ///< kBpState
  flow::NfId nf = 0;      ///< destination or subject NF (kind-dependent)
  Cycles when = 0;        ///< delivery time on the destination lane
  std::uint64_t tail_p99 = 0;  ///< kChainTail: chain p99 in cycles
  pktio::Mbuf pkt{};      ///< kPacket / kFlowEgress payload (by value)
};

/// Posting interface the lane runtime (core/shard_runtime) implements.
class ShardLink {
 public:
  virtual ~ShardLink() = default;

  /// Append a copy of `msg` to the (src,dst) mailbox. Called from the
  /// source lane's worker thread during its epoch; the destination drains
  /// it at the next barrier.
  virtual void post(std::uint32_t src, std::uint32_t dst,
                    const ShardMsg& msg) = 0;

  [[nodiscard]] virtual std::uint32_t lane_count() const = 0;
};

}  // namespace nfv::mgr
