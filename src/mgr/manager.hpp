// The NF Manager (§3.1, Fig. 2).
//
// In OpenNetVM/NFVnice the manager's Rx, Tx, Wakeup and Monitor threads run
// on dedicated cores and ferry packet descriptors between the NIC and NF
// rings over shared memory. Here each thread is an event-driven actor:
//
//  * Rx path   — ingress(): one flow-table lookup and chain-entry verdict
//                per source burst (selective early discard for throttled
//                chains), enqueue to the first NF with ECN marking and
//                watermark feedback.
//  * Tx path   — per-NF drain events: move runs of processed packets to the
//                next NF in the chain (zero-copy descriptor hand-off) or out
//                the wire; detect overload from the enqueue return value
//                (§3.5).
//  * Wakeup    — periodic scan that advances the backpressure state machine,
//                sets/clears relinquish flags, and posts semaphores of NFs
//                with pending work (§3.2 "Activating NFs", §3.5).
//  * Monitor   — a 1 ms tick that drives the share allocator's load
//                estimate (load = λ·s, s the median sampled service time)
//                and, every 10th tick, its cgroup cpu.shares update.
// The controllers the Manager drives own their state, and each is called
// directly at its cadence: the share allocator with its SLO and push-aside
// multipliers, the admission gate and the lifecycle watchdog.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bp/admission.hpp"
#include "bp/backpressure.hpp"
#include "bp/ecn.hpp"
#include "common/histogram.hpp"
#include "flow/flow_table.hpp"
#include "flow/service_chain.hpp"
#include "mgr/lifecycle.hpp"
#include "mgr/push_aside.hpp"
#include "mgr/shard_link.hpp"
#include "mgr/share_allocator.hpp"
#include "mgr/slo_controller.hpp"
#include "nf/nf_task.hpp"
#include "obs/latency_estimator.hpp"
#include "obs/observability.hpp"
#include "pktio/flow_key.hpp"
#include "pktio/mempool.hpp"
#include "sched/core.hpp"
#include "sim/engine.hpp"

namespace nfv::mgr {

struct ManagerConfig {
  // Feature toggles (the paper's "CGroup", "BKPR" and full-NFVnice bars).
  bool enable_cgroups = true;
  bool enable_backpressure = true;
  bool enable_ecn = true;

  /// Wakeup coalescing (§3.2: the activation policy "considers the number
  /// of packets pending in its queue"). The Wakeup thread posts a blocked
  /// NF's semaphore only once it has at least `wake_min_pending` packets
  /// queued — unless the head packet has already waited
  /// `wake_age_threshold` cycles (bounds added latency; 0 disables the
  /// age escape). Defaults preserve wake-on-any-pending behaviour.
  std::uint32_t wake_min_pending = 1;
  Cycles wake_age_threshold = 0;
  /// Monitor ticks (1 ms each) per cgroup cpu.shares update: every 10 ms.
  std::uint32_t share_updates_every = 10;

  /// Latency-SLO controller (DESIGN.md §16, mgr/slo_controller.hpp). The
  /// tail telemetry fed at egress is always on; boosts act through the
  /// cpu.shares writes, so they require enable_cgroups.
  struct SloConfig {
    /// Run the feedback controller. Telemetry and violation accounting
    /// only need a chain target; they ignore this flag (so a rate-cost
    /// fair run can still report its SLO violations for comparison).
    bool enabled = false;
  };
  SloConfig slo;

  /// PAM-style push-aside (DESIGN.md §17, mgr/push_aside.hpp): a pressured
  /// NF borrows share from lower-priority NFs on its core.
  struct PushAsideConfig {
    bool enabled = false;
  };
  PushAsideConfig push_aside;

  /// Ingress admission gate tuning (DESIGN.md §17). The gate itself is
  /// armed by registering flow classes (set_chain_class / the `class`
  /// config directive); without classes no admission code runs.
  bp::AdmissionConfig admission;

  bp::BpConfig backpressure;
  bp::EcnMarker::Config ecn;
  /// NUMA node whose memory the NIC DMAs packets into.
  int nic_numa_node = 0;
};

/// Counters the evaluation tables are built from. Packets placed on the RX
/// ring are counted once, as the NF's own arrivals (nf::NfCounters).
struct NfManagerCounters {
  /// Packets destined for this NF, whether or not they were admitted —
  /// including entry-throttle discards for a chain head and RX-full drops.
  /// This is the λ_i in load(i) = λ_i·s_i: using the *offered* rate rather
  /// than the admitted rate keeps the share computation from entering a
  /// drop-more→weigh-less→drop-more spiral under backpressure.
  std::uint64_t offered = 0;
  std::uint64_t rx_full_drops = 0;  ///< Dropped: RX ring full.
  /// Of rx_full_drops, packets that had already been processed by at least
  /// one upstream NF — the paper's "wasted work" (Tables 3/5/6).
  std::uint64_t wasted_drops_here = 0;
  /// Packets processed by THIS NF that were later dropped at its immediate
  /// downstream queue (how Table 3 attributes wasted work to NF1/NF2).
  std::uint64_t downstream_drops = 0;
};

/// Per-chain counters. The admission gate's discards (DESIGN.md §17) are
/// counted in its class stats: wire_ingress == entry_admitted +
/// entry_throttle_drops + admission discards (+ unmatched).
struct ChainCounters {
  std::uint64_t entry_admitted = 0;
  std::uint64_t entry_throttle_drops = 0;  ///< Selective early discard.
  std::uint64_t egress_packets = 0;
  std::uint64_t egress_bytes = 0;
  /// Dead hops routed around under DeadNfPolicy::kBypass (hop-skips, not
  /// packets: a packet skipping two dead NFs counts twice).
  std::uint64_t bypassed_hops = 0;
};

/// An empty per-chain end-to-end latency histogram (wire arrival -> wire
/// egress, in cycles), queriable at any quantile; the latency bench
/// contrasts Default vs NFVnice tail latency under overload. Every lane's
/// histograms and their merge share this one bucketing, so merged
/// quantiles are exact.
inline Histogram chain_latency_histogram() { return Histogram(1ULL << 40, 8); }

struct FlowCounters {
  std::uint64_t egress_packets = 0;
  std::uint64_t egress_bytes = 0;
  std::uint64_t ecn_marked = 0;
};

class Manager {
 public:
  using EgressSink = std::function<void(const pktio::Mbuf&)>;

  /// `obs` (optional) is the platform observability context: the manager
  /// registers probes of its per-NF/per-chain counters there, forwards it
  /// to libnf and the backpressure manager, and emits mgr trace events
  /// (drops, ECN marks, cpu.shares writes) when a recorder is attached.
  Manager(sim::Engine& engine, pktio::MbufPool& pool, flow::FlowTable& flows,
          flow::ChainRegistry& chains, ManagerConfig config = {},
          obs::Observability* obs = nullptr);

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Register an NF running on `core` under `id` (the global id space the
  /// chain registry uses). Wires libnf's callbacks to this manager.
  void register_nf(flow::NfId id, nf::NfTask* task, sched::Core* core);

  // -- sharded simulation (DESIGN.md §14) -----------------------------------
  // In a sharded Simulation every lane runs its own Manager replica over
  // the *global* NfId space: NFs on this lane are registered with their
  // task, NFs on other lanes as remote placeholders (task == nullptr). All
  // scan loops skip placeholders; the packet path forwards to them through
  // the shard link.

  /// Wire this replica to the lane runtime. `lane` is this manager's lane
  /// id; every message it posts is stamped now + kCrossLaneLatency.
  void set_shard_link(ShardLink* link, std::uint32_t lane);

  /// Register a placeholder for an NF owned by lane `owner_lane`. `name`
  /// feeds backpressure observability (mirrored states are queriable).
  void register_remote_nf(flow::NfId id, std::string name,
                          std::uint32_t owner_lane);

  /// Deliver a run of `n` cross-lane messages due now, in order. Called
  /// from the one engine event the lane runtime scheduled for the run while
  /// draining this lane's mailboxes. Each maximal sub-run of packets bound
  /// for one NF takes its descriptors in one alloc_burst and enters the
  /// NF's RX ring in one enqueue_to_nf call, which is equivalent to one
  /// call per packet; near the pool's cap it is applied one message at a
  /// time, as every other kind is.
  void apply_shard_run(const ShardMsg* msgs, std::size_t n);

  /// Arm the Wakeup and Monitor threads, hand the controllers the lane's
  /// NFs and, given the per-chain dead-NF policy table `lifecycle` (which
  /// must outlive the Manager), arm the watchdog (DESIGN.md §11). Call once
  /// all NFs and chains are registered, before traffic starts.
  void start(const std::vector<fault::DeadNfPolicy>* lifecycle = nullptr);

  /// Flip the control-plane features at runtime (they are consulted on
  /// every packet). Used by config files and A/B experiments.
  void set_features(bool cgroups, bool backpressure, bool ecn) {
    config_.enable_cgroups = cgroups;
    config_.enable_backpressure = backpressure;
    config_.enable_ecn = ecn;
  }
  [[nodiscard]] const ManagerConfig& config() const { return config_; }

  /// Rx-thread entry, the only way a packet enters the lane: `n` packets of
  /// flow `key` arrive from the wire at `arrivals[0..n)` (ascending,
  /// <= now). The Rx path owns the descriptors. The flow lookup and the
  /// entry verdict run once per burst; a shed burst is accounted in full
  /// without taking a descriptor; an admitted one takes its `n` in one
  /// alloc_burst. `stamp(mbuf, k)` writes the source's fields into the
  /// packet that got the k-th descriptor. Near the pool's cap the burst is
  /// taken one packet at a time, as a NIC allocates, and a packet that
  /// finds the pool empty is lost at the wire. Returns how many were lost.
  /// Not reentrant: an egress sink must not start an ingress.
  template <typename Stamp>
  std::size_t ingress(const pktio::FlowKey& key, const Cycles* arrivals,
                      std::size_t n, Stamp&& stamp) {
    if (n == 0) return 0;
    if (pool_.available() < n) {
      std::size_t got = 0;
      for (std::size_t i = 0; i < n; ++i) {
        pktio::Mbuf* pkt = pool_.alloc();
        if (pkt == nullptr) continue;
        stamp(*pkt, got++);
        if (const flow::FlowEntry* entry = rx_entry(key, &arrivals[i], 1)) {
          rx_admit(*entry, key, &pkt, &arrivals[i], 1);
        } else {
          pool_.free(pkt);
        }
      }
      return n - got;
    }
    const flow::FlowEntry* entry = rx_entry(key, arrivals, n);
    if (entry == nullptr) return 0;
    if (rx_burst_.size() < n) rx_burst_.resize(n);
    pool_.alloc_burst(rx_burst_.data(), static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i < n; ++i) stamp(*rx_burst_[i], i);
    rx_admit(*entry, key, rx_burst_.data(), arrivals, n);
    return 0;
  }

  /// Per-flow egress hook (TCP sources use it to observe deliveries and
  /// ECN marks). The packet is freed after the sink returns.
  void set_egress_sink(flow::FlowId flow, EgressSink sink);

  // -- accessors ------------------------------------------------------------
  [[nodiscard]] const NfManagerCounters& nf_counters(flow::NfId id) const {
    return records_[id].counters;
  }
  [[nodiscard]] const ChainCounters& chain_counters(flow::ChainId id) const;
  /// End-to-end latency histogram for a chain (empty until first egress).
  [[nodiscard]] const Histogram& chain_latency(flow::ChainId id) const;
  /// Fixed-window tail estimator for a chain (DESIGN.md §16); empty until
  /// the first egress on this replica (sharded: the last hop's lane).
  [[nodiscard]] const obs::LatencyEstimator& chain_tail(flow::ChainId id) const;

  // -- latency SLOs (DESIGN.md §16) -----------------------------------------
  /// Set a chain's p99 latency target in cycles (0 clears it); the first
  /// target arms the SLO controller. Telemetry and violation accounting
  /// follow the target; share boosts additionally need config().slo.enabled.
  /// Callable before or after start().
  void set_slo_target(flow::ChainId chain, Cycles target);
  [[nodiscard]] const ChainSloState& chain_slo(flow::ChainId id) const {
    return slo_ != nullptr ? slo_->state(id) : kNoSlo;
  }

  // -- overload control (DESIGN.md §17) --------------------------------------
  /// Register a chain's flow class and arm the ingress admission gate for
  /// it. Lazily creates the controller: runs that never call this pay one
  /// null test per ingress packet and nothing else. Call before start().
  void set_chain_class(flow::ChainId chain, bp::ClassSpec spec);
  /// The admission controller; nullptr until a class is registered.
  [[nodiscard]] const bp::AdmissionController* admission() const {
    return adm_.get();
  }
  /// Push-aside; nullptr unless config().push_aside.enabled.
  [[nodiscard]] const PushAside* push_aside() const { return push_.get(); }
  [[nodiscard]] const FlowCounters& flow_counters(flow::FlowId id) const;
  [[nodiscard]] bp::BackpressureManager* backpressure() { return bp_.get(); }
  [[nodiscard]] bp::EcnMarker* ecn() { return ecn_.get(); }
  [[nodiscard]] const sched::CGroupController& cgroups() const {
    return alloc_.cgroups();
  }
  /// Most recent load(i) estimate (dimensionless CPU demand fraction).
  [[nodiscard]] double nf_load(flow::NfId id) const { return alloc_.load(id); }
  [[nodiscard]] std::uint64_t wire_ingress() const { return wire_ingress_; }

  // -- fault & lifecycle (DESIGN.md §11) ------------------------------------
  /// The lifecycle watchdog, which a fault plan's NF faults act on; nullptr
  /// unless start() was given a policy table.
  [[nodiscard]] Lifecycle* lifecycle() { return life_.get(); }
  /// Zero without a lifecycle.
  [[nodiscard]] const fault::NfLifecycleStats& nf_lifecycle_stats(
      flow::NfId id) const {
    static const fault::NfLifecycleStats kNone{};
    return life_ != nullptr ? life_->stats(id) : kNone;
  }

 private:
  friend class Lifecycle;

  struct NfRecord {
    nf::NfTask* task = nullptr;  ///< nullptr = remote NF (another lane's).
    sched::Core* core = nullptr;
    std::string name;            ///< config name (local) or mirrored name.
    std::uint32_t owner_lane = 0;  ///< Lane running the NF when remote.
    NfManagerCounters counters;
    bool drain_scheduled = false;
  };

  /// Apply one cross-lane message: every non-packet kind, and a packet
  /// sub-run the pool cannot take whole (a packet that finds the pool
  /// empty is a shard-alloc drop).
  void apply_shard_msg(const ShardMsg& msg);

  // -- data plane: every hand-off moves a run of packets --------------------
  /// Entry half of ingress: count `n` arrivals of `key`, probe the flow
  /// table once and give the burst's verdict. nullptr = shed (unmatched or
  /// entry-throttled), fully accounted; else the flow's entry.
  const flow::FlowEntry* rx_entry(const pktio::FlowKey& key,
                                  const Cycles* arrivals, std::size_t n);
  /// Chain half of ingress: stamp the platform's fields into `pkts`, run
  /// the admission gate per packet and hand the admitted runs to the chain.
  void rx_admit(const flow::FlowEntry& entry, const pktio::FlowKey& key,
                pktio::Mbuf** pkts, const Cycles* arrivals, std::size_t n);
  /// Move a run — one chain, one chain_pos, enqueue_time stamped with the
  /// hand-off instant — to its next hop: the NF at chain_pos, or egress
  /// past the last hop. A run on a bypassing chain is one packet long.
  void hand_off(pktio::Mbuf** pkts, std::size_t n);
  void enqueue_to_nf(flow::NfId nf_id, pktio::Mbuf* const* pkts,
                     std::size_t n);
  [[nodiscard]] bool bypassing(flow::ChainId chain) const {
    return life_ != nullptr && life_->bypassing(chain);
  }
  /// First hop of `chain`, from the start()-built cache: one load instead
  /// of a bounds-checked registry walk per packet.
  [[nodiscard]] flow::NfId chain_head(flow::ChainId chain) const {
    return chain < chain_heads_.size() ? chain_heads_[chain]
                                       : chains_.get(chain).hops.front();
  }
  /// Grow records_ to cover `id` (sparse global-id registration).
  void ensure_record(flow::NfId id);
  /// Stamp msg.when = now + shard latency in place and post to `dst`'s
  /// mailbox, which keeps its own copy.
  void post_remote(std::uint32_t dst, ShardMsg& msg);
  /// Post to every lane but ours (bp / lifecycle / SLO control mirrors).
  void broadcast_remote(ShardMsg& msg);
  void schedule_drain(flow::NfId nf_id);
  void drain_tx(flow::NfId nf_id);
  /// Egress a run of one chain's packets; frees them.
  void egress(pktio::Mbuf* const* pkts, std::size_t n);
  void wakeup_scan();
  /// The Monitor: per tick the load estimate, SLO observe, admission and
  /// the push-aside latch; per share update the boost, push-aside, shares.
  void monitor_tick();
  /// Monitor-tick half of the admission gate: feed the shed ladders the
  /// first-hop queue occupancies and SLO-violating flags of every classed
  /// chain headed on this lane. Only called when adm_ exists.
  void admission_evaluate(Cycles now);

  sim::Engine& engine_;
  pktio::MbufPool& pool_;
  flow::FlowTable& flows_;
  flow::ChainRegistry& chains_;
  ManagerConfig config_;

  std::vector<NfRecord> records_;
  std::vector<ChainCounters> chain_counters_;
  std::vector<Histogram> chain_latency_;
  /// Per-chain tail estimators, fed at egress. Sized with chain_counters_
  /// at start(); lazily grown for out-of-registry ids.
  std::vector<obs::LatencyEstimator> chain_tail_;
  std::vector<FlowCounters> flow_counters_;
  std::vector<EgressSink> egress_sinks_;
  /// chain id -> first hop, frozen at start(). Hot paths that only need the
  /// chain head (entry-throttle accounting, ECN/egress flow-home routing)
  /// read this instead of walking the registry per packet.
  std::vector<flow::NfId> chain_heads_;

  std::unique_ptr<bp::BackpressureManager> bp_;
  std::unique_ptr<bp::EcnMarker> ecn_;
  /// Ingress admission gate (DESIGN.md §17); created lazily by the first
  /// set_chain_class, so legacy runs pay one null test per packet.
  std::unique_ptr<bp::AdmissionController> adm_;
  /// Scratch inputs for admission_evaluate (reused to avoid allocation).
  std::vector<bp::AdmissionInput> adm_inputs_;
  /// The Monitor's controllers. Only the allocator always exists.
  ShareAllocator alloc_;
  std::unique_ptr<SloController> slo_;
  std::unique_ptr<PushAside> push_;
  std::unique_ptr<Lifecycle> life_;

  std::uint64_t wire_ingress_ = 0;
  std::uint64_t unmatched_drops_ = 0;  ///< Arrivals no flow rule matched.
  std::uint64_t wakeup_scans_ = 0;
  /// Descriptors of the burst being taken in: an admitted source burst,
  /// or a cross-lane packet sub-run.
  std::vector<pktio::Mbuf*> rx_burst_;
  std::uint32_t monitor_ticks_ = 0;
  bool started_ = false;

  obs::Observability* obs_ = nullptr;

  // -- sharded simulation (null / zero in single-lane runs) -----------------
  ShardLink* shard_link_ = nullptr;
  std::uint32_t lane_id_ = 0;
  std::uint64_t shard_tx_msgs_ = 0;
  std::uint64_t shard_rx_msgs_ = 0;
  /// Cross-lane packets dropped because the destination pool was exhausted
  /// (the sharded analogue of an rx mempool alloc failure).
  std::uint64_t shard_alloc_drops_ = 0;
};

}  // namespace nfv::mgr
