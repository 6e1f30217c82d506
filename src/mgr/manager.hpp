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
//  * Monitor   — 1 ms load estimation (load = λ·s with s the median sampled
//                service time) and 10 ms cgroup cpu.shares updates
//                implementing Shares_i = Priority_i · load(i)/TotalLoad(m).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bp/admission.hpp"
#include "bp/backpressure.hpp"
#include "bp/ecn.hpp"
#include "common/histogram.hpp"
#include "fault/injector.hpp"
#include "fault/lifecycle.hpp"
#include "flow/flow_table.hpp"
#include "flow/service_chain.hpp"
#include "mgr/shard_link.hpp"
#include "nf/nf_task.hpp"
#include "obs/latency_estimator.hpp"
#include "obs/observability.hpp"
#include "pktio/flow_key.hpp"
#include "pktio/mempool.hpp"
#include "sched/cgroup.hpp"
#include "sched/core.hpp"
#include "sim/engine.hpp"

namespace nfv::mgr {

/// Cap on any chain's SLO share boost (DESIGN.md §16).
inline constexpr double kSloMaxBoost = 64.0;
/// Push-aside confiscation floor (DESIGN.md §17): a victim's share scale
/// never drops below this, so it keeps earning service-time samples and
/// can recover instantly.
inline constexpr double kPushVictimFloor = 0.125;

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

  /// Latency-SLO controller (DESIGN.md §16). The telemetry half — a
  /// per-chain fixed-window tail estimator fed at egress — is always on;
  /// the controller half reads each SLO chain's p99 slack once per share
  /// update and multiplies the shares of the NFs on violating chains,
  /// layered on the rate-cost-proportional weights (so with every boost
  /// at 1.0 the allocation is exactly the paper's). Requires
  /// enable_cgroups: boosts act through the same cpu.shares writes.
  struct SloConfig {
    /// Run the feedback controller. Telemetry and violation accounting
    /// only need a chain target; they ignore this flag (so a rate-cost
    /// fair run can still report its SLO violations for comparison).
    bool enabled = false;
  };
  SloConfig slo;

  /// PAM-style push-aside (DESIGN.md §17): when an NF's RX queue sits over
  /// the backpressure high watermark and a *lower-priority* NF shares its
  /// core, the Manager temporarily confiscates a share slice from the
  /// neighbor instead of letting the overload propagate upstream —
  /// multiplicative grab, additive give-back, and a floor so the victim
  /// never fully starves. The per-victim scale composes with the SLO boost
  /// inside update_shares() (both multiply the rate-cost weight), and like
  /// the boost it settles to exactly 1.0, so disabled runs are
  /// byte-identical (literal-1.0 discipline).
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
  /// Fault & lifecycle subsystem (DESIGN.md §11). Disabled by default: no
  /// watchdog events are scheduled, so unfaulted runs replay exactly.
  fault::LifecycleConfig lifecycle;
  /// NUMA node whose memory the NIC DMAs packets into.
  int nic_numa_node = 0;
};

/// Counters the evaluation tables are built from.
struct NfManagerCounters {
  /// Packets destined for this NF, whether or not they were admitted —
  /// including entry-throttle discards for a chain head and RX-full drops.
  /// This is the λ_i in load(i) = λ_i·s_i: using the *offered* rate rather
  /// than the admitted rate keeps the share computation from entering a
  /// drop-more→weigh-less→drop-more spiral under backpressure.
  std::uint64_t offered = 0;
  std::uint64_t rx_enqueued = 0;    ///< Successfully placed on the RX ring.
  std::uint64_t rx_full_drops = 0;  ///< Dropped: RX ring full.
  /// Of rx_full_drops, packets that had already been processed by at least
  /// one upstream NF — the paper's "wasted work" (Tables 3/5/6).
  std::uint64_t wasted_drops_here = 0;
  /// Packets processed by THIS NF that were later dropped at its immediate
  /// downstream queue (how Table 3 attributes wasted work to NF1/NF2).
  std::uint64_t downstream_drops = 0;
};

struct ChainCounters {
  std::uint64_t entry_admitted = 0;
  std::uint64_t entry_throttle_drops = 0;  ///< Selective early discard.
  /// Shed by the admission gate at ingress (DESIGN.md §17) — a distinct
  /// conservation sink, separate from both the entry-throttle discard and
  /// mgr.unmatched_drops: wire_ingress == entry_admitted +
  /// entry_throttle_drops + admission_discards (+ unmatched).
  std::uint64_t admission_discards = 0;
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

/// Per-chain SLO state (DESIGN.md §16). Lives on every lane replica; the
/// violation clock only advances on the lane owning the chain's last hop
/// (where the estimator records), so summing violation_cycles across lanes
/// never double-counts. `boost` is maintained wherever the chain has local
/// NFs, from the same (possibly mirrored) p99 sequence on every lane.
struct ChainSloState {
  Cycles target = 0;           ///< p99 target in cycles; 0 = no SLO
  double boost = 1.0;          ///< current share multiplier (>= 1.0)
  bool violating = false;      ///< p99 over target at the last evaluation
  Cycles violation_cycles = 0; ///< total time spent in violation
  Cycles last_p99 = 0;         ///< latest evaluated p99 (local or mirrored)
  /// Consecutive share updates spent under headroom*target (resets on any
  /// violation); gates decay, see kSloDecayAfter in manager.cpp.
  std::uint32_t clear_streak = 0;
};

class Manager : public fault::FaultSink {
 public:
  using EgressSink = std::function<void(const pktio::Mbuf&)>;

  /// `obs` (optional) is the platform observability context: the manager
  /// registers its per-NF/per-chain counters there, forwards it to libnf
  /// and the backpressure manager, and emits mgr trace events (drops, ECN
  /// marks, cpu.shares writes) when a recorder is attached.
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
  /// id, `latency` the modelled cross-lane transit time every message is
  /// stamped with (it bounds the lanes' conservative lookahead).
  void set_shard_link(ShardLink* link, std::uint32_t lane, Cycles latency);

  /// Register a placeholder for an NF owned by lane `owner_lane`. `name`
  /// feeds backpressure observability (mirrored states are queriable).
  void register_remote_nf(flow::NfId id, std::string name,
                          std::uint32_t owner_lane);

  /// Does this lane's replica own (run) the NF?
  [[nodiscard]] bool owns_nf(flow::NfId id) const {
    return id < records_.size() && records_[id].task != nullptr;
  }

  /// Deliver a cross-lane message. Called from an engine event the lane
  /// runtime scheduled at msg.when while draining this lane's mailboxes.
  void apply_shard_msg(const ShardMsg& msg);

  /// Arm the Wakeup and Monitor threads. Call after all NFs and chains are
  /// registered and before traffic starts.
  void start();

  /// Flip the control-plane features at runtime (they are consulted on
  /// every packet). Used by config files and A/B experiments.
  void set_features(bool cgroups, bool backpressure, bool ecn) {
    config_.enable_cgroups = cgroups;
    config_.enable_backpressure = backpressure;
    config_.enable_ecn = ecn;
  }
  [[nodiscard]] const ManagerConfig& config() const { return config_; }

  /// Rx-thread entry: a packet arrived from the wire. Takes ownership of
  /// `pkt` (frees it on drop). `key` drives the flow-table lookup.
  void ingress(pktio::Mbuf* pkt, const pktio::FlowKey& key);

  /// Same, with an explicit wire-arrival timestamp (<= now). Batched
  /// traffic sources deliver several packets from one timer callback; the
  /// per-packet arrival time keeps latency accounting, ECN and watermark
  /// feedback stamped at the exact instants an unbatched source would have
  /// produced. A burst of one through the burst path's code.
  void ingress(pktio::Mbuf* pkt, const pktio::FlowKey& key, Cycles arrival);

  /// Rx-thread entry for one source burst: `n` packets of flow `key`
  /// arriving at `arrivals[0..n)` (ascending, <= now). The flow lookup and
  /// the entry verdict run once per burst; a shed burst is accounted in
  /// full without taking a descriptor. An admitted burst takes its `n`
  /// descriptors in one alloc_burst and `stamp(mbuf, i)` writes the
  /// source's fields into packet i. Returns false, having done nothing,
  /// when the pool lacks room for all `n`: the caller then allocates and
  /// delivers one packet at a time, counting its own alloc failures. Not
  /// reentrant: an egress sink must not start a burst ingress.
  template <typename Stamp>
  bool ingress(const pktio::FlowKey& key, const Cycles* arrivals,
               std::size_t n, Stamp&& stamp) {
    if (n == 0) return true;
    if (pool_.available() < n) return false;
    const flow::FlowEntry* entry = rx_entry(key, arrivals, n);
    if (entry == nullptr) return true;
    if (rx_burst_.size() < n) rx_burst_.resize(n);
    pool_.alloc_burst(rx_burst_.data(), static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i < n; ++i) stamp(*rx_burst_[i], i);
    rx_admit(*entry, key, rx_burst_.data(), arrivals, n);
    return true;
  }

  /// Per-flow egress hook (TCP sources use it to observe deliveries and
  /// ECN marks). The packet is freed after the sink returns.
  void set_egress_sink(flow::FlowId flow, EgressSink sink);

  // -- accessors ------------------------------------------------------------
  [[nodiscard]] nf::NfTask& nf(flow::NfId id) { return *records_[id].task; }
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
  /// Set a chain's p99 latency target in cycles (0 clears it). Telemetry
  /// and violation accounting follow the target; share boosts additionally
  /// need config().slo.enabled. Callable before or after start().
  void set_slo_target(flow::ChainId chain, Cycles target);
  [[nodiscard]] const ChainSloState& chain_slo(flow::ChainId id) const;

  // -- overload control (DESIGN.md §17) --------------------------------------
  /// Register a chain's flow class and arm the ingress admission gate for
  /// it. Lazily creates the controller: runs that never call this pay one
  /// null test per ingress packet and nothing else. Call before start().
  void set_chain_class(flow::ChainId chain, bp::ClassSpec spec);
  /// The admission controller; nullptr until a class is registered.
  [[nodiscard]] const bp::AdmissionController* admission() const {
    return adm_.get();
  }
  /// Push-aside trajectory of an NF: current share scale (1.0 = untouched,
  /// < 1.0 = a neighbor is borrowing its slice) and grab/give-back totals.
  [[nodiscard]] double push_scale_of(flow::NfId id) const {
    return records_[id].push_scale;
  }
  [[nodiscard]] std::uint64_t push_grabs_of(flow::NfId id) const {
    return records_[id].push_grabs;
  }
  [[nodiscard]] std::uint64_t push_givebacks_of(flow::NfId id) const {
    return records_[id].push_givebacks;
  }
  [[nodiscard]] const FlowCounters& flow_counters(flow::FlowId id) const;
  [[nodiscard]] bp::BackpressureManager* backpressure() { return bp_.get(); }
  [[nodiscard]] bp::EcnMarker* ecn() { return ecn_.get(); }
  [[nodiscard]] const sched::CGroupController& cgroups() const { return cgroup_; }
  [[nodiscard]] std::size_t nf_count() const { return records_.size(); }
  [[nodiscard]] sched::Core* core_of(flow::NfId id) { return records_[id].core; }
  /// Most recent load(i) estimate (dimensionless CPU demand fraction).
  [[nodiscard]] double nf_load(flow::NfId id) const { return records_[id].last_load; }
  [[nodiscard]] std::uint64_t wire_ingress() const { return wire_ingress_; }

  // -- fault & lifecycle (DESIGN.md §11) ------------------------------------
  /// Arm the watchdog at start(). Implied by installing a fault plan via
  /// the Simulation facade; call before start().
  void enable_lifecycle();
  /// Chain policy applied while an NF on the chain is down. Callable any
  /// time; unset chains use fault::kDefaultDeadPolicy.
  void set_dead_policy(flow::ChainId chain, fault::DeadNfPolicy policy);
  [[nodiscard]] fault::DeadNfPolicy dead_policy(flow::ChainId chain) const;
  [[nodiscard]] fault::NfLifecycle nf_lifecycle(flow::NfId id) const {
    return records_[id].life;
  }
  [[nodiscard]] const fault::NfLifecycleStats& nf_lifecycle_stats(
      flow::NfId id) const {
    return records_[id].lstats;
  }

  // fault::FaultSink — the injector's actuation points. Injection is the
  // data-plane fact (the process dies *now*); the watchdog discovers it on
  // its next scan and drives the lifecycle from there.
  void inject_crash(flow::NfId nf, Cycles restart_after) override;
  void inject_stall(flow::NfId nf, Cycles restart_after) override;
  void inject_degrade(flow::NfId nf, double factor) override;
  void restore_degrade(flow::NfId nf) override;

 private:
  struct NfRecord {
    nf::NfTask* task = nullptr;  ///< nullptr = remote NF (another lane's).
    sched::Core* core = nullptr;
    std::string name;            ///< config name (local) or mirrored name.
    std::uint32_t owner_lane = 0;  ///< Lane running the NF when remote.
    /// Mirrored liveness of a remote NF (kNfDeath/kNfRevive broadcasts);
    /// lets skip_dead_hops route around dead hops on other lanes.
    bool remote_dead = false;
    NfManagerCounters counters;
    bool drain_scheduled = false;
    std::uint64_t offered_at_last_tick = 0;
    double load_accum = 0.0;
    double last_load = 0.0;
    /// Offered packets seen since the last share update (drives the
    /// "no estimate yet" bootstrap rule in update_shares()).
    double offered_accum = 0.0;
    bool has_estimate = false;
    /// Last non-zero service-time estimate (cycles). An NF starved past
    /// the sampling window would otherwise flap to "unknown" and destabilise
    /// every other NF's weight through the shared denominator.
    double last_service = 0.0;
    // Observability instruments (null until an obs context is attached).
    obs::Counter* ecn_marks = nullptr;
    obs::Counter* shares_writes = nullptr;
    obs::Gauge* cpu_shares = nullptr;

    // -- lifecycle (DESIGN.md §11) ----------------------------------------
    fault::NfLifecycle life = fault::NfLifecycle::kRunning;
    fault::NfLifecycleStats lstats;
    Cycles crashed_at = 0;     ///< Injection instant of the pending death.
    Cycles down_since = 0;     ///< Detection instant (downtime starts here).
    Cycles restart_at = 0;     ///< When the DEAD -> RESTARTING edge fires.
    Cycles warm_until = 0;     ///< When WARMING completes.
    bool restart_pending = false;
    /// Detection -> restart delay for the in-flight fault
    /// (fault::kDefaultRestart = fault::kDefaultRestartDelay).
    Cycles pending_restart_delay = fault::kDefaultRestart;
    // Watchdog stuck detection: progress snapshots from the last scan.
    std::uint64_t wd_last_processed = 0;
    Cycles wd_last_runtime = 0;
    std::uint32_t stuck_count = 0;
    // Degrade fault: cost-model scale to restore when the window closes.
    double pre_degrade_scale = 1.0;
    bool degraded = false;

    // -- PAM push-aside (DESIGN.md §17) -------------------------------------
    /// Share multiplier while a higher-priority core neighbor borrows this
    /// NF's slice; in [kPushVictimFloor, 1.0], settles to exactly 1.0.
    double push_scale = 1.0;
    /// Share updates the current grab must still be held before give-back.
    std::uint32_t push_hold = 0;
    /// Queue pressure seen at any monitor tick since the last share
    /// update — sampling only at the 10 ms update would miss a ring that
    /// oscillates across the watermark between updates.
    bool push_pressure = false;
    std::uint64_t push_grabs = 0;
    std::uint64_t push_givebacks = 0;
  };

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
  /// Does kBypass currently route `chain`'s packets around a dead hop?
  [[nodiscard]] bool bypassing(flow::ChainId chain) const {
    return chain < dead_on_chain_.size() && dead_on_chain_[chain] > 0 &&
           dead_policy(chain) == fault::DeadNfPolicy::kBypass;
  }
  /// First hop of `chain`, from the start()-built cache. The registry walk
  /// (`chains_.get(id).hops.front()`: bounds-checked at(), two pointer
  /// chases) used to run once per throttled-ingress packet, per ECN mark
  /// and per egress; the flat array is one load.
  [[nodiscard]] flow::NfId chain_head(flow::ChainId chain) const {
    return chain < chain_heads_.size() ? chain_heads_[chain]
                                       : chains_.get(chain).hops.front();
  }
  /// Grow records_ to cover `id` (sparse global-id registration).
  void ensure_record(flow::NfId id);
  /// Stamp msg.when = now + shard latency in place and post to `dst`'s
  /// mailbox, which keeps its own copy.
  void post_remote(std::uint32_t dst, ShardMsg& msg);
  /// Post to every lane but ours (bp / lifecycle control mirrors).
  void broadcast_remote(ShardMsg& msg);
  void schedule_drain(flow::NfId nf_id);
  void drain_tx(flow::NfId nf_id);
  /// Egress a run of one chain's packets; frees them.
  void egress(pktio::Mbuf* const* pkts, std::size_t n);
  void wakeup_scan();
  void monitor_tick();
  void update_shares();
  void drop(pktio::Mbuf* pkt);

  // -- latency SLOs (DESIGN.md §16) -----------------------------------------
  /// Monitor-tick half: on the lane owning each SLO chain's last hop,
  /// re-rank the window, advance the violation clock, emit trace edges and
  /// (sharded, controller on) broadcast the p99 mirror.
  void slo_observe(Cycles now);
  /// Share-update half: earliest-slack-first boost of violating chains,
  /// decay of recovered ones. Only called when config_.slo.enabled.
  void slo_control(Cycles now);
  /// Share multiplier for an NF: max boost over the SLO chains through it.
  [[nodiscard]] double slo_boost_of(flow::NfId id) const;
  [[nodiscard]] bool slo_active() const {
    return !slo_chains_.empty();
  }

  // -- overload control (DESIGN.md §17) --------------------------------------
  /// Monitor-tick half of the admission gate: feed the shed ladders the
  /// first-hop queue occupancies and SLO-violating flags of every classed
  /// chain headed on this lane. Only called when adm_ exists.
  void admission_evaluate(Cycles now);
  /// Share-update half of push-aside: advance every local core's
  /// grab/give-back state machine. Only called when push_aside.enabled.
  void push_aside_control(Cycles now);

  // -- lifecycle internals (DESIGN.md §11) ----------------------------------
  /// Periodic heartbeat scan: detects dead/stuck NFs, fires due restarts,
  /// completes warm-ups. Only scheduled when lifecycle.enabled.
  void watchdog_scan();
  /// RUNNING -> DEAD: release shares, apply the dead-NF policy, arm restart.
  /// `forced` = the watchdog killed a stuck NF (vs an injected crash).
  void on_nf_death(flow::NfId id, Cycles now, bool forced);
  /// DEAD -> RESTARTING: cold-state reload through the NF's async-io layer
  /// (§3.4 double-buffered path) or a fixed fallback latency without one.
  void begin_restart(flow::NfId id, Cycles now);
  /// RESTARTING -> WARMING: revive the task, restore weight, drop the
  /// dead-NF backpressure latch (ordinary hysteresis takes over).
  void finish_restart(flow::NfId id);
  /// WARMING -> RUNNING: record downtime and resume share allocation.
  void complete_recovery(flow::NfId id, Cycles now);
  /// kBypass routing: advance `pkt` past consecutive dead hops, counting
  /// each skip. Fast exit when nothing on the chain is down.
  void skip_dead_hops(pktio::Mbuf* pkt, flow::ChainId chain);
  [[nodiscard]] bool all_policies_backpressure(flow::NfId nf) const;
  void trace_lifecycle(flow::NfId id, const char* from, const char* to,
                       Cycles now);

  sim::Engine& engine_;
  pktio::MbufPool& pool_;
  flow::FlowTable& flows_;
  flow::ChainRegistry& chains_;
  ManagerConfig config_;

  std::vector<NfRecord> records_;
  std::vector<ChainCounters> chain_counters_;
  std::vector<Histogram> chain_latency_;
  /// Per-chain tail estimators (fed at egress) and SLO state. Sized with
  /// chain_counters_ at start(); lazily grown for out-of-registry ids.
  std::vector<obs::LatencyEstimator> chain_tail_;
  std::vector<ChainSloState> chain_slo_;
  /// Chains with a target, ascending — the slice the SLO paths scan.
  std::vector<flow::ChainId> slo_chains_;
  std::vector<FlowCounters> flow_counters_;
  std::vector<EgressSink> egress_sinks_;
  /// chain id -> first hop, frozen at start(). Hot paths that only need the
  /// chain head (entry-throttle accounting, ECN/egress flow-home routing)
  /// read this instead of walking the registry per packet.
  std::vector<flow::NfId> chain_heads_;
  /// chain id -> last hop, frozen at start(). The SLO paths use it to pick
  /// each chain's estimator-owning lane (egress happens on this hop's lane).
  std::vector<flow::NfId> chain_tails_hop_;

  std::unique_ptr<bp::BackpressureManager> bp_;
  std::unique_ptr<bp::EcnMarker> ecn_;
  /// Ingress admission gate (DESIGN.md §17); created lazily by the first
  /// set_chain_class, so legacy runs pay one null test per packet.
  std::unique_ptr<bp::AdmissionController> adm_;
  /// Scratch inputs for admission_evaluate (reused to avoid allocation).
  std::vector<bp::AdmissionInput> adm_inputs_;
  sched::CGroupController cgroup_;

  std::uint64_t wire_ingress_ = 0;
  /// Descriptors of the admitted source burst being ingested.
  std::vector<pktio::Mbuf*> rx_burst_;
  std::uint32_t monitor_ticks_ = 0;
  bool started_ = false;

  /// Dead-NF refcount per chain: gates every lifecycle branch on the packet
  /// path, so unfaulted runs (and runs where everything recovered) pay one
  /// integer compare and nothing else.
  std::vector<std::uint32_t> dead_on_chain_;
  /// Per-chain DeadNfPolicy override; chains beyond the vector (or never
  /// set) use fault::kDefaultDeadPolicy.
  std::vector<fault::DeadNfPolicy> chain_policy_;

  obs::Observability* obs_ = nullptr;
  obs::Counter* ctr_unmatched_drops_ = nullptr;
  obs::Counter* ctr_wakeup_scans_ = nullptr;
  obs::Counter* ctr_monitor_ticks_ = nullptr;

  // -- sharded simulation (null / zero in single-lane runs) -----------------
  ShardLink* shard_link_ = nullptr;
  std::uint32_t lane_id_ = 0;
  Cycles shard_latency_ = 0;
  std::uint64_t shard_tx_msgs_ = 0;
  std::uint64_t shard_rx_msgs_ = 0;
  /// Cross-lane packets dropped because the destination pool was exhausted
  /// (the sharded analogue of an rx mempool alloc failure).
  std::uint64_t shard_alloc_drops_ = 0;
};

}  // namespace nfv::mgr
