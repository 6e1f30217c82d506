#include "mgr/manager.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

namespace nfv::mgr {

namespace {
const ChainCounters kZeroChain{};
const FlowCounters kZeroFlow{};

// Data-plane and control-loop cadences at the 2.6 GHz reference clock.
/// Latency for a Tx thread to notice and move a processed packet (the
/// manager runs on its own cores; ~100 ns).
constexpr Cycles kTxDrainLatency = 260;
/// Most packets one Tx drain moves.
constexpr std::uint32_t kTxBurst = 32;
/// Wakeup-thread scan period. The paper dedicates a spinning core to the
/// Wakeup thread, so its effective cadence is microseconds; 10 us keeps
/// the detect->throttle loop tight while still giving the hysteresis the
/// Tx/Wakeup separation provides (§3.5).
constexpr Cycles kWakeupPeriod = 26'000;
/// Monitor period: 1 ms load estimation (§3.5).
constexpr Cycles kMonitorPeriod = 2'600'000;
/// Scale factor from load fraction to cpu.shares.
constexpr double kShareScale = 10240.0;
/// Floor on any loaded NF's shares (~0.5% of scale). §2.1: rate-cost
/// proportional fairness "ensures that all competing NFs get a minimal
/// CPU share necessary to progress" — and it is what lets a starved NF
/// keep producing the service-time samples the estimator feeds on. Kept
/// small so it does not distort the proportional allocation.
constexpr std::uint32_t kShareFloor = 50;

// SLO controller (DESIGN.md §16); kSloMaxBoost is in manager.hpp.
/// Evidence floor: no boost/decay decision until the chain's window holds
/// this many egress samples.
constexpr std::uint32_t kSloMinSamples = 64;
constexpr double kSloBoostStep = 2.0;  ///< multiplicative boost per update
constexpr double kSloDecay = 0.5;      ///< boost decay per recovered update
/// A violating chain starts decaying only once p99 < headroom*target
/// (hysteresis against boost/decay flapping at the target edge).
constexpr double kSloHeadroom = 0.8;
/// Decay damping: a boosted chain must stay under headroom*target for this
/// many *consecutive* share updates before each decay step. Without it the
/// controller limit-cycles under persistent contention — the window
/// recovers within one update of a boost, the boost decays straight back
/// to 1.0, and the chain starves again.
constexpr std::uint32_t kSloDecayAfter = 3;
/// Earliest-slack-first width: at most this many chains — the ones with
/// the most negative slack, ties broken by chain id — are boosted per
/// share update; the rest wait their turn.
constexpr std::uint32_t kSloMaxBoostsPerUpdate = 2;

// PAM push-aside (DESIGN.md §17); kPushVictimFloor is in manager.hpp.
/// Victim weight is divided by this per grab (multiplicative grab).
constexpr double kPushGrabFactor = 2.0;
/// Victim weight is restored by this per clear update (additive give-back)
/// until it settles back to exactly 1.0.
constexpr double kPushGivebackStep = 0.25;
/// A grab is held at least this many share updates before give-back may
/// begin (anti-limit-cycling, same lesson as kSloDecayAfter).
constexpr std::uint32_t kPushMinHoldUpdates = 2;
}  // namespace

Manager::Manager(sim::Engine& engine, pktio::MbufPool& pool,
                 flow::FlowTable& flows, flow::ChainRegistry& chains,
                 ManagerConfig config, obs::Observability* obs)
    : engine_(engine),
      pool_(pool),
      flows_(flows),
      chains_(chains),
      config_(config),
      obs_(obs) {
  if (obs_ != nullptr) {
    obs::Scope scope = obs_->global_scope();
    ctr_unmatched_drops_ = scope.counter("mgr.unmatched_drops");
    ctr_wakeup_scans_ = scope.counter("mgr.wakeup_scans");
    ctr_monitor_ticks_ = scope.counter("mgr.monitor_ticks");
    scope.counter_fn("mgr.wire_ingress", [this] { return wire_ingress_; });
    scope.counter_fn("mgr.cgroup_writes", [this] { return cgroup_.writes(); });
    scope.counter_fn("mgr.cgroup_skipped_writes",
                     [this] { return cgroup_.skipped_writes(); });
  }
}

void Manager::ensure_record(flow::NfId id) {
  if (id >= records_.size()) records_.resize(id + 1);
}

void Manager::register_remote_nf(flow::NfId id, std::string name,
                                 std::uint32_t owner_lane) {
  assert(!started_ && "register NFs before start()");
  ensure_record(id);
  NfRecord& rec = records_[id];
  assert(rec.task == nullptr && rec.name.empty() && "id registered twice");
  rec.name = std::move(name);
  rec.owner_lane = owner_lane;
}

void Manager::register_nf(flow::NfId id, nf::NfTask* task,
                          sched::Core* core) {
  assert(!started_ && "register NFs before start()");
  ensure_record(id);
  assert(records_[id].task == nullptr && records_[id].name.empty() &&
         "id registered twice");
  records_[id].task = task;
  records_[id].core = core;
  records_[id].name = task->config().name;
  core->add_task(task);
  task->set_tx_notify([this, id](nf::NfTask&) { schedule_drain(id); });
  task->set_packet_release([this](pktio::Mbuf* pkt) { pool_.free(pkt); });
  if (obs_ != nullptr) {
    task->set_observability(obs_);
    obs::Scope scope = obs_->nf_scope(task->config().name);
    // records_ grows by push_back, so probes capture the stable id, never a
    // reference into the vector (it would dangle on reallocation).
    scope.counter_fn("mgr.offered",
                     [this, id] { return records_[id].counters.offered; });
    scope.counter_fn("mgr.rx_enqueued",
                     [this, id] { return records_[id].counters.rx_enqueued; });
    scope.counter_fn("mgr.rx_full_drops", [this, id] {
      return records_[id].counters.rx_full_drops;
    });
    scope.counter_fn("mgr.wasted_drops_here", [this, id] {
      return records_[id].counters.wasted_drops_here;
    });
    scope.counter_fn("mgr.downstream_drops", [this, id] {
      return records_[id].counters.downstream_drops;
    });
    scope.gauge_fn("mgr.load",
                   [this, id] { return records_[id].last_load; });
    scope.counter_fn("life.crashes",
                     [this, id] { return records_[id].lstats.crashes; });
    scope.counter_fn("life.forced_crashes", [this, id] {
      return records_[id].lstats.forced_crashes;
    });
    scope.counter_fn("life.restarts",
                     [this, id] { return records_[id].lstats.restarts; });
    scope.counter_fn("life.recoveries",
                     [this, id] { return records_[id].lstats.recoveries; });
    scope.counter_fn("life.downtime_cycles", [this, id] {
      return static_cast<std::uint64_t>(records_[id].lstats.downtime_cycles);
    });
    NfRecord& rec = records_[id];
    rec.ecn_marks = scope.counter("mgr.ecn_marks");
    rec.shares_writes = scope.counter("mgr.shares_writes");
    rec.cpu_shares = scope.gauge("mgr.cpu_shares");
  }
}

void Manager::set_shard_link(ShardLink* link, std::uint32_t lane,
                             Cycles latency) {
  assert(!started_ && "wire the shard link before start()");
  shard_link_ = link;
  lane_id_ = lane;
  shard_latency_ = latency;
  if (obs_ != nullptr) {
    obs::Scope scope = obs_->global_scope();
    scope.counter_fn("mgr.shard_tx_msgs", [this] { return shard_tx_msgs_; });
    scope.counter_fn("mgr.shard_rx_msgs", [this] { return shard_rx_msgs_; });
    scope.counter_fn("mgr.shard_alloc_drops",
                     [this] { return shard_alloc_drops_; });
  }
}

void Manager::post_remote(std::uint32_t dst, ShardMsg& msg) {
  assert(shard_link_ != nullptr && dst != lane_id_);
  msg.when = engine_.now() + shard_latency_;
  ++shard_tx_msgs_;
  shard_link_->post(lane_id_, dst, msg);
}

void Manager::broadcast_remote(ShardMsg& msg) {
  if (shard_link_ == nullptr) return;
  for (std::uint32_t dst = 0; dst < shard_link_->lane_count(); ++dst) {
    if (dst != lane_id_) post_remote(dst, msg);
  }
}

void Manager::apply_shard_msg(const ShardMsg& msg) {
  ++shard_rx_msgs_;
  switch (msg.kind) {
    case ShardMsg::Kind::kPacket: {
      pktio::Mbuf* pkt = pool_.alloc();
      if (pkt == nullptr) {
        // Destination pool exhausted: the sharded analogue of an rx mempool
        // alloc failure. Dropped here, counted, never silently lost.
        ++shard_alloc_drops_;
        return;
      }
      const auto pool_index = pkt->pool_index;
      *pkt = msg.pkt;
      pkt->pool_index = pool_index;  // descriptor identity stays local
      pkt->enqueue_time = engine_.now();
      enqueue_to_nf(msg.nf, &pkt, 1);
      break;
    }
    case ShardMsg::Kind::kFlowEgress: {
      const flow::FlowId flow = msg.pkt.flow_id;
      if (flow >= flow_counters_.size()) flow_counters_.resize(flow + 1);
      auto& fc = flow_counters_[flow];
      ++fc.egress_packets;
      fc.egress_bytes += msg.pkt.size_bytes;
      if (flow < egress_sinks_.size() && egress_sinks_[flow]) {
        egress_sinks_[flow](msg.pkt);
      }
      break;
    }
    case ShardMsg::Kind::kEcnMark: {
      const flow::FlowId flow = msg.pkt.flow_id;
      if (flow >= flow_counters_.size()) flow_counters_.resize(flow + 1);
      ++flow_counters_[flow].ecn_marked;
      break;
    }
    case ShardMsg::Kind::kBpState:
      if (bp_) bp_->apply_remote_state(msg.nf, msg.bp_state);
      break;
    case ShardMsg::Kind::kNfDeath: {
      NfRecord& rec = records_[msg.nf];
      assert(rec.task == nullptr && "death broadcast for a local NF");
      rec.remote_dead = true;
      for (flow::ChainId chain : chains_.chains_through(msg.nf)) {
        if (chain >= dead_on_chain_.size()) {
          dead_on_chain_.resize(chain + 1, 0);
        }
        ++dead_on_chain_[chain];
      }
      // No bp_ update here: the owning lane's Throttle pin (when the chain
      // policies want one) arrives as its own kBpState mirror — touching
      // refcounts from both messages would double-count.
      break;
    }
    case ShardMsg::Kind::kNfRevive: {
      NfRecord& rec = records_[msg.nf];
      rec.remote_dead = false;
      for (flow::ChainId chain : chains_.chains_through(msg.nf)) {
        if (chain < dead_on_chain_.size() && dead_on_chain_[chain] > 0) {
          --dead_on_chain_[chain];
        }
      }
      break;
    }
    case ShardMsg::Kind::kDownstreamDrop:
      ++records_[msg.nf].counters.downstream_drops;
      break;
    case ShardMsg::Kind::kChainTail: {
      // p99 mirror from the chain's estimator-owning lane (`nf` carries the
      // ChainId). Only last_p99 is mirrored: the violation clock advances
      // on the owning lane alone, and each replica derives its own boost
      // from the shared p99 sequence at the shared update cadence.
      const auto chain = static_cast<flow::ChainId>(msg.nf);
      if (chain >= chain_slo_.size()) chain_slo_.resize(chain + 1);
      chain_slo_[chain].last_p99 = static_cast<Cycles>(msg.tail_p99);
      break;
    }
    case ShardMsg::Kind::kChainOverload: {
      // SLO-violating mirror from the chain's tail-owning lane (DESIGN.md
      // §17). Only the violating flag is mirrored — the admission gate on
      // the chain's home lane reads it as an engage trigger; violation
      // *time* keeps accruing on the owner alone.
      const auto chain = static_cast<flow::ChainId>(msg.nf);
      if (chain >= chain_slo_.size()) chain_slo_.resize(chain + 1);
      chain_slo_[chain].violating = msg.tail_p99 != 0;
      break;
    }
  }
}

void Manager::start() {
  assert(!started_);
  started_ = true;
  chain_counters_.assign(std::max<std::size_t>(chains_.size(), 1), {});
  // Pre-size the per-chain/per-flow bookkeeping and freeze the chain-head
  // cache now, so the per-packet paths below never grow a vector or walk
  // the chain registry mid-burst (the lazy resizes remain only as a safety
  // net for out-of-registry ids).
  chain_latency_.resize(chain_counters_.size(), chain_latency_histogram());
  chain_tail_.resize(chain_counters_.size(), obs::LatencyEstimator());
  if (chain_slo_.size() < chain_counters_.size()) {
    chain_slo_.resize(chain_counters_.size());
  }
  flow_counters_.reserve(flows_.size() + 64);
  chain_heads_.resize(chains_.size());
  chain_tails_hop_.resize(chains_.size());
  for (flow::ChainId id = 0; id < chains_.size(); ++id) {
    const auto& hops = chains_.get(id).hops;
    chain_heads_[id] =
        hops.empty() ? static_cast<flow::NfId>(-1) : hops.front();
    chain_tails_hop_[id] =
        hops.empty() ? static_cast<flow::NfId>(-1) : hops.back();
  }
  bp_ = std::make_unique<bp::BackpressureManager>(chains_, records_.size(),
                                                  config_.backpressure);
  ecn_ = std::make_unique<bp::EcnMarker>(records_.size(), config_.ecn);
  if (shard_link_ != nullptr) {
    // Every real transition of a local NF is mirrored to the other lanes so
    // their chain_throttled()/should_pause_upstream() views stay coherent.
    bp_->set_state_listener(
        [this](flow::NfId nf, bp::ThrottleState to, Cycles) {
          ShardMsg msg;
          msg.kind = ShardMsg::Kind::kBpState;
          msg.nf = nf;
          msg.bp_state = to;
          broadcast_remote(msg);
        });
  }
  if (obs_ != nullptr) {
    std::vector<std::string> nf_names;
    nf_names.reserve(records_.size());
    for (const auto& rec : records_) nf_names.push_back(rec.name);
    bp_->set_observability(obs_, std::move(nf_names));
    for (flow::ChainId id = 0; id < chains_.size(); ++id) {
      obs::Scope scope = obs_->chain_scope(std::to_string(id));
      // chain_counters(id) bounds-checks, so probes survive the lazy
      // resize ingress() performs for out-of-registry chain ids.
      scope.counter_fn("chain.entry_admitted", [this, id] {
        return chain_counters(id).entry_admitted;
      });
      scope.counter_fn("chain.entry_throttle_drops", [this, id] {
        return chain_counters(id).entry_throttle_drops;
      });
      scope.counter_fn("chain.egress_packets", [this, id] {
        return chain_counters(id).egress_packets;
      });
      scope.counter_fn("chain.egress_bytes",
                       [this, id] { return chain_counters(id).egress_bytes; });
      scope.gauge_fn("chain.latency_p99_cycles", [this, id] {
        return static_cast<double>(chain_latency(id).value_at_quantile(0.99));
      });
      // Tail-estimator probes (DESIGN.md §16). Sampled at dump time only;
      // a chain's egress lands on one lane, so every other lane's replica
      // reports 0 and the merged (summed) gauge equals the owner's value.
      scope.gauge_fn("chain.tail_p50_cycles", [this, id] {
        return static_cast<double>(chain_tail(id).quantile(0.50));
      });
      scope.gauge_fn("chain.tail_p95_cycles", [this, id] {
        return static_cast<double>(chain_tail(id).quantile(0.95));
      });
      scope.gauge_fn("chain.tail_p99_cycles", [this, id] {
        return static_cast<double>(chain_tail(id).quantile(0.99));
      });
      scope.counter_fn("chain.tail_samples",
                       [this, id] { return chain_tail(id).total_count(); });
      scope.counter_fn("chain.slo_violation_cycles", [this, id] {
        return static_cast<std::uint64_t>(chain_slo(id).violation_cycles);
      });
    }
    // Overload-control instruments (DESIGN.md §17) register only when the
    // feature is armed, so legacy runs keep their metrics layout (and so
    // their reports) byte-identical.
    if (adm_ != nullptr) {
      std::vector<std::string> chain_names;
      chain_names.reserve(chains_.size());
      for (flow::ChainId id = 0; id < chains_.size(); ++id) {
        chain_names.push_back(chains_.get(id).name);
      }
      adm_->set_observability(obs_, chain_names);
      obs::Scope scope = obs_->global_scope();
      scope.counter_fn("mgr.admission_discards",
                       [this] { return adm_->total_discards(); });
    }
    if (config_.push_aside.enabled) {
      for (flow::NfId id = 0; id < records_.size(); ++id) {
        if (records_[id].task == nullptr) continue;
        obs::Scope scope = obs_->nf_scope(records_[id].name);
        scope.counter_fn("pam.grabs",
                         [this, id] { return records_[id].push_grabs; });
        scope.counter_fn("pam.givebacks",
                         [this, id] { return records_[id].push_givebacks; });
        scope.gauge_fn("pam.push_scale",
                       [this, id] { return records_[id].push_scale; });
      }
    }
  }
  engine_.schedule_periodic(kWakeupPeriod, [this] { wakeup_scan(); });
  engine_.schedule_periodic(kMonitorPeriod, [this] { monitor_tick(); });
  // The watchdog heartbeat exists only when the fault subsystem is enabled:
  // an unfaulted run schedules no extra events and replays byte-for-byte.
  if (config_.lifecycle.enabled) {
    dead_on_chain_.assign(std::max<std::size_t>(chains_.size(), 1), 0);
    engine_.schedule_periodic(fault::kWatchdogPeriod,
                              [this] { watchdog_scan(); });
  }
}

void Manager::ingress(pktio::Mbuf* pkt, const pktio::FlowKey& key) {
  ingress(pkt, key, engine_.now());
}

void Manager::ingress(pktio::Mbuf* pkt, const pktio::FlowKey& key,
                      Cycles arrival) {
  if (const flow::FlowEntry* entry = rx_entry(key, &arrival, 1)) {
    rx_admit(*entry, key, &pkt, &arrival, 1);
  } else {
    drop(pkt);
  }
}

const flow::FlowEntry* Manager::rx_entry(const pktio::FlowKey& key,
                                         const Cycles* arrivals,
                                         std::size_t n) {
  assert(started_ && "call start() before sending traffic");
  assert(arrivals[n - 1] <= engine_.now() &&
         "arrival timestamps cannot be future");
  wire_ingress_ += n;
  // Touching lookup: refreshes the flow's last-touch time so active flows
  // stay ahead of the table's expiry sweep (idle ones age out). One touch
  // at the last arrival leaves the same state as n touches: no sweep can
  // run inside one callback.
  const flow::FlowEntry* entry = flows_.lookup(key, arrivals[n - 1], n);
  auto* tr = obs::trace_of(obs_);
  if (entry == nullptr) {
    // Unmatched traffic is not steered anywhere.
    obs::inc(ctr_unmatched_drops_, n);
    for (std::size_t i = 0; tr != nullptr && i < n; ++i) {
      tr->instant(arrivals[i], obs::kManagerLane, "mgr", "drop",
                  {{"reason", "unmatched"}});
    }
    return nullptr;
  }
  const flow::ChainId chain = entry->chain;
  if (chain >= chain_counters_.size()) chain_counters_.resize(chain + 1);

  // Selective early discard: shed throttled chains where they first enter
  // the system, before any CPU is spent on them (Fig. 5). The chain head
  // still counts the packets as offered load for rate estimation. Only
  // wakeup_scan, force_dead and remote mirrors change the verdict, so it
  // holds for the whole burst.
  if (config_.enable_backpressure && bp_->chain_throttled(chain)) {
    records_[chain_head(chain)].counters.offered += n;
    chain_counters_[chain].entry_throttle_drops += n;
    for (std::size_t i = 0; tr != nullptr && i < n; ++i) {
      tr->instant(arrivals[i], obs::kManagerLane, "mgr", "drop",
                  {{"reason", "entry_throttle"}},
                  {{"chain", static_cast<std::int64_t>(chain)}});
    }
    return nullptr;
  }
  return entry;
}

void Manager::rx_admit(const flow::FlowEntry& entry, const pktio::FlowKey& key,
                       pktio::Mbuf** pkts, const Cycles* arrivals,
                       std::size_t n) {
  const flow::ChainId chain = entry.chain;
  auto& cc = chain_counters_[chain];
  // Admitted packets are compacted into pkts[0, run) and handed off as one
  // run; a discard first flushes the run ahead of it, so every trace event
  // keeps its per-packet order.
  const std::size_t max_run = bypassing(chain) ? 1 : n;
  std::size_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pktio::Mbuf* pkt = pkts[i];
    pkt->flow_id = entry.flow_id;
    pkt->chain_id = chain;
    pkt->chain_pos = 0;
    pkt->arrival_time = arrivals[i];
    pkt->enqueue_time = arrivals[i];
    pkt->key = key;
    pkt->numa_node = static_cast<std::int8_t>(config_.nic_numa_node);
    // Admission gate (DESIGN.md §17): a shed flow class spends a trickle
    // token or is discarded at the wire — before any chain CPU, into its
    // own conservation sink. Like the entry-throttle discard, the chain
    // head still counts the packet as offered load so λ stays honest.
    if (adm_ != nullptr && !adm_->admit(chain, arrivals[i])) {
      hand_off(pkts, run);
      run = 0;
      ++records_[chain_head(chain)].counters.offered;
      ++cc.admission_discards;
      if (auto* tr = obs::trace_of(obs_)) {
        tr->instant(arrivals[i], obs::kAdmissionLane, "adm", "drop",
                    {{"reason", "admission"}},
                    {{"chain", static_cast<std::int64_t>(chain)}});
      }
      drop(pkt);
      continue;
    }
    ++cc.entry_admitted;
    pkts[run++] = pkt;
    if (run == max_run) {
      hand_off(pkts, run);
      run = 0;
    }
  }
  hand_off(pkts, run);
}

void Manager::hand_off(pktio::Mbuf** pkts, std::size_t n) {
  if (n == 0) return;
  pktio::Mbuf& first = *pkts[0];
  // Dead-NF bypass (DESIGN.md §11): skip the dead hops ahead.
  if (bypassing(first.chain_id)) {
    assert(n == 1 && "runs never cross a dead-hop bypass");
    skip_dead_hops(&first, first.chain_id);
  }
  const auto& hops = chains_.get(first.chain_id).hops;
  if (first.chain_pos >= hops.size()) {
    egress(pkts, n);
  } else {
    enqueue_to_nf(hops[first.chain_pos], pkts, n);
  }
}

void Manager::enqueue_to_nf(flow::NfId nf_id, pktio::Mbuf* const* pkts,
                            std::size_t n) {
  NfRecord& rec = records_[nf_id];
  if (rec.task == nullptr) {
    // Next hop lives on another lane: hand each packet off by value. The
    // descriptor returns to this lane's pool; the owning lane re-allocates
    // from its own and counts the packet as offered on delivery.
    for (std::size_t i = 0; i < n; ++i) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kPacket;
      msg.nf = nf_id;
      msg.pkt = *pkts[i];
      post_remote(rec.owner_lane, msg);
      pool_.free(pkts[i]);
    }
    return;
  }
  nf::NfTask& task = *rec.task;
  pktio::Ring& ring = task.rx_ring();
  rec.counters.offered += n;
  std::size_t enqueued = 0;
  bool overloaded = false;
  for (std::size_t i = 0; i < n; ++i) {
    pktio::Mbuf* pkt = pkts[i];
    const Cycles when = pkt->enqueue_time;
    // The EWMA is a serial recurrence over the running occupancy: one
    // observation per packet, packets about to be dropped included.
    if (config_.enable_ecn && ecn_->on_enqueue(nf_id, ring, *pkt)) {
      // Per-flow accounting lives on the flow's home lane (the lane of the
      // chain's first hop, which owns the flow-table entry and so the
      // meaning of pkt->flow_id). Mid-chain lanes route the count home.
      const flow::NfId head = chain_head(pkt->chain_id);
      if (records_[head].task != nullptr) {
        auto& fc = flow_counters_;
        if (pkt->flow_id >= fc.size()) fc.resize(pkt->flow_id + 1);
        ++fc[pkt->flow_id].ecn_marked;
      } else {
        ShardMsg msg;
        msg.kind = ShardMsg::Kind::kEcnMark;
        msg.pkt = *pkt;
        post_remote(records_[head].owner_lane, msg);
      }
      obs::inc(rec.ecn_marks);
      if (auto* tr = obs::trace_of(obs_)) {
        tr->instant(when, obs::kManagerLane, "mgr", "ecn_mark",
                    {{"nf", task.config().name}},
                    {{"flow", static_cast<std::int64_t>(pkt->flow_id)},
                     {"qlen", static_cast<std::int64_t>(ring.size())}});
      }
    }

    const pktio::EnqueueResult result = ring.enqueue(pkt);
    if (result == pktio::EnqueueResult::kFull) {
      ++rec.counters.rx_full_drops;
      if (pkt->chain_pos > 0) {
        ++rec.counters.wasted_drops_here;
        // Attribute the wasted work to the NF that processed it last.
        const auto& hops = chains_.get(pkt->chain_id).hops;
        NfRecord& prev = records_[hops[pkt->chain_pos - 1]];
        if (prev.task != nullptr) {
          ++prev.counters.downstream_drops;
        } else {
          ShardMsg msg;
          msg.kind = ShardMsg::Kind::kDownstreamDrop;
          msg.nf = hops[pkt->chain_pos - 1];
          post_remote(prev.owner_lane, msg);
        }
      }
      if (auto* tr = obs::trace_of(obs_)) {
        tr->instant(when, obs::kManagerLane, "mgr", "drop",
                    {{"reason", "rx_full"}, {"nf", task.config().name}},
                    {{"chain_pos", static_cast<std::int64_t>(pkt->chain_pos)}});
      }
      drop(pkt);
      continue;
    }
    ++enqueued;
    // The data path only ever moves Clear -> Watch, so the first
    // overloaded enqueue of the run is the only one that can act.
    if (result == pktio::EnqueueResult::kOkOverloaded && !overloaded) {
      overloaded = true;
      task.set_overload_flag(true);
      if (config_.enable_backpressure) {
        bp_->on_enqueue_feedback(nf_id, result, when);
      }
    }
  }
  rec.counters.rx_enqueued += enqueued;
  task.note_arrival(enqueued);
}

void Manager::schedule_drain(flow::NfId nf_id) {
  NfRecord& rec = records_[nf_id];
  if (rec.drain_scheduled) return;
  rec.drain_scheduled = true;
  engine_.schedule_after(kTxDrainLatency, [this, nf_id] { drain_tx(nf_id); });
}

void Manager::drain_tx(flow::NfId nf_id) {
  NfRecord& rec = records_[nf_id];
  rec.drain_scheduled = false;

  pktio::Mbuf* burst[256];
  const std::size_t max_burst =
      std::min<std::size_t>(kTxBurst, std::size(burst));
  const bool was_full = rec.task->tx_ring().full();
  const std::size_t n = rec.task->tx_ring().dequeue_burst(burst, max_burst);
  const Cycles now = engine_.now();
  // Forward maximal runs of consecutive packets bound for the same next
  // hop: same chain, same position, no bypass on the chain.
  for (std::size_t i = 0, end = 0; i < n; i = end) {
    const pktio::Mbuf& first = *burst[i];
    end = i + 1;
    if (!bypassing(first.chain_id)) {
      while (end < n && burst[end]->chain_id == first.chain_id &&
             burst[end]->chain_pos == first.chain_pos) {
        ++end;
      }
    }
    for (std::size_t k = i; k < end; ++k) {
      ++burst[k]->chain_pos;
      burst[k]->enqueue_time = now;
    }
    hand_off(burst + i, end - i);
  }

  if (!rec.task->tx_ring().empty()) schedule_drain(nf_id);
  // Freed TX space may unblock a locally backpressured NF.
  if (was_full && n > 0 && rec.task->has_runnable_work()) {
    rec.core->wake(rec.task);
  }
}

void Manager::egress(pktio::Mbuf* const* pkts, std::size_t n) {
  const flow::ChainId chain = pkts[0]->chain_id;
  auto& cc = chain_counters_[chain];
  cc.egress_packets += n;
  if (chain >= chain_latency_.size()) {
    chain_latency_.resize(chain + 1, chain_latency_histogram());
  }
  if (chain >= chain_tail_.size()) {
    chain_tail_.resize(chain + 1, obs::LatencyEstimator());
  }
  Histogram& histogram = chain_latency_[chain];
  obs::LatencyEstimator& tail = chain_tail_[chain];
  // Per-flow counters and the egress sink live on the flow's home lane;
  // when the chain's last hop is elsewhere, route the event home (the
  // packet travels by value so e.g. a TCP sink still sees its fields).
  const NfRecord& home = records_[chain_head(chain)];
  const Cycles now = engine_.now();
  for (std::size_t i = 0; i < n; ++i) {
    const pktio::Mbuf& pkt = *pkts[i];
    cc.egress_bytes += pkt.size_bytes;
    const Cycles latency = now - pkt.arrival_time;
    histogram.record(static_cast<std::uint64_t>(latency));
    // Tail telemetry (DESIGN.md §16): same wire-arrival -> wire-egress
    // span, into the chain's fixed-window estimator.
    tail.record(static_cast<std::uint64_t>(latency));
    if (home.task == nullptr) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kFlowEgress;
      msg.pkt = pkt;
      post_remote(home.owner_lane, msg);
      continue;
    }
    if (pkt.flow_id >= flow_counters_.size()) {
      flow_counters_.resize(pkt.flow_id + 1);
    }
    auto& fc = flow_counters_[pkt.flow_id];
    ++fc.egress_packets;
    fc.egress_bytes += pkt.size_bytes;
    if (pkt.flow_id < egress_sinks_.size() && egress_sinks_[pkt.flow_id]) {
      egress_sinks_[pkt.flow_id](pkt);
    }
  }
  pool_.free_burst(pkts, static_cast<std::uint32_t>(n));
}

void Manager::drop(pktio::Mbuf* pkt) { pool_.free(pkt); }

void Manager::set_egress_sink(flow::FlowId flow, EgressSink sink) {
  if (flow >= egress_sinks_.size()) egress_sinks_.resize(flow + 1);
  egress_sinks_[flow] = std::move(sink);
}

const ChainCounters& Manager::chain_counters(flow::ChainId id) const {
  return id < chain_counters_.size() ? chain_counters_[id] : kZeroChain;
}

const Histogram& Manager::chain_latency(flow::ChainId id) const {
  static const Histogram kEmptyLatency = chain_latency_histogram();
  return id < chain_latency_.size() ? chain_latency_[id] : kEmptyLatency;
}

const obs::LatencyEstimator& Manager::chain_tail(flow::ChainId id) const {
  static const obs::LatencyEstimator kEmptyTail{1};
  return id < chain_tail_.size() ? chain_tail_[id] : kEmptyTail;
}

const ChainSloState& Manager::chain_slo(flow::ChainId id) const {
  static const ChainSloState kNoSlo{};
  return id < chain_slo_.size() ? chain_slo_[id] : kNoSlo;
}

void Manager::set_slo_target(flow::ChainId chain, Cycles target) {
  if (chain >= chain_slo_.size()) chain_slo_.resize(chain + 1);
  chain_slo_[chain].target = target;
  const auto it =
      std::find(slo_chains_.begin(), slo_chains_.end(), chain);
  if (target > 0 && it == slo_chains_.end()) {
    slo_chains_.insert(
        std::upper_bound(slo_chains_.begin(), slo_chains_.end(), chain),
        chain);
  } else if (target == 0 && it != slo_chains_.end()) {
    slo_chains_.erase(it);
  }
}

const FlowCounters& Manager::flow_counters(flow::FlowId id) const {
  return id < flow_counters_.size() ? flow_counters_[id] : kZeroFlow;
}

void Manager::wakeup_scan() {
  const Cycles now = engine_.now();
  obs::inc(ctr_wakeup_scans_);
  // Pass 1: advance every local NF's backpressure state machine (remote
  // NFs' states arrive as kBpState mirrors from their owning lanes).
  for (flow::NfId id = 0; id < records_.size(); ++id) {
    if (records_[id].task == nullptr) continue;
    nf::NfTask& task = *records_[id].task;
    bp_->evaluate(id, task.rx_ring(), now);
    if (task.rx_ring().below_low_watermark()) task.set_overload_flag(false);
  }
  // Pass 2: classify — apply backpressure (relinquish flags) or wake (§3.5).
  for (flow::NfId id = 0; id < records_.size(); ++id) {
    if (records_[id].task == nullptr) continue;
    nf::NfTask& task = *records_[id].task;
    const bool pause =
        config_.enable_backpressure && bp_->should_pause_upstream(id);
    task.set_yield_flag(pause);
    if (pause || task.state() != sched::TaskState::kBlocked ||
        !task.has_runnable_work()) {
      continue;
    }
    // Coalescing: defer the wake until enough packets have pooled, but
    // never hold a packet past the age threshold.
    if (config_.wake_min_pending > 1 &&
        task.rx_ring().size() < config_.wake_min_pending) {
      const bool aged =
          config_.wake_age_threshold > 0 && !task.rx_ring().empty() &&
          now - task.rx_ring().head_enqueue_time() > config_.wake_age_threshold;
      if (!aged) continue;
    }
    records_[id].core->wake(&task);
  }
}

void Manager::monitor_tick() {
  const Cycles now = engine_.now();
  obs::inc(ctr_monitor_ticks_);
  for (auto& rec : records_) {
    if (rec.task == nullptr) continue;  // remote NF: its lane estimates it
    if (rec.life == fault::NfLifecycle::kDead ||
        rec.life == fault::NfLifecycle::kRestarting) {
      // A down NF consumes no CPU: zero its estimate but keep the offered
      // window contiguous so λ is correct on the first post-recovery tick.
      rec.last_load = 0.0;
      rec.offered_at_last_tick = rec.counters.offered;
      continue;
    }
    const std::uint64_t offered = rec.counters.offered;
    const auto delta = static_cast<double>(offered - rec.offered_at_last_tick);
    rec.offered_at_last_tick = offered;
    const double lambda =
        delta / static_cast<double>(kMonitorPeriod);  // pkts/cycle
    auto service =
        static_cast<double>(rec.task->estimated_service_time(now));
    if (service > 0.0) {
      rec.last_service = service;
    } else {
      service = rec.last_service;  // hold the last estimate through gaps
    }
    rec.has_estimate = service > 0.0;
    rec.last_load = lambda * service;  // load(i) = λ_i · s_i  (§3.2)
    rec.load_accum += rec.last_load;
    rec.offered_accum += delta;
  }
  // Tail telemetry rides the monitor cadence (DESIGN.md §16): re-rank each
  // SLO chain's window, advance its violation clock, mirror p99 to the
  // other lanes. Chains without targets cost nothing here.
  if (slo_active()) slo_observe(now);
  // Overload control rides the same cadences (DESIGN.md §17): the
  // admission shed ladders advance with the telemetry every tick, the
  // push-aside grab/give-back machine with the share updates.
  if (adm_ != nullptr) admission_evaluate(now);
  if (config_.push_aside.enabled) {
    // Sticky pressure sampling: a short ring can cross the high watermark
    // and drain again between share updates, so push-aside would never
    // see it at the 10 ms instants alone. Latch pressure every monitor
    // tick; push_aside_control consumes and clears the flags.
    for (flow::NfId id = 0; id < records_.size(); ++id) {
      NfRecord& rec = records_[id];
      if (rec.task == nullptr || rec.push_pressure) continue;
      rec.push_pressure =
          rec.task->rx_ring().above_high_watermark() ||
          (bp_ != nullptr && bp_->state(id) != bp::ThrottleState::kClear);
    }
  }
  if (++monitor_ticks_ % config_.share_updates_every == 0) {
    if (config_.slo.enabled && slo_active()) slo_control(now);
    if (config_.push_aside.enabled) push_aside_control(now);
    if (config_.enable_cgroups) update_shares();
    for (auto& rec : records_) {
      rec.load_accum = 0.0;
      rec.offered_accum = 0.0;
    }
  }
}

void Manager::slo_observe(Cycles now) {
  auto* tr = obs::trace_of(obs_);
  for (flow::ChainId chain : slo_chains_) {
    ChainSloState& st = chain_slo_[chain];
    // The estimator fills where the chain's last hop runs; every other
    // replica holds the mirrored p99 and skips the bookkeeping below (so
    // violation time is never double-counted across lanes).
    const flow::NfId tail_hop = chain < chain_tails_hop_.size()
                                    ? chain_tails_hop_[chain]
                                    : static_cast<flow::NfId>(-1);
    if (tail_hop >= records_.size() || records_[tail_hop].task == nullptr) {
      continue;
    }
    const obs::LatencyEstimator& est = chain_tail(chain);
    if (est.size() < kSloMinSamples) continue;
    st.last_p99 = static_cast<Cycles>(est.quantile(0.99));
    const bool violating = st.last_p99 > st.target;
    if (violating) st.violation_cycles += kMonitorPeriod;
    if (violating != st.violating) {
      st.violating = violating;
      if (tr != nullptr) {
        tr->instant(
            now, obs::kSloLane, "slo",
            violating ? "violation_begin" : "violation_end",
            {{"chain", chains_.get(chain).name}},
            {{"p99_cycles", static_cast<std::int64_t>(st.last_p99)},
             {"target_cycles", static_cast<std::int64_t>(st.target)}});
      }
      // Admission engage trigger (DESIGN.md §17): the gate runs on the
      // chain's *home* lane but the violation clock lives here, on the
      // tail's lane — mirror the flip. Gated on the chain having a class,
      // so runs without admission post zero extra messages.
      if (shard_link_ != nullptr && adm_ != nullptr && adm_->has_class(chain)) {
        ShardMsg msg;
        msg.kind = ShardMsg::Kind::kChainOverload;
        msg.nf = static_cast<flow::NfId>(chain);
        msg.tail_p99 = violating ? 1 : 0;
        broadcast_remote(msg);
      }
    }
    if (tr != nullptr) {
      tr->counter(now, obs::kSloLane, "slo", "chain_p99",
                  chains_.get(chain).name,
                  static_cast<std::int64_t>(st.last_p99));
    }
    // The mirror exists for remote replicas' boost decisions; rate-cost
    // fair runs (controller off) keep their message sequence unchanged.
    if (shard_link_ != nullptr && config_.slo.enabled) {
      ShardMsg msg;
      msg.kind = ShardMsg::Kind::kChainTail;
      msg.nf = static_cast<flow::NfId>(chain);
      msg.tail_p99 = static_cast<std::uint64_t>(st.last_p99);
      broadcast_remote(msg);
    }
  }
}

void Manager::slo_control(Cycles now) {
  auto* tr = obs::trace_of(obs_);
  // Earliest-slack-first: rank violating chains by slack = target - p99
  // (most negative, i.e. worst, first; ties by chain id) and boost at most
  // kSloMaxBoostsPerUpdate of them this round. Chains comfortably inside
  // their target (p99 < headroom*target) decay back toward exactly 1.0,
  // at which point the allocation is again pure rate-cost fairness.
  std::vector<std::pair<double, flow::ChainId>> violating;
  for (flow::ChainId chain : slo_chains_) {
    ChainSloState& st = chain_slo_[chain];
    if (st.last_p99 == 0) continue;  // no evidence yet (local or mirrored)
    const double slack = static_cast<double>(st.target) -
                         static_cast<double>(st.last_p99);
    if (slack < 0.0) {
      st.clear_streak = 0;
      violating.emplace_back(slack, chain);
    } else if (static_cast<double>(st.last_p99) <
               kSloHeadroom * static_cast<double>(st.target)) {
      // Recovered update: decay only after kSloDecayAfter consecutive
      // clear updates, so one quiet window under persistent contention
      // doesn't throw the working boost away.
      if (st.boost > 1.0 && ++st.clear_streak >= kSloDecayAfter) {
        st.clear_streak = 0;
        st.boost = st.boost * kSloDecay;
        if (st.boost < 1.0 + 1e-9) st.boost = 1.0;  // settle exactly
        if (tr != nullptr) {
          tr->counter(now, obs::kSloLane, "slo", "chain_boost",
                      chains_.get(chain).name,
                      static_cast<std::int64_t>(st.boost * 1000.0));
        }
      }
    }
  }
  std::sort(violating.begin(), violating.end());
  const std::size_t limit = std::min<std::size_t>(
      violating.size(), kSloMaxBoostsPerUpdate);
  for (std::size_t i = 0; i < limit; ++i) {
    ChainSloState& st = chain_slo_[violating[i].second];
    const double before = st.boost;
    st.boost = std::min(kSloMaxBoost, st.boost * kSloBoostStep);
    if (st.boost != before && tr != nullptr) {
      tr->counter(now, obs::kSloLane, "slo", "chain_boost",
                  chains_.get(violating[i].second).name,
                  static_cast<std::int64_t>(st.boost * 1000.0));
    }
  }
}

double Manager::slo_boost_of(flow::NfId id) const {
  double boost = 1.0;
  for (flow::ChainId chain : chains_.chains_through(id)) {
    if (chain < chain_slo_.size()) {
      boost = std::max(boost, chain_slo_[chain].boost);
    }
  }
  return boost;
}

// ---------------------------------------------------------------------------
// Overload control: ingress admission + PAM push-aside (DESIGN.md §17)
// ---------------------------------------------------------------------------

void Manager::set_chain_class(flow::ChainId chain, bp::ClassSpec spec) {
  assert(!started_ && "register flow classes before start()");
  if (adm_ == nullptr) {
    adm_ = std::make_unique<bp::AdmissionController>(config_.admission);
  }
  adm_->set_class(chain, spec);
}

void Manager::admission_evaluate(Cycles now) {
  // The gate lives where ingress happens — each classed chain's home (head)
  // lane. Replicas holding the chain's head as a remote placeholder skip
  // it: their ladders stay idle and the merged adm.* counters equal the
  // home lane's, keeping reports identical at any worker count.
  adm_inputs_.clear();
  for (flow::ChainId chain = 0; chain < chains_.size(); ++chain) {
    if (!adm_->has_class(chain)) continue;
    const flow::NfId head = chain_head(chain);
    if (head >= records_.size() || records_[head].task == nullptr) continue;
    const pktio::Ring& rx = records_[head].task->rx_ring();
    bp::AdmissionInput in;
    in.chain = chain;
    in.group = head;
    in.occupancy =
        rx.capacity() > 0
            ? static_cast<double>(rx.size()) / static_cast<double>(rx.capacity())
            : 0.0;
    // Locally observed for tail-local chains, kChainOverload-mirrored for
    // chains whose last hop runs on another lane.
    in.violating = chain < chain_slo_.size() && chain_slo_[chain].violating;
    adm_inputs_.push_back(in);
  }
  if (!adm_inputs_.empty()) adm_->evaluate(now, adm_inputs_);
}

void Manager::push_aside_control(Cycles now) {
  // PAM-style cycle borrowing: an NF whose RX queue sits over the high
  // watermark confiscates a share slice from each *lower-priority* NF on
  // its core — multiplicative grab with a floor, additive give-back once
  // the pressure clears, and a minimum hold so a queue flickering at the
  // watermark cannot flap the weights. Everything here is core-local, so
  // no shard mirroring is needed: each lane runs the machine for its own
  // cores and remote replicas report the neutral 1.0.
  auto* tr = obs::trace_of(obs_);
  // "Overloaded" means queue pressure at any monitor tick since the last
  // share update (the sticky flag monitor_tick latches from the ring level
  // and the backpressure hysteresis state), so a ring oscillating across
  // the watermark between updates still registers.
  const auto overloaded = [](flow::NfId, const NfRecord& rec) {
    return rec.push_pressure || rec.task->rx_ring().above_high_watermark();
  };
  for (flow::NfId vid = 0; vid < records_.size(); ++vid) {
    NfRecord& victim = records_[vid];
    if (victim.task == nullptr) continue;
    if (victim.life != fault::NfLifecycle::kRunning) continue;
    // An overloaded NF is never a victim itself, whatever its priority —
    // two overloaded neighbors must not grab from each other.
    const bool self_overloaded = overloaded(vid, victim);
    bool pressed = false;
    if (!self_overloaded) {
      for (flow::NfId aid = 0; aid < records_.size() && !pressed; ++aid) {
        if (aid == vid) continue;
        const NfRecord& a = records_[aid];
        if (a.task == nullptr || a.core != victim.core) continue;
        if (a.life != fault::NfLifecycle::kRunning) continue;
        if (a.task->priority() <= victim.task->priority()) continue;
        pressed = overloaded(aid, a);
      }
    }
    if (pressed) {
      victim.push_hold = kPushMinHoldUpdates;
      if (victim.push_scale > kPushVictimFloor) {
        victim.push_scale =
            std::max(kPushVictimFloor, victim.push_scale / kPushGrabFactor);
        ++victim.push_grabs;
        if (tr != nullptr) {
          tr->instant(now, obs::kAdmissionLane, "pam", "grab",
                      {{"victim", victim.name}},
                      {{"scale_x1000", static_cast<std::int64_t>(
                                           victim.push_scale * 1000.0)}});
        }
      }
    } else if (victim.push_scale < 1.0) {
      if (victim.push_hold > 0) {
        --victim.push_hold;
        continue;
      }
      // min() settles the scale to exactly 1.0, restoring the bit-exact
      // rate-cost allocation once the borrow is fully repaid.
      victim.push_scale = std::min(1.0, victim.push_scale + kPushGivebackStep);
      ++victim.push_givebacks;
      if (tr != nullptr) {
        tr->instant(now, obs::kAdmissionLane, "pam", "give_back",
                    {{"victim", victim.name}},
                    {{"scale_x1000", static_cast<std::int64_t>(
                                         victim.push_scale * 1000.0)}});
      }
    }
  }
  // Fresh pressure window for the next update period.
  for (auto& rec : records_) rec.push_pressure = false;
}

void Manager::update_shares() {
  // Shares_i = Priority_i · Boost_i · load(i) / TotalLoad(m), per shared
  // core m. With every boost at 1.0 — controller disabled, or all SLO
  // chains inside target — this is exactly the paper's rate-cost
  // proportional rule, and the multiplications by 1.0 leave the floating
  // point arithmetic (hence the written shares) bit-identical to a build
  // without the SLO path. Loads are averaged over the ticks since the
  // last update to smooth the 1 ms estimates before touching the (costly)
  // cgroup filesystem.
  const bool boosting = config_.slo.enabled && slo_active();
  // Push-aside composes as a second multiplier on the same weight: a
  // victim's confiscated slice (push_scale < 1) shrinks its numerator and
  // the shared denominator, handing the freed share to its core peers.
  // Disabled it contributes literal 1.0, like the boost term.
  const bool pushing = config_.push_aside.enabled;
  std::vector<sched::Core*> seen;
  for (auto& rec : records_) {
    if (rec.task == nullptr) continue;  // remote NF: no core on this lane
    if (std::find(seen.begin(), seen.end(), rec.core) != seen.end()) continue;
    seen.push_back(rec.core);
    double total = 0.0;
    for (flow::NfId oid = 0; oid < records_.size(); ++oid) {
      auto& other = records_[oid];
      if (other.core == rec.core) {
        const double w = boosting ? slo_boost_of(oid) : 1.0;
        const double g = pushing ? other.push_scale : 1.0;
        total += other.task->priority() * w * g * other.load_accum;
      }
    }
    if (total <= 0.0) continue;
    for (flow::NfId oid = 0; oid < records_.size(); ++oid) {
      auto& other = records_[oid];
      if (other.core != rec.core) continue;
      // A down NF keeps the released kMinShares written at death; writing
      // kShareFloor here would hand it CPU weight it cannot use.
      if (other.life == fault::NfLifecycle::kDead ||
          other.life == fault::NfLifecycle::kRestarting) {
        continue;
      }
      // Bootstrap rule: an NF with offered traffic but no service-time
      // estimate yet (warm-up samples still being discarded) keeps its
      // current weight — writing a near-zero share would starve it before
      // the estimator ever sees a sample.
      if (!other.has_estimate && other.offered_accum > 0.0) continue;
      const double w = boosting ? slo_boost_of(oid) : 1.0;
      const double g = pushing ? other.push_scale : 1.0;
      const double frac =
          other.task->priority() * w * g * other.load_accum / total;
      const auto shares = static_cast<std::uint32_t>(std::max(
          static_cast<double>(kShareFloor),
          std::round(frac * kShareScale)));
      const Cycles cost = cgroup_.set_shares(*other.task, shares);
      if (cost > 0) {  // an actual sysfs write, not a skipped no-change
        obs::inc(other.shares_writes);
        obs::set(other.cpu_shares, static_cast<double>(shares));
        if (auto* tr = obs::trace_of(obs_)) {
          tr->counter(engine_.now(), obs::kManagerLane, "mgr", "cpu_shares",
                      other.task->config().name,
                      static_cast<std::int64_t>(shares));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fault & lifecycle subsystem (DESIGN.md §11)
// ---------------------------------------------------------------------------

void Manager::enable_lifecycle() {
  assert(!started_ && "enable the lifecycle before start()");
  config_.lifecycle.enabled = true;
}

void Manager::set_dead_policy(flow::ChainId chain, fault::DeadNfPolicy policy) {
  if (chain >= chain_policy_.size()) {
    chain_policy_.resize(chain + 1, fault::kDefaultDeadPolicy);
  }
  chain_policy_[chain] = policy;
}

fault::DeadNfPolicy Manager::dead_policy(flow::ChainId chain) const {
  return chain < chain_policy_.size() ? chain_policy_[chain]
                                      : fault::kDefaultDeadPolicy;
}

bool Manager::all_policies_backpressure(flow::NfId nf) const {
  for (flow::ChainId chain : chains_.chains_through(nf)) {
    if (dead_policy(chain) != fault::DeadNfPolicy::kBackpressure) return false;
  }
  return true;
}

void Manager::trace_lifecycle(flow::NfId id, const char* from, const char* to,
                              Cycles now) {
  if (auto* tr = obs::trace_of(obs_)) {
    tr->instant(now, obs::kLifecycleLane, "life", "nf_lifecycle",
                {{"nf", records_[id].task->config().name},
                 {"from", from},
                 {"to", to}});
  }
}

void Manager::inject_crash(flow::NfId nf, Cycles restart_after) {
  assert(config_.lifecycle.enabled && "install a fault plan before start()");
  NfRecord& rec = records_[nf];
  if (rec.task->dead()) return;  // already down: nothing left to kill
  rec.crashed_at = engine_.now();
  rec.pending_restart_delay = restart_after;
  rec.task->crash();  // data-plane fact; the watchdog discovers it next scan
  if (auto* tr = obs::trace_of(obs_)) {
    tr->instant(engine_.now(), obs::kLifecycleLane, "life", "inject_crash",
                {{"nf", rec.task->config().name}});
  }
}

void Manager::inject_stall(flow::NfId nf, Cycles restart_after) {
  assert(config_.lifecycle.enabled && "install a fault plan before start()");
  NfRecord& rec = records_[nf];
  if (rec.task->dead() || rec.task->stalled()) return;
  rec.crashed_at = engine_.now();
  rec.pending_restart_delay = restart_after;
  rec.task->stall();
  if (auto* tr = obs::trace_of(obs_)) {
    tr->instant(engine_.now(), obs::kLifecycleLane, "life", "inject_stall",
                {{"nf", rec.task->config().name}});
  }
  // A wedged process is spinning, not sleeping: if it was blocked, make it
  // runnable so it takes (and squats on) the CPU like a real straggler.
  if (rec.task->state() == sched::TaskState::kBlocked) {
    rec.core->wake(rec.task);
  }
}

void Manager::inject_degrade(flow::NfId nf, double factor) {
  assert(config_.lifecycle.enabled && "install a fault plan before start()");
  NfRecord& rec = records_[nf];
  if (!rec.degraded) {
    rec.pre_degrade_scale = rec.task->cost_model().scale();
    rec.degraded = true;
  }
  rec.task->cost_model().set_scale(rec.pre_degrade_scale * factor);
  if (auto* tr = obs::trace_of(obs_)) {
    tr->instant(engine_.now(), obs::kLifecycleLane, "life", "inject_degrade",
                {{"nf", rec.task->config().name}},
                {{"factor_x1000",
                  static_cast<std::int64_t>(factor * 1000.0)}});
  }
}

void Manager::restore_degrade(flow::NfId nf) {
  NfRecord& rec = records_[nf];
  if (!rec.degraded) return;
  rec.task->cost_model().set_scale(rec.pre_degrade_scale);
  rec.degraded = false;
  if (auto* tr = obs::trace_of(obs_)) {
    tr->instant(engine_.now(), obs::kLifecycleLane, "life", "restore_degrade",
                {{"nf", rec.task->config().name}});
  }
}

void Manager::watchdog_scan() {
  const Cycles now = engine_.now();
  for (flow::NfId id = 0; id < records_.size(); ++id) {
    NfRecord& rec = records_[id];
    if (rec.task == nullptr) continue;  // remote NF: its lane watches it
    nf::NfTask& task = *rec.task;
    switch (rec.life) {
      case fault::NfLifecycle::kRunning: {
        if (task.dead()) {  // crash injected since the last scan
          on_nf_death(id, now, /*forced=*/false);
          break;
        }
        // Heartbeat: "progress" is the processed-packet counter advancing.
        // An NF is a suspect when it makes none despite either holding the
        // CPU (a spinning straggler) or having work and getting CPU time (a
        // wedged consumer). A starved-but-healthy NF — work pending, no CPU
        // granted — is never a suspect, so share starvation cannot be
        // misdiagnosed as death.
        const std::uint64_t processed = task.counters().processed;
        const Cycles runtime = task.stats().runtime;
        const bool progressed = processed != rec.wd_last_processed;
        const bool on_cpu = task.state() == sched::TaskState::kRunning;
        const bool pending =
            task.in_flight_packets() > 0 || !task.rx_ring().empty();
        const bool runtime_advanced = runtime != rec.wd_last_runtime;
        rec.wd_last_processed = processed;
        rec.wd_last_runtime = runtime;
        const bool suspect =
            !progressed && (on_cpu || (pending && runtime_advanced));
        if (!suspect) {
          rec.stuck_count = 0;
          break;
        }
        if (++rec.stuck_count >= fault::kStuckScans) {
          task.crash();  // watchdog kill: SIGKILL the straggler
          on_nf_death(id, now, /*forced=*/true);
        }
        break;
      }
      case fault::NfLifecycle::kDead:
        if (rec.restart_pending && now >= rec.restart_at) {
          begin_restart(id, now);
        }
        break;
      case fault::NfLifecycle::kRestarting:
        break;  // waiting on the async cold-state reload
      case fault::NfLifecycle::kWarming:
        if (task.dead()) {  // re-crashed before warm-up completed
          on_nf_death(id, now, /*forced=*/false);
          break;
        }
        if (now >= rec.warm_until) complete_recovery(id, now);
        break;
    }
  }
}

void Manager::on_nf_death(flow::NfId id, Cycles now, bool forced) {
  NfRecord& rec = records_[id];
  const char* from = fault::to_string(rec.life);
  if (rec.life == fault::NfLifecycle::kWarming) {
    // Re-crash before full recovery: fold the first outage's downtime in
    // now, since complete_recovery() will only see the second one.
    rec.lstats.downtime_cycles += now - rec.down_since;
  }
  rec.life = fault::NfLifecycle::kDead;
  rec.down_since = now;
  ++rec.lstats.crashes;
  if (forced) ++rec.lstats.forced_crashes;
  rec.lstats.last_detect_latency = now - rec.crashed_at;
  rec.stuck_count = 0;

  // Release the dead process's CPU weight (its cgroup is torn down; CFS
  // redistributes to the survivors on the same core immediately).
  if (config_.enable_cgroups) {
    cgroup_.set_shares(*rec.task, sched::CGroupController::kMinShares);
    obs::set(rec.cpu_shares,
             static_cast<double>(sched::CGroupController::kMinShares));
  }
  rec.last_load = 0.0;
  rec.load_accum = 0.0;
  rec.has_estimate = false;
  // A dead NF holds no borrowed-from slice: clear any push-aside grab so
  // the fresh process starts at the neutral weight (its replacement's
  // shares are re-derived from scratch anyway).
  rec.push_scale = 1.0;
  rec.push_hold = 0;

  for (flow::ChainId chain : chains_.chains_through(id)) {
    if (chain >= dead_on_chain_.size()) dead_on_chain_.resize(chain + 1, 0);
    ++dead_on_chain_[chain];
  }
  // Dead-NF backpressure composition: pin the NF at Throttle so its chains
  // shed at the entry point, exactly like a queue stuck over the high
  // watermark. Only when every chain through it wants that policy — a
  // bypass/buffer chain must keep flowing.
  if (config_.enable_backpressure && all_policies_backpressure(id)) {
    bp_->force_dead(id, now);
  }

  const Cycles delay = rec.pending_restart_delay >= 0
                           ? rec.pending_restart_delay
                           : fault::kDefaultRestartDelay;
  rec.restart_at = now + delay;
  rec.restart_pending = true;
  rec.pending_restart_delay = fault::kDefaultRestart;
  trace_lifecycle(id, from, "DEAD", now);
  if (shard_link_ != nullptr) {
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kNfDeath;
    msg.nf = id;
    broadcast_remote(msg);
  }
}

void Manager::begin_restart(flow::NfId id, Cycles now) {
  NfRecord& rec = records_[id];
  rec.restart_pending = false;
  rec.life = fault::NfLifecycle::kRestarting;
  ++rec.lstats.restarts;
  trace_lifecycle(id, "DEAD", "RESTARTING", now);
  // Cold-state reload rides the NF's §3.4 double-buffered async-I/O path
  // when it has one (state lives behind the same device its handlers use);
  // stateless NFs pay a fixed spawn+mmap latency instead.
  if (auto* io = rec.task->io()) {
    // A failing device must not wedge the restart: if the reload read
    // exhausts its retry budget, fall back to the stateless spawn latency
    // (operationally: restore from the warm peer instead of local disk).
    io->read(
        fault::kReloadBytes, [this, id] { finish_restart(id); },
        [this, id] {
          engine_.schedule_after(fault::kReloadLatency,
                                 [this, id] { finish_restart(id); });
        });
  } else {
    engine_.schedule_after(fault::kReloadLatency,
                           [this, id] { finish_restart(id); });
  }
}

void Manager::finish_restart(flow::NfId id) {
  NfRecord& rec = records_[id];
  if (rec.life != fault::NfLifecycle::kRestarting) return;
  const Cycles now = engine_.now();
  rec.life = fault::NfLifecycle::kWarming;
  rec.warm_until = now + fault::kWarmDuration;
  rec.task->revive(now);
  // The fresh process starts at the cgroup default weight; the monitor
  // re-derives its proportional share once the estimator warms up.
  if (config_.enable_cgroups) {
    cgroup_.set_shares(*rec.task, sched::kDefaultWeight);
    obs::set(rec.cpu_shares, static_cast<double>(sched::kDefaultWeight));
  }
  // Drop the dead-NF latch only: the state stays Throttle until the normal
  // Fig. 4 hysteresis clears it below the low watermark — entry discard
  // keeps protecting the revived NF while it digests its backlog.
  if (config_.enable_backpressure) bp_->clear_dead(id, now);
  for (flow::ChainId chain : chains_.chains_through(id)) {
    if (chain < dead_on_chain_.size() && dead_on_chain_[chain] > 0) {
      --dead_on_chain_[chain];
    }
  }
  rec.load_accum = 0.0;
  rec.offered_accum = 0.0;
  rec.has_estimate = false;
  rec.wd_last_processed = rec.task->counters().processed;
  rec.wd_last_runtime = rec.task->stats().runtime;
  rec.stuck_count = 0;
  trace_lifecycle(id, "RESTARTING", "WARMING", now);
  if (shard_link_ != nullptr) {
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kNfRevive;
    msg.nf = id;
    broadcast_remote(msg);
  }
  // Its RX ring survived the outage in manager-owned shared memory; if a
  // backlog is waiting, put the revived process straight to work.
  if (rec.task->has_runnable_work()) rec.core->wake(rec.task);
}

void Manager::complete_recovery(flow::NfId id, Cycles now) {
  NfRecord& rec = records_[id];
  rec.life = fault::NfLifecycle::kRunning;
  ++rec.lstats.recoveries;
  rec.lstats.downtime_cycles += now - rec.down_since;
  trace_lifecycle(id, "WARMING", "RUNNING", now);
}

void Manager::skip_dead_hops(pktio::Mbuf* pkt, flow::ChainId chain) {
  const auto& hops = chains_.get(chain).hops;
  auto& cc = chain_counters_[chain];
  while (pkt->chain_pos < hops.size()) {
    const NfRecord& hop = records_[hops[pkt->chain_pos]];
    const bool dead = hop.task != nullptr ? hop.task->dead() : hop.remote_dead;
    if (!dead) break;
    ++cc.bypassed_hops;
    ++pkt->chain_pos;
  }
}

}  // namespace nfv::mgr
