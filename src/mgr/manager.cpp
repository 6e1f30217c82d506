#include "mgr/manager.hpp"

#include <algorithm>
#include <cassert>
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
}  // namespace

Manager::Manager(sim::Engine& engine, pktio::MbufPool& pool,
                 flow::FlowTable& flows, flow::ChainRegistry& chains,
                 ManagerConfig config, obs::Observability* obs)
    : engine_(engine),
      pool_(pool),
      flows_(flows),
      chains_(chains),
      config_(config),
      alloc_(obs),
      obs_(obs) {
  if (config_.push_aside.enabled) push_ = std::make_unique<PushAside>(obs);
  if (obs_ != nullptr) {
    obs::Scope scope = obs_->global_scope();
    scope.counter_fn("mgr.unmatched_drops", [this] { return unmatched_drops_; });
    scope.counter_fn("mgr.wakeup_scans", [this] { return wakeup_scans_; });
    scope.counter_fn("mgr.monitor_ticks", [this] {
      return static_cast<std::uint64_t>(monitor_ticks_);
    });
    scope.counter_fn("mgr.wire_ingress", [this] { return wire_ingress_; });
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
    // enqueue_to_nf is the only path onto the RX ring, and it counts what
    // it places there as the NF's arrivals.
    scope.counter_fn("mgr.rx_enqueued",
                     [task] { return task->counters().arrivals; });
    scope.counter_fn("mgr.rx_full_drops", [this, id] {
      return records_[id].counters.rx_full_drops;
    });
    scope.counter_fn("mgr.wasted_drops_here", [this, id] {
      return records_[id].counters.wasted_drops_here;
    });
    scope.counter_fn("mgr.downstream_drops", [this, id] {
      return records_[id].counters.downstream_drops;
    });
    // Registered with or without a lifecycle (then they read 0).
    scope.counter_fn("life.crashes",
                     [this, id] { return nf_lifecycle_stats(id).crashes; });
    scope.counter_fn("life.forced_crashes", [this, id] {
      return nf_lifecycle_stats(id).forced_crashes;
    });
    scope.counter_fn("life.restarts",
                     [this, id] { return nf_lifecycle_stats(id).restarts; });
    scope.counter_fn("life.recoveries",
                     [this, id] { return nf_lifecycle_stats(id).recoveries; });
    scope.counter_fn("life.downtime_cycles", [this, id] {
      return static_cast<std::uint64_t>(
          nf_lifecycle_stats(id).downtime_cycles);
    });
    // The marker exists from start(); before it, nothing was marked.
    scope.counter_fn("mgr.ecn_marks", [this, id] {
      return ecn_ != nullptr ? ecn_->marks(id) : 0;
    });
  }
}

void Manager::set_shard_link(ShardLink* link, std::uint32_t lane) {
  assert(!started_ && "wire the shard link before start()");
  shard_link_ = link;
  lane_id_ = lane;
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
  msg.when = engine_.now() + kCrossLaneLatency;
  ++shard_tx_msgs_;
  shard_link_->post(lane_id_, dst, msg);
}

void Manager::broadcast_remote(ShardMsg& msg) {
  if (shard_link_ == nullptr) return;
  for (std::uint32_t dst = 0; dst < shard_link_->lane_count(); ++dst) {
    if (dst != lane_id_) post_remote(dst, msg);
  }
}

void Manager::apply_shard_run(const ShardMsg* msgs, std::size_t n) {
  for (std::size_t i = 0, end = 0; i < n; i = end) {
    const ShardMsg& first = msgs[i];
    const bool packet = first.kind == ShardMsg::Kind::kPacket;
    end = i + 1;
    while (packet && end < n && msgs[end].kind == ShardMsg::Kind::kPacket &&
           msgs[end].nf == first.nf) {
      ++end;
    }
    const std::size_t k = end - i;
    if (!packet || pool_.available() < k) {
      for (std::size_t m = i; m < end; ++m) apply_shard_msg(msgs[m]);
      continue;
    }
    // With room for all k, k one-message applies would each get a
    // descriptor too (an rx_full drop frees its own before the next alloc);
    // taking them first changes only which pool slot a packet holds.
    if (rx_burst_.size() < k) rx_burst_.resize(k);
    pool_.alloc_burst(rx_burst_.data(), static_cast<std::uint32_t>(k));
    const Cycles now = engine_.now();
    for (std::size_t m = 0; m < k; ++m) {
      pktio::Mbuf* pkt = rx_burst_[m];
      const auto pool_index = pkt->pool_index;
      *pkt = msgs[i + m].pkt;
      pkt->pool_index = pool_index;  // descriptor identity stays local
      pkt->enqueue_time = now;
    }
    shard_rx_msgs_ += k;
    enqueue_to_nf(first.nf, rx_burst_.data(), k);
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
    case ShardMsg::Kind::kNfDeath:
    case ShardMsg::Kind::kNfRevive:
      // Only lanes that armed a lifecycle broadcast these, and a fault
      // plan arms every lane.
      life_->mirror(msg.nf, msg.kind == ShardMsg::Kind::kNfDeath);
      break;
    case ShardMsg::Kind::kDownstreamDrop:
      ++records_[msg.nf].counters.downstream_drops;
      break;
    case ShardMsg::Kind::kChainTail:
    case ShardMsg::Kind::kChainOverload:
      // p99 and violating-flag mirrors from the chain's estimator-owning
      // lane: the violation clock advances on that lane alone. A lane with
      // no target holds no NF of the chain and ignores them.
      if (slo_ != nullptr) slo_->mirror(msg);
      break;
  }
}

void Manager::start(const std::vector<fault::DeadNfPolicy>* lifecycle) {
  assert(!started_);
  started_ = true;
  chain_counters_.assign(std::max<std::size_t>(chains_.size(), 1), {});
  // Pre-size the per-chain/per-flow bookkeeping and freeze the chain-head
  // cache now, so the per-packet paths below never grow a vector or walk
  // the chain registry mid-burst (the lazy resizes remain only as a safety
  // net for out-of-registry ids).
  chain_latency_.resize(chain_counters_.size(), chain_latency_histogram());
  chain_tail_.resize(chain_counters_.size(), obs::LatencyEstimator());
  flow_counters_.reserve(flows_.size() + 64);
  chain_heads_.resize(chains_.size());
  for (flow::ChainId id = 0; id < chains_.size(); ++id) {
    const auto& hops = chains_.get(id).hops;
    chain_heads_[id] =
        hops.empty() ? static_cast<flow::NfId>(-1) : hops.front();
  }
  for (flow::NfId id = 0; id < records_.size(); ++id) {
    const NfRecord& rec = records_[id];
    if (rec.task == nullptr) continue;  // remote: its lane's controllers
    alloc_.add_nf(id, rec.task, rec.core);
    if (push_ != nullptr) push_->add_nf(id, rec.task, rec.core);
  }
  bp_ = std::make_unique<bp::BackpressureManager>(chains_, records_.size(),
                                                  config_.backpressure);
  ecn_ = std::make_unique<bp::EcnMarker>(records_.size(), config_.ecn);
  if (shard_link_ != nullptr) {
    // Every real transition of a local NF is mirrored to the other lanes so
    // their chain_throttled()/should_pause_upstream() views stay coherent.
    bp_->set_state_listener(
        [this](flow::NfId nf, bp::ThrottleState to, Cycles) {
          ShardMsg msg{.kind = ShardMsg::Kind::kBpState, .bp_state = to,
                       .nf = nf};
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
    // Overload-control probes (DESIGN.md §17) register only when the
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
  }
  engine_.schedule_periodic(kWakeupPeriod, [this] { wakeup_scan(); });
  engine_.schedule_periodic(kMonitorPeriod, [this] { monitor_tick(); });
  // Only a lifecycle schedules a watchdog: unfaulted runs replay exactly.
  if (lifecycle != nullptr) {
    life_ = std::make_unique<Lifecycle>(*this, *lifecycle);
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
    unmatched_drops_ += n;
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
      if (auto* tr = obs::trace_of(obs_)) {
        tr->instant(arrivals[i], obs::kAdmissionLane, "adm", "drop",
                    {{"reason", "admission"}},
                    {{"chain", static_cast<std::int64_t>(chain)}});
      }
      pool_.free(pkt);
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
    chain_counters_[first.chain_id].bypassed_hops +=
        life_->skip_dead_hops(first);
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
      pool_.free(pkt);
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

void Manager::set_slo_target(flow::ChainId chain, Cycles target) {
  if (slo_ == nullptr) {
    slo_ = std::make_unique<SloController>(chains_, obs_,
                                           config_.slo.enabled);
  }
  // The chain's estimator fills where its last hop runs.
  const flow::NfId tail = chain < chains_.size()
                              ? chains_.get(chain).hops.back()
                              : static_cast<flow::NfId>(records_.size());
  slo_->set_target(chain, target,
                   tail < records_.size() && records_[tail].task != nullptr);
}

const FlowCounters& Manager::flow_counters(flow::FlowId id) const {
  return id < flow_counters_.size() ? flow_counters_[id] : kZeroFlow;
}

void Manager::wakeup_scan() {
  const Cycles now = engine_.now();
  ++wakeup_scans_;
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
  for (flow::NfId id = 0; id < records_.size(); ++id) {
    if (records_[id].task == nullptr) continue;  // remote: its lane estimates
    alloc_.estimate(id, records_[id].counters.offered, now);
  }
  // Tail telemetry rides the monitor cadence (DESIGN.md §16): re-rank each
  // SLO chain's window, advance its violation clock, mirror what the other
  // lanes need. Chains without targets cost nothing here.
  if (slo_ != nullptr) {
    for (ShardMsg& msg :
         slo_->observe(now, chain_tail_, adm_.get(), shard_link_ != nullptr)) {
      broadcast_remote(msg);
    }
  }
  // Overload control rides the same cadences (DESIGN.md §17): the
  // admission shed ladders advance with the telemetry every tick, the
  // push-aside grab/give-back machine with the share updates.
  if (adm_ != nullptr) admission_evaluate(now);
  if (push_ != nullptr) push_->latch(bp_.get());
  if (++monitor_ticks_ % config_.share_updates_every == 0) {
    // The allocator's multipliers, in this order; an unarmed one is absent.
    const SloController* boost =
        slo_ != nullptr && slo_->boosting() ? slo_.get() : nullptr;
    if (boost != nullptr) slo_->update(now);
    if (push_ != nullptr) push_->update(now, life_.get());
    if (config_.enable_cgroups) alloc_.update_shares(now, boost, push_.get());
    alloc_.reset_window();
  }
}

// ---------------------------------------------------------------------------
// Overload control: ingress admission (DESIGN.md §17)
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
    in.violating = slo_ != nullptr && slo_->state(chain).violating;
    adm_inputs_.push_back(in);
  }
  if (!adm_inputs_.empty()) adm_->evaluate(now, adm_inputs_);
}

}  // namespace nfv::mgr
