#include "mgr/lifecycle.hpp"

#include <algorithm>
#include <cassert>

#include "mgr/manager.hpp"

namespace nfv::mgr {

Lifecycle::Lifecycle(Manager& mgr,
                     const std::vector<fault::DeadNfPolicy>& policies)
    : mgr_(mgr),
      policies_(policies),
      nfs_(mgr.records_.size()),
      dead_on_chain_(std::max<std::size_t>(mgr.chains_.size(), 1), 0) {
  mgr_.engine_.schedule_periodic(fault::kWatchdogPeriod, [this] { scan(); });
}

void Lifecycle::trace(flow::NfId id, const char* event, const char* from,
                      const char* to) {
  auto* tr = obs::trace_of(mgr_.obs_);
  if (tr == nullptr) return;
  const std::string& nf = mgr_.records_[id].task->config().name;
  const Cycles now = mgr_.engine_.now();
  if (from == nullptr) {
    tr->instant(now, obs::kLifecycleLane, "life", event, {{"nf", nf}});
  } else {
    tr->instant(now, obs::kLifecycleLane, "life", event,
                {{"nf", nf}, {"from", from}, {"to", to}});
  }
}

void Lifecycle::inject_crash(flow::NfId nf, Cycles restart_after) {
  nf::NfTask& task = *mgr_.records_[nf].task;
  if (task.dead()) return;  // already down: nothing left to kill
  nfs_[nf].crashed_at = mgr_.engine_.now();
  nfs_[nf].pending_restart_delay = restart_after;
  task.crash();  // data-plane fact; the watchdog discovers it next scan
  trace(nf, "inject_crash");
}

void Lifecycle::inject_stall(flow::NfId nf, Cycles restart_after) {
  nf::NfTask& task = *mgr_.records_[nf].task;
  if (task.dead() || task.stalled()) return;
  nfs_[nf].crashed_at = mgr_.engine_.now();
  nfs_[nf].pending_restart_delay = restart_after;
  task.stall();
  trace(nf, "inject_stall");
  // A wedged process is spinning, not sleeping: if it was blocked, make it
  // runnable so it takes (and squats on) the CPU like a real straggler.
  if (task.state() == sched::TaskState::kBlocked) {
    mgr_.records_[nf].core->wake(&task);
  }
}

void Lifecycle::inject_degrade(flow::NfId nf, double factor) {
  Nf& st = nfs_[nf];
  nf::NfTask& task = *mgr_.records_[nf].task;
  if (!st.degraded) {
    st.pre_degrade_scale = task.cost_model().scale();
    st.degraded = true;
  }
  task.cost_model().set_scale(st.pre_degrade_scale * factor);
  if (auto* tr = obs::trace_of(mgr_.obs_)) {
    tr->instant(mgr_.engine_.now(), obs::kLifecycleLane, "life",
                "inject_degrade", {{"nf", task.config().name}},
                {{"factor_x1000", static_cast<std::int64_t>(factor * 1000.0)}});
  }
}

void Lifecycle::restore_degrade(flow::NfId nf) {
  Nf& st = nfs_[nf];
  if (!st.degraded) return;
  mgr_.records_[nf].task->cost_model().set_scale(st.pre_degrade_scale);
  st.degraded = false;
  trace(nf, "restore_degrade");
}

void Lifecycle::scan() {
  const Cycles now = mgr_.engine_.now();
  for (flow::NfId id = 0; id < nfs_.size(); ++id) {
    nf::NfTask* task = mgr_.records_[id].task;
    if (task == nullptr) continue;  // remote NF: its lane watches it
    Nf& st = nfs_[id];
    switch (st.life) {
      case fault::NfLifecycle::kRunning: {
        if (task->dead()) {  // crash injected since the last scan
          on_death(id, now, /*forced=*/false);
          break;
        }
        // Heartbeat: "progress" is a packet completing, counted packet by
        // packet inside a run-to-completion burst (NfTask::progress), so a
        // long burst of slow packets is not silence. An NF is a suspect
        // when it makes none despite either holding the CPU (a spinning
        // straggler) or having work and getting CPU time (a wedged
        // consumer). A starved-but-healthy NF — work pending, no CPU
        // granted — is never a suspect, so share starvation cannot be
        // misdiagnosed as death.
        const std::uint64_t progress = task->progress(now);
        const Cycles runtime = task->stats().runtime;
        const bool progressed = progress != st.wd_last_progress;
        const bool on_cpu = task->state() == sched::TaskState::kRunning;
        const bool pending =
            task->in_flight_packets() > 0 || !task->rx_ring().empty();
        const bool runtime_advanced = runtime != st.wd_last_runtime;
        st.wd_last_progress = progress;
        st.wd_last_runtime = runtime;
        const bool suspect =
            !progressed && (on_cpu || (pending && runtime_advanced));
        if (!suspect) {
          st.stuck_count = 0;
          break;
        }
        if (++st.stuck_count >= fault::kStuckScans) {
          task->crash();  // watchdog kill: SIGKILL the straggler
          on_death(id, now, /*forced=*/true);
        }
        break;
      }
      case fault::NfLifecycle::kDead:
        if (now >= st.restart_at) begin_restart(id);
        break;
      case fault::NfLifecycle::kRestarting:
        break;  // waiting on the async cold-state reload
      case fault::NfLifecycle::kWarming:
        if (task->dead()) {  // re-crashed before warm-up completed
          on_death(id, now, /*forced=*/false);
          break;
        }
        if (now >= st.warm_until) {  // WARMING -> RUNNING: recovered
          st.life = fault::NfLifecycle::kRunning;
          ++st.stats.recoveries;
          st.stats.downtime_cycles += now - st.down_since;
          trace(id, "nf_lifecycle", "WARMING", "RUNNING");
        }
        break;
    }
  }
}

void Lifecycle::on_death(flow::NfId id, Cycles now, bool forced) {
  Nf& st = nfs_[id];
  const char* from = fault::to_string(st.life);
  if (st.life == fault::NfLifecycle::kWarming) {
    // Re-crash before full recovery: fold the first outage's downtime in
    // now, since the recovery will only see the second one.
    st.stats.downtime_cycles += now - st.down_since;
  }
  st.life = fault::NfLifecycle::kDead;
  st.down_since = now;
  ++st.stats.crashes;
  if (forced) ++st.stats.forced_crashes;
  st.stats.last_detect_latency = now - st.crashed_at;
  st.stuck_count = 0;

  mgr_.alloc_.set_down(id, true, mgr_.config_.enable_cgroups);
  if (mgr_.push_ != nullptr) mgr_.push_->clear(id);
  count_dead_hops(id, +1);
  // Dead-NF backpressure composition: pin the NF at Throttle so its chains
  // shed at the entry point, exactly like a queue stuck over the high
  // watermark. Only when every chain through it wants that policy — a
  // bypass/buffer chain must keep flowing.
  const auto& chains = mgr_.chains_.chains_through(id);
  if (mgr_.config_.enable_backpressure &&
      std::all_of(chains.begin(), chains.end(), [this](flow::ChainId c) {
        return policy(c) == fault::DeadNfPolicy::kBackpressure;
      })) {
    mgr_.bp_->force_dead(id, now);
  }

  const Cycles delay = st.pending_restart_delay >= 0
                           ? st.pending_restart_delay
                           : fault::kDefaultRestartDelay;
  st.restart_at = now + delay;
  st.pending_restart_delay = fault::kDefaultRestart;
  trace(id, "nf_lifecycle", from, "DEAD");
  ShardMsg msg{.kind = ShardMsg::Kind::kNfDeath, .nf = id};
  mgr_.broadcast_remote(msg);
}

void Lifecycle::begin_restart(flow::NfId id) {
  Nf& st = nfs_[id];
  st.life = fault::NfLifecycle::kRestarting;
  ++st.stats.restarts;
  trace(id, "nf_lifecycle", "DEAD", "RESTARTING");
  // Cold-state reload rides the NF's §3.4 double-buffered async-I/O path
  // when it has one (state lives behind the same device its handlers use);
  // stateless NFs pay a fixed spawn+mmap latency instead.
  const auto reload_latency = [this, id] {
    mgr_.engine_.schedule_after(fault::kReloadLatency,
                                [this, id] { finish_restart(id); });
  };
  if (auto* io = mgr_.records_[id].task->io()) {
    // A failing device must not wedge the restart: if the reload read
    // exhausts its retry budget, fall back to the stateless spawn latency
    // (operationally: restore from the warm peer instead of local disk).
    io->read(fault::kReloadBytes, [this, id] { finish_restart(id); },
             reload_latency);
  } else {
    reload_latency();
  }
}

void Lifecycle::finish_restart(flow::NfId id) {
  Nf& st = nfs_[id];
  if (st.life != fault::NfLifecycle::kRestarting) return;
  const Cycles now = mgr_.engine_.now();
  const Manager::NfRecord& rec = mgr_.records_[id];
  st.life = fault::NfLifecycle::kWarming;
  st.warm_until = now + fault::kWarmDuration;
  rec.task->revive(now);
  // The monitor re-derives its share once the estimator warms up.
  mgr_.alloc_.set_down(id, false, mgr_.config_.enable_cgroups);
  // Drop the dead-NF latch only: the state stays Throttle until the normal
  // Fig. 4 hysteresis clears it below the low watermark — entry discard
  // keeps protecting the revived NF while it digests its backlog.
  if (mgr_.config_.enable_backpressure) mgr_.bp_->clear_dead(id, now);
  count_dead_hops(id, -1);
  st.wd_last_progress = rec.task->progress(now);
  st.wd_last_runtime = rec.task->stats().runtime;
  st.stuck_count = 0;
  trace(id, "nf_lifecycle", "RESTARTING", "WARMING");
  ShardMsg msg{.kind = ShardMsg::Kind::kNfRevive, .nf = id};
  mgr_.broadcast_remote(msg);
  // Its RX ring survived the outage in manager-owned shared memory; if a
  // backlog is waiting, put the revived process straight to work.
  if (rec.task->has_runnable_work()) rec.core->wake(rec.task);
}

void Lifecycle::count_dead_hops(flow::NfId id, int delta) {
  for (flow::ChainId chain : mgr_.chains_.chains_through(id)) {
    if (delta > 0) {
      if (chain >= dead_on_chain_.size()) dead_on_chain_.resize(chain + 1, 0);
      ++dead_on_chain_[chain];
    } else if (chain < dead_on_chain_.size() && dead_on_chain_[chain] > 0) {
      --dead_on_chain_[chain];
    }
  }
}

void Lifecycle::mirror(flow::NfId id, bool dead) {
  assert(mgr_.records_[id].task == nullptr && "mirror of a local NF");
  nfs_[id].remote_dead = dead;
  // No backpressure update here: the owning lane's Throttle pin (when the
  // chain policies want one) arrives as its own kBpState mirror — touching
  // refcounts from both messages would double-count.
  count_dead_hops(id, dead ? +1 : -1);
}

std::uint32_t Lifecycle::skip_dead_hops(pktio::Mbuf& pkt) const {
  const auto& hops = mgr_.chains_.get(pkt.chain_id).hops;
  std::uint32_t skipped = 0;
  while (pkt.chain_pos < hops.size()) {
    const flow::NfId hop = hops[pkt.chain_pos];
    const nf::NfTask* task = mgr_.records_[hop].task;
    if (!(task != nullptr ? task->dead() : nfs_[hop].remote_dead)) break;
    ++skipped;
    ++pkt.chain_pos;
  }
  return skipped;
}

}  // namespace nfv::mgr
