// The NF lifecycle watchdog (DESIGN.md §11), armed on every lane exactly
// when a fault plan is installed. The Simulation schedules the plan's NF
// faults straight onto its inject/restore calls. It scans the Manager's
// NFs every fault::kWatchdogPeriod through the state machine of
// fault/lifecycle.hpp, and applies each chain's DeadNfPolicy while an NF is
// down. Deaths and revivals act on the Manager's data plane, so it holds one.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/lifecycle.hpp"
#include "pktio/mbuf.hpp"

namespace nfv::mgr {

class Manager;

class Lifecycle {
 public:
  /// Schedules the watchdog. `policies` (by chain id; chains beyond it use
  /// kDefaultDeadPolicy) is read in place and must outlive the lifecycle.
  Lifecycle(Manager& mgr, const std::vector<fault::DeadNfPolicy>& policies);

  [[nodiscard]] fault::NfLifecycle state(flow::NfId id) const {
    return nfs_[id].life;
  }
  [[nodiscard]] const fault::NfLifecycleStats& stats(flow::NfId id) const {
    return nfs_[id].stats;
  }
  [[nodiscard]] fault::DeadNfPolicy policy(flow::ChainId chain) const {
    return chain < policies_.size() ? policies_[chain]
                                    : fault::kDefaultDeadPolicy;
  }
  /// Does kBypass currently route `chain`'s packets around a dead hop?
  [[nodiscard]] bool bypassing(flow::ChainId chain) const {
    return chain < dead_on_chain_.size() && dead_on_chain_[chain] > 0 &&
           policy(chain) == fault::DeadNfPolicy::kBypass;
  }
  /// Advance `pkt` past consecutive dead hops; returns how many.
  std::uint32_t skip_dead_hops(pktio::Mbuf& pkt) const;
  /// kNfDeath / kNfRevive mirror of a remote NF.
  void mirror(flow::NfId id, bool dead);

  // Fault injection. Injection is the data-plane fact (the process dies
  // *now*); the watchdog discovers it on its next scan.
  /// Kill the NF now. `restart_after` is the detection->restart delay
  /// (fault::kDefaultRestart = fault::kDefaultRestartDelay).
  void inject_crash(flow::NfId nf, Cycles restart_after);
  /// Turn the NF into a straggler now (the watchdog will kill it).
  void inject_stall(flow::NfId nf, Cycles restart_after);
  /// Scale the NF's service-time distribution by `factor`.
  void inject_degrade(flow::NfId nf, double factor);
  /// End a bounded degrade window (restore the original distribution).
  void restore_degrade(flow::NfId nf);

 private:
  struct Nf {
    fault::NfLifecycle life = fault::NfLifecycle::kRunning;
    fault::NfLifecycleStats stats;
    Cycles crashed_at = 0;     ///< Injection instant of the pending death.
    Cycles down_since = 0;     ///< Detection instant (downtime starts here).
    Cycles restart_at = 0;     ///< When the DEAD -> RESTARTING edge fires.
    Cycles warm_until = 0;     ///< When WARMING completes.
    /// Detection -> restart delay of the in-flight fault.
    Cycles pending_restart_delay = fault::kDefaultRestart;
    // Watchdog stuck detection: progress snapshots from the last scan.
    std::uint64_t wd_last_progress = 0;
    Cycles wd_last_runtime = 0;
    std::uint32_t stuck_count = 0;
    // Degrade fault: cost-model scale to restore when the window closes.
    double pre_degrade_scale = 1.0;
    bool degraded = false;
    bool remote_dead = false;  ///< Mirrored liveness of a remote NF.
  };

  /// Heartbeat: detects dead/stuck NFs, fires due restarts, ends warm-ups.
  void scan();
  /// -> DEAD: release shares, apply the dead-NF policy, arm the restart.
  /// `forced` = the watchdog killed a stuck NF (vs an injected crash).
  void on_death(flow::NfId id, Cycles now, bool forced);
  /// DEAD -> RESTARTING: cold-state reload through the NF's async I/O
  /// (§3.4 double-buffered path), or a fixed latency without one.
  void begin_restart(flow::NfId id);
  /// RESTARTING -> WARMING: revive the task, restore its weight, drop the
  /// dead-NF backpressure latch (ordinary hysteresis takes over).
  void finish_restart(flow::NfId id);
  /// One dead hop more (+1) or less (-1) on each of `id`'s chains.
  void count_dead_hops(flow::NfId id, int delta);
  /// Trace `event` on `id`: a state-machine edge when `from` is given.
  void trace(flow::NfId id, const char* event, const char* from = nullptr,
             const char* to = nullptr);

  Manager& mgr_;
  const std::vector<fault::DeadNfPolicy>& policies_;
  std::vector<Nf> nfs_;
  /// Dead-NF refcount per chain: gates the lifecycle branch on the packet
  /// path, so a run where everything recovered pays one compare.
  std::vector<std::uint32_t> dead_on_chain_;
};

}  // namespace nfv::mgr
