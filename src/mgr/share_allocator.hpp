// The Monitor's share allocator (§3.2): per monitor tick load(i) = λ_i·s_i
// for each local NF; per share update, on each core m,
//   Shares_i = Priority_i · [boost_i] · [scale_i] · load(i) / TotalLoad(m)
// with the SLO boost (DESIGN.md §16) and push-aside scale (§17) as terms
// only when armed: with neither, this is exactly the paper's rule.
#pragma once

#include <cstdint>
#include <vector>

#include "nf/nf_task.hpp"
#include "sched/cgroup.hpp"

namespace nfv::mgr {

class PushAside;
class SloController;

/// Monitor period: 1 ms load estimation (§3.5).
inline constexpr Cycles kMonitorPeriod = 2'600'000;
/// Floor on any loaded NF's shares (~0.5% of scale). §2.1: rate-cost
/// proportional fairness "ensures that all competing NFs get a minimal
/// CPU share necessary to progress" — and it is what lets a starved NF
/// keep producing the service-time samples the estimator feeds on. Kept
/// small so it does not distort the proportional allocation.
inline constexpr std::uint32_t kShareFloor = 50;

class ShareAllocator {
 public:
  explicit ShareAllocator(obs::Observability* obs);

  /// Track a local NF (at Manager::start); registers its probes.
  void add_nf(flow::NfId id, nf::NfTask* task, sched::Core* core);
  /// Monitor tick: λ_i from the growth of the NF's `offered` counter since
  /// the last tick, s_i from the task's sampled median.
  void estimate(flow::NfId id, std::uint64_t offered, Cycles now);
  /// Write every local core's shares from the loads accumulated since the
  /// last reset_window(); `boost` and `push` are the armed terms or null.
  void update_shares(Cycles now, const SloController* boost,
                     const PushAside* push);
  void reset_window();
  /// NF death (`down`) or revival: write kMinShares or the default weight
  /// when `cgroups`, and start the estimate over. A down NF's shares are
  /// left as written until it revives.
  void set_down(flow::NfId id, bool down, bool cgroups);

  /// Most recent load(i) estimate (dimensionless CPU demand fraction).
  [[nodiscard]] double load(flow::NfId id) const {
    return id < nfs_.size() ? nfs_[id].last_load : 0.0;
  }
  [[nodiscard]] const sched::CGroupController& cgroups() const {
    return cgroup_;
  }

 private:
  struct Nf {
    nf::NfTask* task = nullptr;  ///< nullptr = not a local NF.
    sched::Core* core = nullptr;
    std::uint64_t offered_at_last_tick = 0;
    double load_accum = 0.0;
    double last_load = 0.0;
    /// Offered packets since the last share update (the bootstrap rule).
    double offered_accum = 0.0;
    bool has_estimate = false;
    /// Last non-zero service-time estimate (cycles). An NF starved past
    /// the sampling window would otherwise flap to "unknown" and destabilise
    /// every other NF's weight through the shared denominator.
    double last_service = 0.0;
    bool released = false;  ///< Dead or restarting.
    std::uint64_t writes = 0;  ///< Share updates that changed the weight.
    std::uint32_t shares = 0;  ///< Last weight written; 0 before any.
  };

  obs::Observability* obs_;
  std::vector<Nf> nfs_;
  sched::CGroupController cgroup_;
};

}  // namespace nfv::mgr
