#include "mgr/share_allocator.hpp"

#include <algorithm>
#include <cmath>

#include "mgr/push_aside.hpp"
#include "mgr/slo_controller.hpp"

namespace nfv::mgr {

namespace {
constexpr double kShareScale = 10240.0;  ///< Load fraction -> cpu.shares.
}  // namespace

ShareAllocator::ShareAllocator(obs::Observability* obs) : obs_(obs) {
  if (obs_ != nullptr) {
    obs::Scope scope = obs_->global_scope();
    scope.counter_fn("mgr.cgroup_writes", [this] { return cgroup_.writes(); });
    scope.counter_fn("mgr.cgroup_skipped_writes",
                     [this] { return cgroup_.skipped_writes(); });
  }
}

void ShareAllocator::add_nf(flow::NfId id, nf::NfTask* task,
                            sched::Core* core) {
  if (id >= nfs_.size()) nfs_.resize(id + 1);
  nfs_[id].task = task;
  nfs_[id].core = core;
  if (obs_ == nullptr) return;
  obs::Scope scope = obs_->nf_scope(task->config().name);
  // nfs_ may still grow, so the probe captures the id, not a reference.
  scope.gauge_fn("mgr.load", [this, id] { return nfs_[id].last_load; });
  scope.counter_fn("mgr.shares_writes", [this, id] { return nfs_[id].writes; });
  scope.gauge_fn("mgr.cpu_shares",
                 [this, id] { return static_cast<double>(nfs_[id].shares); });
}

void ShareAllocator::estimate(flow::NfId id, std::uint64_t offered,
                              Cycles now) {
  Nf& nf = nfs_[id];
  if (nf.released) {
    // A down NF consumes no CPU: zero its estimate but keep the offered
    // window contiguous so λ is correct on the first post-recovery tick.
    nf.last_load = 0.0;
    nf.offered_at_last_tick = offered;
    return;
  }
  const auto delta = static_cast<double>(offered - nf.offered_at_last_tick);
  nf.offered_at_last_tick = offered;
  const double lambda =
      delta / static_cast<double>(kMonitorPeriod);  // pkts/cycle
  auto service = static_cast<double>(nf.task->estimated_service_time(now));
  if (service > 0.0) {
    nf.last_service = service;
  } else {
    service = nf.last_service;  // hold the last estimate through gaps
  }
  nf.has_estimate = service > 0.0;
  nf.last_load = lambda * service;  // load(i) = λ_i · s_i  (§3.2)
  nf.load_accum += nf.last_load;
  nf.offered_accum += delta;
}

void ShareAllocator::update_shares(Cycles now, const SloController* boost,
                                   const PushAside* push) {
  // Priority_i · [boost_i] · [scale_i] · load(i), left to right.
  const auto weight = [&](flow::NfId id) {
    double w = nfs_[id].task->priority();
    if (boost != nullptr) w *= boost->boost_of(id);
    if (push != nullptr) w *= push->scale(id);
    return w * nfs_[id].load_accum;
  };
  std::vector<sched::Core*> seen;
  for (const Nf& nf : nfs_) {
    if (nf.task == nullptr) continue;
    if (std::find(seen.begin(), seen.end(), nf.core) != seen.end()) continue;
    seen.push_back(nf.core);
    // The total includes released NFs: their accumulated load is zero.
    double total = 0.0;
    for (flow::NfId id = 0; id < nfs_.size(); ++id) {
      if (nfs_[id].core == nf.core) total += weight(id);
    }
    if (total <= 0.0) continue;
    for (flow::NfId id = 0; id < nfs_.size(); ++id) {
      Nf& other = nfs_[id];
      // A down NF keeps the released kMinShares written at death; writing
      // kShareFloor here would hand it CPU weight it cannot use.
      if (other.core != nf.core || other.released) continue;
      // Bootstrap rule: an NF with offered traffic but no service-time
      // estimate yet (warm-up samples still being discarded) keeps its
      // current weight — writing a near-zero share would starve it before
      // the estimator ever sees a sample.
      if (!other.has_estimate && other.offered_accum > 0.0) continue;
      const double frac = weight(id) / total;
      const auto shares = static_cast<std::uint32_t>(std::max(
          static_cast<double>(kShareFloor), std::round(frac * kShareScale)));
      if (cgroup_.set_shares(*other.task, shares) == 0) continue;  // no-op
      ++other.writes;
      other.shares = shares;
      if (auto* tr = obs::trace_of(obs_)) {
        tr->counter(now, obs::kManagerLane, "mgr", "cpu_shares",
                    other.task->config().name,
                    static_cast<std::int64_t>(shares));
      }
    }
  }
}

void ShareAllocator::reset_window() {
  for (Nf& nf : nfs_) {
    nf.load_accum = 0.0;
    nf.offered_accum = 0.0;
  }
}

void ShareAllocator::set_down(flow::NfId id, bool down, bool cgroups) {
  Nf& nf = nfs_[id];
  nf.released = down;
  if (cgroups) {
    // A dead process's cgroup is torn down (CFS hands its weight to the
    // survivors on the core at once); a fresh one starts at the default.
    const std::uint32_t shares =
        down ? sched::CGroupController::kMinShares : sched::kDefaultWeight;
    cgroup_.set_shares(*nf.task, shares);
    nf.shares = shares;
  }
  nf.last_load = nf.load_accum = nf.offered_accum = 0.0;
  nf.has_estimate = false;
}

}  // namespace nfv::mgr
