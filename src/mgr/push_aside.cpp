#include "mgr/push_aside.hpp"

#include <algorithm>

#include "mgr/lifecycle.hpp"

namespace nfv::mgr {

namespace {
constexpr double kPushGrabFactor = 2.0;  ///< Victim scale divisor per grab.
/// Victim scale restored per clear update (additive give-back) until it
/// settles back to exactly 1.0.
constexpr double kPushGivebackStep = 0.25;
/// A grab is held at least this many share updates before give-back may
/// begin (anti-limit-cycling, same lesson as the SLO decay damping).
constexpr std::uint32_t kPushMinHoldUpdates = 2;
}  // namespace

void PushAside::add_nf(flow::NfId id, nf::NfTask* task, sched::Core* core) {
  if (id >= nfs_.size()) nfs_.resize(id + 1);
  nfs_[id].task = task;
  nfs_[id].core = core;
  if (obs_ == nullptr) return;
  obs::Scope scope = obs_->nf_scope(task->config().name);
  scope.counter_fn("pam.grabs", [this, id] { return nfs_[id].grabs; });
  scope.counter_fn("pam.givebacks", [this, id] { return nfs_[id].givebacks; });
  scope.gauge_fn("pam.push_scale", [this, id] { return nfs_[id].scale; });
}

void PushAside::latch(const bp::BackpressureManager* bp) {
  for (flow::NfId id = 0; id < nfs_.size(); ++id) {
    Nf& nf = nfs_[id];
    if (nf.task == nullptr || nf.pressure) continue;
    nf.pressure = nf.task->rx_ring().above_high_watermark() ||
                  (bp != nullptr && bp->state(id) != bp::ThrottleState::kClear);
  }
}

void PushAside::update(Cycles now, const Lifecycle* life) {
  // Everything here is core-local, so no lane mirrors anything: each lane
  // runs the machine for its own cores.
  auto* tr = obs::trace_of(obs_);
  const auto running = [life](flow::NfId id) {
    return life == nullptr || life->state(id) == fault::NfLifecycle::kRunning;
  };
  const auto overloaded = [](const Nf& nf) {
    return nf.pressure || nf.task->rx_ring().above_high_watermark();
  };
  for (flow::NfId vid = 0; vid < nfs_.size(); ++vid) {
    Nf& victim = nfs_[vid];
    if (victim.task == nullptr || !running(vid)) continue;
    // Pressed: a running, higher-priority, overloaded NF on the same core.
    bool pressed = false;
    for (flow::NfId aid = 0; aid < nfs_.size() && !pressed; ++aid) {
      const Nf& a = nfs_[aid];
      if (aid == vid || a.task == nullptr || a.core != victim.core) continue;
      if (!running(aid) || a.task->priority() <= victim.task->priority()) {
        continue;
      }
      pressed = overloaded(a);
    }
    // An overloaded NF is never a victim itself, whatever its priority —
    // two overloaded neighbors must not grab from each other.
    pressed = pressed && !overloaded(victim);
    if (pressed) {
      victim.hold = kPushMinHoldUpdates;
      if (victim.scale <= kPushVictimFloor) continue;
      victim.scale = std::max(kPushVictimFloor, victim.scale / kPushGrabFactor);
      ++victim.grabs;
    } else if (victim.scale < 1.0) {
      if (victim.hold > 0) {
        --victim.hold;
        continue;
      }
      // min() settles the scale to exactly 1.0, restoring the bit-exact
      // rate-cost allocation once the borrow is fully repaid.
      victim.scale = std::min(1.0, victim.scale + kPushGivebackStep);
      ++victim.givebacks;
    } else {
      continue;
    }
    if (tr != nullptr) {
      tr->instant(now, obs::kAdmissionLane, "pam",
                  pressed ? "grab" : "give_back",
                  {{"victim", victim.task->config().name}},
                  {{"scale_x1000",
                    static_cast<std::int64_t>(victim.scale * 1000.0)}});
    }
  }
  for (Nf& nf : nfs_) nf.pressure = false;  // fresh window
}

}  // namespace nfv::mgr
