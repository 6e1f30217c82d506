#include "bp/admission.hpp"

#include <algorithm>
#include <cmath>

namespace nfv::bp {

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config),
      tokens_per_cycle_(config.cpu_hz > 0.0 ? config.shed_admit_pps / config.cpu_hz
                                            : 0.0) {}

void AdmissionController::set_class(flow::ChainId chain, ClassSpec spec) {
  if (chain >= chains_.size()) chains_.resize(chain + 1);
  ChainState& st = chains_[chain];
  if (!st.classed) ++class_count_;
  st.classed = true;
  st.spec = spec;
}

void AdmissionController::set_observability(
    obs::Observability* obs, const std::vector<std::string>& chain_names) {
  obs_ = obs;
  chain_names_ = chain_names;
  if (obs_ == nullptr) return;
  for (flow::ChainId c = 0; c < chains_.size(); ++c) {
    if (!chains_[c].classed) continue;
    // Scope label matches the Manager's chain.* probes (the id string);
    // chain_names_ feeds the human-readable trace args only.
    auto scope = obs_->chain_scope(std::to_string(c));
    scope.counter_fn("adm.engagements",
                     [this, c] { return chains_[c].stats.engagements; });
    scope.counter_fn("adm.releases",
                     [this, c] { return chains_[c].stats.releases; });
    scope.counter_fn("adm.discards",
                     [this, c] { return chains_[c].stats.discards; });
    scope.counter_fn("adm.trickle_admits",
                     [this, c] { return chains_[c].stats.trickle_admits; });
  }
}

bool AdmissionController::admit(flow::ChainId chain, Cycles now) {
  if (chain >= chains_.size()) return true;
  ChainState& st = chains_[chain];
  if (!st.engaged) return true;
  // Shed: spend a trickle token or discard. The bucket refills lazily on
  // the packet path so there is no per-tick work for idle classes.
  if (now > st.last_refill) {
    st.tokens = std::min(
        config_.shed_burst,
        st.tokens + static_cast<double>(now - st.last_refill) * tokens_per_cycle_);
    st.last_refill = now;
  }
  if (st.tokens >= 1.0) {
    st.tokens -= 1.0;
    ++st.stats.trickle_admits;
    return true;
  }
  ++st.stats.discards;
  return false;
}

std::uint32_t& AdmissionController::hold_of(flow::NfId group) {
  for (GroupHold& h : holds_) {
    if (h.group == group) return h.hold;
  }
  holds_.push_back({group, 0});
  return holds_.back().hold;
}

void AdmissionController::engage(flow::ChainId chain, double occupancy,
                                 Cycles now) {
  ChainState& st = chains_[chain];
  st.engaged = true;
  st.tokens = config_.shed_burst;
  st.last_refill = now;
  ++st.stats.engagements;
  if (auto* tr = obs::trace_of(obs_)) {
    const std::string name =
        chain < chain_names_.size() ? chain_names_[chain] : std::to_string(chain);
    tr->instant(now, obs::kAdmissionLane, "adm", "engage", {{"chain", name}},
                {{"occupancy_pct",
                  static_cast<std::int64_t>(std::lround(occupancy * 100.0))}});
  }
}

void AdmissionController::release(flow::ChainId chain, double occupancy,
                                  Cycles now) {
  ChainState& st = chains_[chain];
  st.engaged = false;
  ++st.stats.releases;
  if (auto* tr = obs::trace_of(obs_)) {
    const std::string name =
        chain < chain_names_.size() ? chain_names_[chain] : std::to_string(chain);
    tr->instant(now, obs::kAdmissionLane, "adm", "release", {{"chain", name}},
                {{"occupancy_pct",
                  static_cast<std::int64_t>(std::lround(occupancy * 100.0))}});
  }
}

void AdmissionController::evaluate(Cycles now,
                                   const std::vector<AdmissionInput>& inputs) {
  // Distinct groups in order of first appearance; the Manager builds the
  // inputs in chain-id order, so the walk is deterministic.
  std::vector<flow::NfId> groups;
  for (const AdmissionInput& in : inputs) {
    if (std::find(groups.begin(), groups.end(), in.group) == groups.end()) {
      groups.push_back(in.group);
    }
  }
  for (const flow::NfId group : groups) {
    double occupancy = 0.0;
    bool violating = false;
    for (const AdmissionInput& in : inputs) {
      if (in.group != group) continue;
      occupancy = std::max(occupancy, in.occupancy);
      violating = violating || in.violating;
    }
    const bool queue_pressured = occupancy >= config_.engage_watermark;
    const bool pressured = queue_pressured || violating;
    const bool relieved = occupancy < config_.release_watermark && !violating;

    std::uint32_t& hold = hold_of(group);
    if (hold > 0) {
      --hold;
      continue;
    }
    if (pressured) {
      // Escalate: shed the lowest-utility class not yet engaged. One rung
      // per hold period, so an earlier shed gets time to bite first. When
      // the pressure is SLO-only (the queue itself is fine), a violating
      // chain's own class is exempt — shedding the chain we are trying to
      // rescue cannot shorten its tail, it just burns its goodput.
      flow::ChainId pick = flow::kInvalidChain;
      for (const AdmissionInput& in : inputs) {
        if (in.group != group || chains_[in.chain].engaged) continue;
        if (!queue_pressured && in.violating) continue;
        if (pick == flow::kInvalidChain ||
            chains_[in.chain].spec.utility < chains_[pick].spec.utility ||
            (chains_[in.chain].spec.utility == chains_[pick].spec.utility &&
             in.chain < pick)) {
          pick = in.chain;
        }
      }
      if (pick != flow::kInvalidChain) {
        engage(pick, occupancy, now);
        hold = config_.min_hold_evals;
      }
    } else if (relieved) {
      // De-escalate in reverse: the highest-utility engaged class was shed
      // last and is restored first.
      flow::ChainId pick = flow::kInvalidChain;
      for (const AdmissionInput& in : inputs) {
        if (in.group != group || !chains_[in.chain].engaged) continue;
        if (pick == flow::kInvalidChain ||
            chains_[in.chain].spec.utility > chains_[pick].spec.utility ||
            (chains_[in.chain].spec.utility == chains_[pick].spec.utility &&
             in.chain < pick)) {
          pick = in.chain;
        }
      }
      if (pick != flow::kInvalidChain) {
        release(pick, occupancy, now);
        hold = config_.min_hold_evals;
      }
    }
  }
}

std::uint64_t AdmissionController::total_discards() const {
  std::uint64_t total = 0;
  for (const ChainState& st : chains_) total += st.stats.discards;
  return total;
}

}  // namespace nfv::bp
