#include "bp/backpressure.hpp"

namespace nfv::bp {

const char* to_string(ThrottleState state) {
  switch (state) {
    case ThrottleState::kClear:
      return "CLEAR";
    case ThrottleState::kWatch:
      return "WATCH";
    case ThrottleState::kThrottle:
      return "THROTTLE";
  }
  return "?";
}

BackpressureManager::BackpressureManager(const flow::ChainRegistry& chains,
                                         std::size_t nf_count, BpConfig config)
    : chains_(chains), config_(config), states_(nf_count) {
  chain_throttles_.assign(chains.size(), 0);
}

void BackpressureManager::set_observability(obs::Observability* obs,
                                            std::vector<std::string> nf_names) {
  obs_ = obs;
  nf_names_ = std::move(nf_names);
  if (obs == nullptr) return;
  for (flow::NfId nf = 0; nf < states_.size(); ++nf) {
    const std::string& name =
        nf < nf_names_.size() ? nf_names_[nf] : std::to_string(nf);
    obs::Scope scope = obs->nf_scope(name);
    scope.counter_fn("bp.watch_entries",
                     [this, nf] { return states_[nf].stats.watch_entries; });
    scope.counter_fn("bp.throttle_entries",
                     [this, nf] { return states_[nf].stats.throttle_entries; });
    scope.counter_fn("bp.throttle_clears",
                     [this, nf] { return states_[nf].stats.throttle_clears; });
  }
}

BpStats BackpressureManager::stats() const {
  BpStats sum;
  for (const NfState& st : states_) {
    sum.watch_entries += st.stats.watch_entries;
    sum.throttle_entries += st.stats.throttle_entries;
    sum.throttle_clears += st.stats.throttle_clears;
  }
  return sum;
}

void BackpressureManager::note_transition(flow::NfId nf, ThrottleState from,
                                          ThrottleState to,
                                          std::size_t queue_len, Cycles now) {
  if (auto* trace = obs::trace_of(obs_)) {
    trace->instant(now, obs::kBackpressureLane, "bp", "bp_transition",
                   {{"nf", nf < nf_names_.size() ? nf_names_[nf]
                                                 : std::to_string(nf)},
                    {"from", to_string(from)},
                    {"to", to_string(to)}},
                   {{"qlen", static_cast<std::int64_t>(queue_len)}});
  }
  if (state_listener_) state_listener_(nf, to, now);
}

void BackpressureManager::apply_remote_state(flow::NfId nf, ThrottleState to) {
  if (nf >= states_.size()) return;
  NfState& st = states_[nf];
  const ThrottleState from = st.state;
  if (from == to) return;
  st.state = to;
  if (to == ThrottleState::kThrottle) {
    enter_throttle(nf);
  } else if (from == ThrottleState::kThrottle) {
    leave_throttle(nf);
  }
}

void BackpressureManager::on_enqueue_feedback(flow::NfId nf,
                                              pktio::EnqueueResult result,
                                              Cycles now) {
  if (nf >= states_.size()) return;
  if (result != pktio::EnqueueResult::kOk &&
      states_[nf].state == ThrottleState::kClear) {
    states_[nf].state = ThrottleState::kWatch;
    ++states_[nf].stats.watch_entries;
    note_transition(nf, ThrottleState::kClear, ThrottleState::kWatch,
                    /*queue_len=*/0, now);
  }
}

ThrottleState BackpressureManager::evaluate(flow::NfId nf,
                                            const pktio::Ring& rx_ring,
                                            Cycles now) {
  NfState& st = states_[nf];
  switch (st.state) {
    case ThrottleState::kClear:
      if (rx_ring.above_high_watermark()) {
        st.state = ThrottleState::kWatch;
        ++st.stats.watch_entries;
        note_transition(nf, ThrottleState::kClear, ThrottleState::kWatch,
                        rx_ring.size(), now);
      }
      break;
    case ThrottleState::kWatch:
      if (rx_ring.below_low_watermark()) {
        st.state = ThrottleState::kClear;
        note_transition(nf, ThrottleState::kWatch, ThrottleState::kClear,
                        rx_ring.size(), now);
      } else if (rx_ring.above_high_watermark() &&
                 now - rx_ring.head_enqueue_time() >
                     config_.queuing_time_threshold) {
        st.state = ThrottleState::kThrottle;
        ++st.stats.throttle_entries;
        enter_throttle(nf);
        note_transition(nf, ThrottleState::kWatch, ThrottleState::kThrottle,
                        rx_ring.size(), now);
      }
      break;
    case ThrottleState::kThrottle:
      if (st.forced_dead) break;  // dead NF: pinned until clear_dead()
      if (rx_ring.below_low_watermark()) {
        st.state = ThrottleState::kClear;
        ++st.stats.throttle_clears;
        leave_throttle(nf);
        note_transition(nf, ThrottleState::kThrottle, ThrottleState::kClear,
                        rx_ring.size(), now);
      }
      break;
  }
  return st.state;
}

void BackpressureManager::force_dead(flow::NfId nf, Cycles now) {
  if (nf >= states_.size()) return;
  NfState& st = states_[nf];
  if (st.forced_dead) return;
  st.forced_dead = true;
  if (st.state != ThrottleState::kThrottle) {
    const ThrottleState from = st.state;
    st.state = ThrottleState::kThrottle;
    ++st.stats.throttle_entries;
    enter_throttle(nf);
    note_transition(nf, from, ThrottleState::kThrottle, /*queue_len=*/0, now);
  }
}

void BackpressureManager::clear_dead(flow::NfId nf, Cycles now) {
  (void)now;
  if (nf >= states_.size()) return;
  states_[nf].forced_dead = false;
  // No transition here: the state stays Throttle and the next evaluate()
  // pass applies the ordinary hysteresis (clear below the low watermark).
}

void BackpressureManager::enter_throttle(flow::NfId nf) {
  for (flow::ChainId chain : chains_.chains_through(nf)) {
    if (chain >= chain_throttles_.size()) chain_throttles_.resize(chain + 1, 0);
    ++chain_throttles_[chain];
  }
}

void BackpressureManager::leave_throttle(flow::NfId nf) {
  for (flow::ChainId chain : chains_.chains_through(nf)) {
    if (chain < chain_throttles_.size() && chain_throttles_[chain] > 0) {
      --chain_throttles_[chain];
    }
  }
}

bool BackpressureManager::should_pause_upstream(flow::NfId nf) const {
  const auto& through = chains_.chains_through(nf);
  if (through.empty()) return false;
  for (flow::ChainId chain : through) {
    const int my_pos = chains_.position_of(chain, nf);
    bool throttled_downstream = false;
    const auto& hops = chains_.get(chain).hops;
    for (std::size_t pos = static_cast<std::size_t>(my_pos) + 1;
         pos < hops.size(); ++pos) {
      if (states_[hops[pos]].state == ThrottleState::kThrottle) {
        throttled_downstream = true;
        break;
      }
    }
    if (!throttled_downstream) return false;  // this chain still needs us
  }
  return true;
}

}  // namespace nfv::bp
