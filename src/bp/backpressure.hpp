// Chain-level backpressure (§3.3, Figs. 4 & 5).
//
// Detection happens on the Tx threads' enqueue path (cheap: the ring's
// enqueue return value); control is delegated to the Wakeup thread, which
// runs each NF through the hysteresis state machine of Fig. 4:
//
//   Clear ──(qlen >= HIGH)──────────────────────────▶ Watch
//   Watch ──(qlen >= HIGH && head queued > thresh)──▶ Throttle
//   Watch ──(qlen < LOW)────────────────────────────▶ Clear
//   Throttle ──(qlen < LOW)─────────────────────────▶ Clear
//
// While an NF is in Throttle, every service chain passing through it is
// marked throttled: packets of those chains are dropped at the system entry
// point (selective early discard — chain B in Fig. 5 is untouched), and
// strictly-upstream NFs whose *entire* traffic belongs to throttled chains
// get the relinquish flag so they stop consuming CPU until the bottleneck
// drains (§4.3.2). Restricting the flag to fully-throttled NFs is what
// keeps shared NFs (Fig. 8's NF1/NF4) serving their unthrottled chains —
// avoiding the head-of-line blocking the paper cautions against.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "flow/service_chain.hpp"
#include "obs/observability.hpp"
#include "pktio/ring.hpp"

namespace nfv::bp {

enum class ThrottleState { kClear, kWatch, kThrottle };

const char* to_string(ThrottleState state);

struct BpConfig {
  /// Minimum time the head packet must have been queued before Watch
  /// escalates to Throttle (the "Queuing Time > Threshold" arc in Fig. 4).
  /// Default 100 us at 2.6 GHz.
  Cycles queuing_time_threshold = 260'000;
};

struct BpStats {
  std::uint64_t watch_entries = 0;
  std::uint64_t throttle_entries = 0;
  std::uint64_t throttle_clears = 0;
};

class BackpressureManager {
 public:
  BackpressureManager(const flow::ChainRegistry& chains, std::size_t nf_count,
                      BpConfig config = {});

  /// Attach observability: probes of each NF's transition counts (scoped by
  /// the names in `nf_names`, indexed by NfId) and bp_transition trace
  /// events.
  void set_observability(obs::Observability* obs,
                         std::vector<std::string> nf_names);

  /// Sharded-simulation hook: called on every real state transition (all of
  /// them funnel through note_transition). The owning lane's Manager uses
  /// this to broadcast the new state to the other lanes' mirrors.
  using StateListener =
      std::function<void(flow::NfId, ThrottleState to, Cycles now)>;
  void set_state_listener(StateListener listener) {
    state_listener_ = std::move(listener);
  }

  /// Mirror a transition that happened on the NF's owning lane. Updates the
  /// state and the chain_throttles_ refcounts (so chain_throttled() and
  /// should_pause_upstream() see remote bottlenecks) but touches no stats,
  /// counters or trace — those belong to the owning lane — and does not
  /// re-fire the state listener.
  void apply_remote_state(flow::NfId nf, ThrottleState to);

  /// Tx-thread detection hook: called with the enqueue feedback for `nf`'s
  /// RX ring. Only flips Clear -> Watch (the cheap part on the data path).
  /// `now` stamps the transition's trace event when a recorder is attached.
  void on_enqueue_feedback(flow::NfId nf, pktio::EnqueueResult result,
                           Cycles now = 0);

  /// Wakeup-thread control hook: advance `nf`'s state machine against its
  /// current RX ring occupancy. Returns the (possibly new) state.
  ThrottleState evaluate(flow::NfId nf, const pktio::Ring& rx_ring, Cycles now);

  /// Fault-model hook (DESIGN.md §11): the NF's process died. Pin its
  /// state to Throttle — a dead NF is treated exactly like a queue stuck
  /// over the high watermark, shedding its chains at the system entry —
  /// and latch it there so evaluate() cannot clear it while the process is
  /// gone (its queue length is meaningless: nothing dequeues).
  void force_dead(flow::NfId nf, Cycles now);

  /// The NF came back. Drops the latch only: the state *remains* Throttle
  /// until the normal Fig. 4 hysteresis clears it, i.e. entry discard
  /// continues until the revived NF drains its backlog below the low
  /// watermark. Recovery composes with congestion control for free.
  void clear_dead(flow::NfId nf, Cycles now);

  [[nodiscard]] bool forced_dead(flow::NfId nf) const {
    return states_[nf].forced_dead;
  }

  [[nodiscard]] ThrottleState state(flow::NfId nf) const {
    return states_[nf].state;
  }

  /// Is this chain currently shed at the entry point?
  [[nodiscard]] bool chain_throttled(flow::ChainId chain) const {
    return chain < chain_throttles_.size() && chain_throttles_[chain] > 0;
  }

  /// Should `nf` be given the relinquish (yield) flag? True iff the NF lies
  /// strictly upstream of a throttling NF in every chain it serves.
  [[nodiscard]] bool should_pause_upstream(flow::NfId nf) const;

  /// This lane's transitions: the sum of its NFs' counts.
  [[nodiscard]] BpStats stats() const;

 private:
  struct NfState {
    ThrottleState state = ThrottleState::kClear;
    /// Dead-NF latch: while set, evaluate() leaves the state at Throttle.
    bool forced_dead = false;
    BpStats stats;  ///< Real transitions only; mirrors count on their lane.
  };

  void enter_throttle(flow::NfId nf);
  void leave_throttle(flow::NfId nf);
  void note_transition(flow::NfId nf, ThrottleState from, ThrottleState to,
                       std::size_t queue_len, Cycles now);

  const flow::ChainRegistry& chains_;
  BpConfig config_;
  std::vector<NfState> states_;
  /// Number of throttling NFs each chain currently passes through.
  std::vector<std::uint32_t> chain_throttles_;
  obs::Observability* obs_ = nullptr;
  std::vector<std::string> nf_names_;
  StateListener state_listener_;
};

}  // namespace nfv::bp
