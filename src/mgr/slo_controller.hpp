// Latency-SLO controller (DESIGN.md §16), the share allocator's first
// multiplier, armed by the first chain target: per monitor tick a violation
// clock per chain; when boosting (ManagerConfig::slo.enabled), per share
// update a boost for NFs on violating chains, decaying back to 1.0.
#pragma once

#include <cstdint>
#include <vector>

#include "bp/admission.hpp"
#include "mgr/shard_link.hpp"
#include "obs/latency_estimator.hpp"
#include "obs/observability.hpp"

namespace nfv::mgr {

/// Cap on any chain's SLO share boost.
inline constexpr double kSloMaxBoost = 64.0;

/// Per-chain SLO state. Lives on every lane replica; the violation clock
/// only advances on the lane owning the chain's last hop (where the
/// estimator records), so summing violation_cycles across lanes never
/// double-counts. `boost` is maintained wherever the chain has local NFs,
/// from the same (possibly mirrored) p99 sequence on every lane.
struct ChainSloState {
  Cycles target = 0;           ///< p99 target in cycles; 0 = no SLO
  double boost = 1.0;          ///< current share multiplier (>= 1.0)
  bool violating = false;      ///< p99 over target at the last evaluation
  Cycles violation_cycles = 0; ///< total time spent in violation
  Cycles last_p99 = 0;         ///< latest evaluated p99 (local or mirrored)
  /// Consecutive share updates spent under headroom*target (resets on any
  /// violation); gates decay, see kSloDecayAfter in slo_controller.cpp.
  std::uint32_t clear_streak = 0;
  bool tail_local = false;     ///< This lane runs the chain's last hop.
};
/// The state of a chain without a target.
inline const ChainSloState kNoSlo{};

class SloController {
 public:
  SloController(const flow::ChainRegistry& chains, obs::Observability* obs,
                bool boosting)
      : chains_(chains), obs_(obs), boosting_(boosting) {}

  /// Set a chain's p99 target in cycles (0 clears it).
  void set_target(flow::ChainId chain, Cycles target, bool tail_local);
  /// Monitor tick, over the chains whose window (`tails`, by chain) fills
  /// here. On a `sharded` lane, returns what the other lanes need: each
  /// violation flip of a chain `adm` classes and, when boosting, each p99.
  std::vector<ShardMsg> observe(
      Cycles now, const std::vector<obs::LatencyEstimator>& tails,
      const bp::AdmissionController* adm, bool sharded);
  /// Share update: boost the worst violators, decay recovered chains.
  void update(Cycles now);
  /// Share multiplier for an NF: max boost over the SLO chains through it.
  [[nodiscard]] double boost_of(flow::NfId id) const;
  /// Apply a kChainTail (p99) or kChainOverload (violating flag) mirror
  /// from the chain's last-hop lane; `nf` carries the chain.
  void mirror(const ShardMsg& msg);

  [[nodiscard]] const ChainSloState& state(flow::ChainId chain) const {
    return chain < state_.size() ? state_[chain] : kNoSlo;
  }
  /// Does the share allocator take the boost term?
  [[nodiscard]] bool boosting() const {
    return boosting_ && !targeted_.empty();
  }

 private:
  ChainSloState& at(flow::ChainId chain) {
    if (chain >= state_.size()) state_.resize(chain + 1);
    return state_[chain];
  }

  const flow::ChainRegistry& chains_;
  obs::Observability* obs_;
  bool boosting_;
  std::vector<ChainSloState> state_;
  std::vector<flow::ChainId> targeted_;  ///< Chains with a target, ascending.
};

}  // namespace nfv::mgr
