#include "mgr/slo_controller.hpp"

#include <algorithm>
#include <utility>

#include "mgr/share_allocator.hpp"

namespace nfv::mgr {

namespace {
/// Evidence floor: no boost/decay decision until the chain's window holds
/// this many egress samples.
constexpr std::uint32_t kSloMinSamples = 64;
constexpr double kSloBoostStep = 2.0;  ///< multiplicative boost per update
constexpr double kSloDecay = 0.5;      ///< boost decay per recovered update
/// A violating chain starts decaying only once p99 < headroom*target
/// (hysteresis against boost/decay flapping at the target edge).
constexpr double kSloHeadroom = 0.8;
/// Decay damping: a boosted chain must stay under headroom*target for this
/// many *consecutive* share updates before each decay step. Without it the
/// controller limit-cycles under persistent contention — the window
/// recovers within one update of a boost, the boost decays straight back
/// to 1.0, and the chain starves again.
constexpr std::uint32_t kSloDecayAfter = 3;
/// Earliest-slack-first width: at most this many chains — the ones with
/// the most negative slack, ties broken by chain id — are boosted per
/// share update; the rest wait their turn.
constexpr std::uint32_t kSloMaxBoostsPerUpdate = 2;
}  // namespace

void SloController::set_target(flow::ChainId chain, Cycles target,
                               bool tail_local) {
  at(chain).target = target;
  at(chain).tail_local = tail_local;
  const auto it = std::find(targeted_.begin(), targeted_.end(), chain);
  if (target > 0 && it == targeted_.end()) {
    targeted_.insert(
        std::upper_bound(targeted_.begin(), targeted_.end(), chain), chain);
  } else if (target == 0 && it != targeted_.end()) {
    targeted_.erase(it);
  }
}

void SloController::mirror(const ShardMsg& msg) {
  if (msg.kind == ShardMsg::Kind::kChainTail) {
    at(msg.nf).last_p99 = static_cast<Cycles>(msg.tail_p99);
  } else {
    at(msg.nf).violating = msg.tail_p99 != 0;
  }
}

std::vector<ShardMsg> SloController::observe(
    Cycles now, const std::vector<obs::LatencyEstimator>& tails,
    const bp::AdmissionController* adm, bool sharded) {
  std::vector<ShardMsg> mirror;
  auto* tr = obs::trace_of(obs_);
  for (flow::ChainId chain : targeted_) {
    ChainSloState& st = state_[chain];
    // The estimator fills where the chain's last hop runs; every other
    // replica holds the mirrored p99 and skips the bookkeeping below (so
    // violation time is never double-counted across lanes).
    if (!st.tail_local || chain >= tails.size()) continue;
    const obs::LatencyEstimator& est = tails[chain];
    if (est.size() < kSloMinSamples) continue;
    st.last_p99 = static_cast<Cycles>(est.quantile(0.99));
    const bool violating = st.last_p99 > st.target;
    if (violating) st.violation_cycles += kMonitorPeriod;
    if (violating != st.violating) {
      st.violating = violating;
      if (tr != nullptr) {
        tr->instant(
            now, obs::kSloLane, "slo",
            violating ? "violation_begin" : "violation_end",
            {{"chain", chains_.get(chain).name}},
            {{"p99_cycles", static_cast<std::int64_t>(st.last_p99)},
             {"target_cycles", static_cast<std::int64_t>(st.target)}});
      }
      // Admission engage trigger (DESIGN.md §17): the gate runs on the
      // chain's *home* lane but the violation clock lives here, on the
      // tail's lane — mirror the flip. Gated on the chain having a class,
      // so runs without admission post zero extra messages.
      if (sharded && adm != nullptr && adm->has_class(chain)) {
        mirror.push_back({.kind = ShardMsg::Kind::kChainOverload,
                          .nf = chain,
                          .tail_p99 = violating ? 1u : 0u});
      }
    }
    if (tr != nullptr) {
      tr->counter(now, obs::kSloLane, "slo", "chain_p99",
                  chains_.get(chain).name,
                  static_cast<std::int64_t>(st.last_p99));
    }
    // The mirror exists for remote replicas' boost decisions; rate-cost
    // fair runs (controller off) keep their message sequence unchanged.
    if (sharded && boosting_) {
      mirror.push_back({.kind = ShardMsg::Kind::kChainTail,
                        .nf = chain,
                        .tail_p99 = static_cast<std::uint64_t>(st.last_p99)});
    }
  }
  return mirror;
}

void SloController::update(Cycles now) {
  auto* tr = obs::trace_of(obs_);
  // Earliest-slack-first: rank violating chains by slack = target - p99
  // (most negative, i.e. worst, first; ties by chain id) and boost at most
  // kSloMaxBoostsPerUpdate of them this round. Chains comfortably inside
  // their target (p99 < headroom*target) decay back toward exactly 1.0,
  // at which point the allocation is again pure rate-cost fairness.
  std::vector<std::pair<double, flow::ChainId>> violating;
  for (flow::ChainId chain : targeted_) {
    ChainSloState& st = state_[chain];
    if (st.last_p99 == 0) continue;  // no evidence yet (local or mirrored)
    const double slack = static_cast<double>(st.target) -
                         static_cast<double>(st.last_p99);
    if (slack < 0.0) {
      st.clear_streak = 0;
      violating.emplace_back(slack, chain);
    } else if (static_cast<double>(st.last_p99) <
               kSloHeadroom * static_cast<double>(st.target)) {
      // Recovered update: decay only after kSloDecayAfter consecutive
      // clear updates, so one quiet window under persistent contention
      // doesn't throw the working boost away.
      if (st.boost > 1.0 && ++st.clear_streak >= kSloDecayAfter) {
        st.clear_streak = 0;
        st.boost = st.boost * kSloDecay;
        if (st.boost < 1.0 + 1e-9) st.boost = 1.0;  // settle exactly
        if (tr != nullptr) {
          tr->counter(now, obs::kSloLane, "slo", "chain_boost",
                      chains_.get(chain).name,
                      static_cast<std::int64_t>(st.boost * 1000.0));
        }
      }
    }
  }
  std::sort(violating.begin(), violating.end());
  const std::size_t limit = std::min<std::size_t>(
      violating.size(), kSloMaxBoostsPerUpdate);
  for (std::size_t i = 0; i < limit; ++i) {
    ChainSloState& st = state_[violating[i].second];
    const double before = st.boost;
    st.boost = std::min(kSloMaxBoost, st.boost * kSloBoostStep);
    if (st.boost != before && tr != nullptr) {
      tr->counter(now, obs::kSloLane, "slo", "chain_boost",
                  chains_.get(violating[i].second).name,
                  static_cast<std::int64_t>(st.boost * 1000.0));
    }
  }
}

double SloController::boost_of(flow::NfId id) const {
  double boost = 1.0;
  for (flow::ChainId chain : chains_.chains_through(id)) {
    if (chain < state_.size()) boost = std::max(boost, state_[chain].boost);
  }
  return boost;
}

}  // namespace nfv::mgr
