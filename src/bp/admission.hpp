// Utility-aware ingress admission control (DESIGN.md §17).
//
// The Fig. 4 hysteresis backpressure sheds *every* chain through a
// throttled NF the same way. This controller adds a criticality axis on
// top of it, IRON-style: chains opt in with a flow class (priority +
// utility); when the class's first-hop queue crosses the engage watermark
// or the chain's SLO violation clock is running, the gate starts shedding
// the *lowest-utility* classes sharing that queue first, one class per
// hold period, until pressure clears. A shed class is not blackholed — a
// per-class token bucket trickles a bounded packet rate through so the
// class keeps a live cost estimate and recovers instantly on release.
//
// Anti-limit-cycling mirrors the SLO controller's decay streak (§16):
// engage and release watermarks are split, and any engage/release action
// arms a minimum-hold countdown during which the ladder cannot move
// again, so a queue oscillating around the watermark cannot flap classes.
//
// The controller is passive: the Manager calls admit() per ingress packet
// (two branches when the chain has no class) and evaluate() on the
// monitor cadence with the queue occupancies it owns. Chains with no
// registered class never touch the controller — the all-off path is one
// null pointer test in the Manager.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "flow/service_chain.hpp"
#include "obs/observability.hpp"

namespace nfv::bp {

struct AdmissionConfig {
  /// Engage pressure when the class's first-hop RX occupancy reaches this
  /// fraction of capacity (aligned with the backpressure high watermark).
  double engage_watermark = 0.80;
  /// Pressure is relieved only below this fraction (hysteresis band).
  double release_watermark = 0.50;
  /// Minimum evaluations (monitor cadence) between consecutive ladder
  /// actions in one ingress group — the engage/release hold time.
  std::uint32_t min_hold_evals = 4;
  /// Trickle rate admitted per *shed* class, in packets per second. Keeps
  /// the shed class's downstream cost estimate alive (same rationale as
  /// the Manager's share floor) instead of blackholing it.
  double shed_admit_pps = 50'000.0;
  /// Token bucket depth for the trickle, in packets.
  double shed_burst = 32.0;
  /// Converts shed_admit_pps to tokens per cycle.
  double cpu_hz = kDefaultCpuHz;
};

/// A chain's flow class (`class <chain> priority= utility=`). Priority
/// feeds the PAM push-aside neighbor ranking; utility orders the shed
/// ladder (lowest goes first).
struct ClassSpec {
  double priority = 1.0;
  double utility = 1.0;
};

struct AdmissionClassStats {
  std::uint64_t engagements = 0;     ///< Times this class was shed.
  std::uint64_t releases = 0;        ///< Times shedding was lifted.
  std::uint64_t discards = 0;        ///< Ingress packets discarded.
  std::uint64_t trickle_admits = 0;  ///< Packets admitted while shed.
};

/// Per-eval input for one classed chain, built by the Manager. Chains
/// sharing a first hop (`group`) share one shed ladder.
struct AdmissionInput {
  flow::ChainId chain = 0;
  flow::NfId group = 0;         ///< First-hop NF — the contended queue.
  double occupancy = 0.0;       ///< First-hop RX size/capacity in [0,1].
  bool violating = false;       ///< Chain's SLO violation clock running.
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config = {});

  /// Register (or update) a chain's flow class. Must precede traffic.
  void set_class(flow::ChainId chain, ClassSpec spec);

  [[nodiscard]] bool has_class(flow::ChainId chain) const {
    return chain < chains_.size() && chains_[chain].classed;
  }
  [[nodiscard]] const ClassSpec* class_of(flow::ChainId chain) const {
    return has_class(chain) ? &chains_[chain].spec : nullptr;
  }
  [[nodiscard]] std::size_t class_count() const { return class_count_; }

  /// Register per-class adm.* probes of the class stats (chain-scoped by
  /// chain id) and emit lane-905 trace events named by `chain_names`.
  /// Registration touches only classed chains, so runs without classes keep
  /// the legacy metrics layout byte-identical.
  void set_observability(obs::Observability* obs,
                         const std::vector<std::string>& chain_names);

  /// Ingress gate: may `chain` accept a packet at `now`? Unclassed or
  /// un-shed chains always admit; shed chains spend a trickle token or
  /// report a discard (the caller owns the drop accounting).
  [[nodiscard]] bool admit(flow::ChainId chain, Cycles now);

  /// Advance every shed ladder one step against fresh queue/SLO inputs.
  /// Call on the monitor cadence with one entry per locally-headed
  /// classed chain; grouping is by `AdmissionInput::group`.
  void evaluate(Cycles now, const std::vector<AdmissionInput>& inputs);

  /// Is the chain's class currently being shed?
  [[nodiscard]] bool engaged(flow::ChainId chain) const {
    return chain < chains_.size() && chains_[chain].engaged;
  }

  [[nodiscard]] const AdmissionClassStats& stats(flow::ChainId chain) const {
    return chains_[chain].stats;
  }

  /// Total ingress discards across every class — the distinct
  /// conservation sink (separate from entry-throttle and unmatched drops).
  [[nodiscard]] std::uint64_t total_discards() const;

  [[nodiscard]] const AdmissionConfig& config() const { return config_; }

 private:
  struct ChainState {
    bool classed = false;
    bool engaged = false;
    ClassSpec spec;
    /// Trickle bucket; full on engage so release/re-engage cannot starve
    /// a burst that would have passed the instant before.
    double tokens = 0.0;
    Cycles last_refill = 0;
    AdmissionClassStats stats;
  };

  /// Shed-ladder cooldown per ingress group (first-hop NF id -> evals
  /// remaining before the next engage/release action may fire).
  struct GroupHold {
    flow::NfId group = 0;
    std::uint32_t hold = 0;
  };

  std::uint32_t& hold_of(flow::NfId group);
  void engage(flow::ChainId chain, double occupancy, Cycles now);
  void release(flow::ChainId chain, double occupancy, Cycles now);

  AdmissionConfig config_;
  double tokens_per_cycle_ = 0.0;
  std::size_t class_count_ = 0;
  std::vector<ChainState> chains_;
  std::vector<GroupHold> holds_;
  obs::Observability* obs_ = nullptr;
  std::vector<std::string> chain_names_;
};

}  // namespace nfv::bp
