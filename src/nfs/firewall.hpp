// Stateful-cached firewall NF.
//
// One of the canonical middleboxes NFV replaces (§1). Evaluates an ordered
// rule list against each packet's 5-tuple; first match wins; unmatched
// packets take the default policy. Wildcards are expressed as masks (0 =
// don't care), as in classic 5-tuple ACLs.
//
// A per-flow verdict cache (FlowStore) fronts the rule scan when the
// firewall is installed with path costs: a connection's first packet pays
// the full linear rule walk, later packets pay one table probe — which is
// how real ACL engines amortise deep rule lists, and why the per-packet
// cost now depends on flow-table state. The cache stores the *matched rule
// index* (not the verdict alone) so per-rule hit counters stay exact on
// cached packets; adding a rule flushes the cache, since a cached default
// verdict might now match it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/flow_store.hpp"
#include "nf/nf_task.hpp"
#include "nfs/lazy_store.hpp"
#include "pktio/flow_key.hpp"

namespace nfv::nfs {

enum class Verdict { kAllow, kDeny };

struct FirewallRule {
  std::string name;
  // Zero-valued fields are wildcards.
  std::uint32_t src_ip = 0;
  std::uint32_t src_mask = 0;
  std::uint32_t dst_ip = 0;
  std::uint32_t dst_mask = 0;
  std::uint16_t src_port = 0;  ///< 0 = any
  std::uint16_t dst_port = 0;  ///< 0 = any
  std::uint8_t proto = 0;      ///< 0 = any
  Verdict verdict = Verdict::kAllow;

  std::uint64_t hits = 0;

  [[nodiscard]] bool matches(const pktio::FlowKey& key) const {
    if ((key.src_ip & src_mask) != (src_ip & src_mask)) return false;
    if ((key.dst_ip & dst_mask) != (dst_ip & dst_mask)) return false;
    if (src_port != 0 && key.src_port != src_port) return false;
    if (dst_port != 0 && key.dst_port != dst_port) return false;
    if (proto != 0 && key.proto != proto) return false;
    return true;
  }
};

class Firewall {
 public:
  /// Per-packet cost by verdict-cache path (cycles): a cached flow costs a
  /// probe; a new flow costs the rule walk; an eviction adds displacing the
  /// coldest cached flow.
  struct PathCosts {
    Cycles hit = 180;
    Cycles miss = 700;
    Cycles evict = 1000;
  };

  explicit Firewall(Verdict default_policy = Verdict::kAllow,
                    std::uint32_t cache_flows = 1u << 16)
      : default_policy_(default_policy),
        cache_(Cache::Config{
            .max_flows = cache_flows,
            .idle_timeout = 0,
            .evict_lru_when_full = true,
            .auto_grow = false}) {}

  /// Append a rule (evaluated in insertion order). Flushes the verdict
  /// cache: flows cached on the default policy might now match this rule.
  FirewallRule& add_rule(FirewallRule rule) {
    rules_.push_back(std::move(rule));
    if (cache_.built()) cache_.get().clear();
    return rules_.back();
  }

  /// Evaluate a packet via the full rule walk; updates rule hit counters.
  Verdict evaluate(const pktio::FlowKey& key) {
    for (auto& rule : rules_) {
      if (rule.matches(key)) {
        ++rule.hits;
        return rule.verdict;
      }
    }
    ++default_hits_;
    return default_policy_;
  }

  /// Evaluate through the verdict cache, reporting which path was taken.
  /// Per-rule / default hit counters advance exactly as evaluate() would.
  struct CachedVerdict {
    Verdict verdict;
    flow::StorePath path;
  };
  CachedVerdict evaluate_cached(const pktio::FlowKey& key) {
    Cache& cache = cache_.get();
    const auto result = cache.install(key, static_cast<Cycles>(++tick_));
    std::int32_t& rule_index = cache.state(result.index);
    if (result.path == flow::StorePath::kHit) {
      if (rule_index >= 0) {
        auto& rule = rules_[static_cast<std::size_t>(rule_index)];
        ++rule.hits;
        return {rule.verdict, result.path};
      }
      ++default_hits_;
      return {default_policy_, result.path};
    }
    for (std::size_t i = 0; i < rules_.size(); ++i) {
      if (rules_[i].matches(key)) {
        ++rules_[i].hits;
        rule_index = static_cast<std::int32_t>(i);
        return {rules_[i].verdict, result.path};
      }
    }
    ++default_hits_;
    rule_index = -1;
    return {default_policy_, result.path};
  }

  /// Install as the packet handler of `task`. The Firewall must outlive it.
  void install(nf::NfTask& task) {
    task.set_handler([this](pktio::Mbuf& pkt) {
      const Verdict verdict = evaluate(pkt.key);
      if (verdict == Verdict::kDeny) {
        ++denied_;
        return nf::NfAction::kDrop;
      }
      ++allowed_;
      return nf::NfAction::kForward;
    });
  }

  /// State-dependent install: the cost probe runs the cached evaluation at
  /// burst-assembly time (dequeue order — burst-window invariant), charges
  /// the path cost, and leaves the verdict in pkt.nf_scratch for the
  /// handler to act on.
  void install(nf::NfTask& task, PathCosts costs) {
    task.cost_model() = nf::CostModel::state_dependent(
        [this, costs](pktio::Mbuf& pkt) {
          const CachedVerdict cached = evaluate_cached(pkt.key);
          pkt.nf_scratch = cached.verdict == Verdict::kDeny ? 1 : 0;
          switch (cached.path) {
            case flow::StorePath::kHit:
              return costs.hit;
            case flow::StorePath::kEvicted:
              return costs.evict;
            default:
              return costs.miss;
          }
        },
        costs.hit);
    task.set_handler([this](pktio::Mbuf& pkt) {
      if (pkt.nf_scratch != 0) {
        ++denied_;
        return nf::NfAction::kDrop;
      }
      ++allowed_;
      return nf::NfAction::kForward;
    });
  }

  [[nodiscard]] const std::vector<FirewallRule>& rules() const { return rules_; }
  [[nodiscard]] std::uint64_t allowed() const { return allowed_; }
  [[nodiscard]] std::uint64_t denied() const { return denied_; }
  [[nodiscard]] std::uint64_t default_hits() const { return default_hits_; }
  [[nodiscard]] std::size_t cached_flows() const {
    return cache_.view().size();
  }

 private:
  using Cache = flow::FlowStore<pktio::FlowKey, std::int32_t>;

  Verdict default_policy_;
  std::vector<FirewallRule> rules_;
  /// Per-flow cache: index of the matching rule, -1 = default policy.
  LazyFlowStore<Cache> cache_;
  std::uint64_t tick_ = 0;
  std::uint64_t allowed_ = 0;
  std::uint64_t denied_ = 0;
  std::uint64_t default_hits_ = 0;
};

}  // namespace nfv::nfs
