// Source NAT (NAPT) NF.
//
// Rewrites the source address/port of outbound packets to a public address
// with a per-connection allocated port, maintaining the translation table a
// real NAPT middlebox keeps. The table is a FlowStore (flow-state library):
// the NAT port *is* the pool index plus the port base — vigor's NAT layout,
// where dchain_allocate_new_index() names the port — so ports allocate
// sequentially and an evicted binding's port is reused by the connection
// that displaced it. Translations are stable for a connection's lifetime
// and reclaimed least-recently-translated-first under port exhaustion.
#pragma once

#include <cstdint>

#include "flow/flow_store.hpp"
#include "nf/nf_task.hpp"
#include "nfs/lazy_store.hpp"
#include "pktio/flow_key.hpp"

namespace nfv::nfs {

class Nat {
 public:
  struct Config {
    std::uint32_t public_ip = 0xc0a80001;  ///< 192.168.0.1
    std::uint16_t port_base = 20000;
    std::uint16_t port_count = 10000;
  };

  /// Per-packet cost by translation-table path (cycles): a hit is a probe
  /// plus a header rewrite; a miss adds the binding allocation; an eviction
  /// adds tearing down the displaced binding first. Feeds the s_i estimator,
  /// so NAT load now tracks table churn, not just packet rate.
  struct PathCosts {
    Cycles hit = 220;
    Cycles miss = 600;
    Cycles evict = 950;
  };

  Nat() : Nat(Config{}) {}
  explicit Nat(Config config)
      : config_(config),
        bindings_(Bindings::Config{.max_flows = config.port_count,
                                   .idle_timeout = 0,
                                   .evict_lru_when_full = true,
                                   .auto_grow = false}) {}

  struct Translation {
    std::uint32_t orig_ip;
    std::uint16_t orig_port;
    std::uint16_t nat_port;
  };

  /// Translate (and rewrite) an outbound packet's source, reporting which
  /// table path it took; allocates a binding on first sight of a
  /// connection, evicting the least-recently-translated one when the port
  /// pool is exhausted.
  flow::StorePath translate_path(pktio::Mbuf& pkt) {
    const BindingKey key{pkt.key.src_ip, pkt.key.src_port, pkt.key.proto};
    const auto result =
        bindings_.get().install(key, static_cast<Cycles>(++tick_));
    if (result.path != flow::StorePath::kHit) {
      ++allocations_;
      if (result.path == flow::StorePath::kEvicted) ++evictions_;
    }
    pkt.key.src_ip = config_.public_ip;
    pkt.key.src_port = port_of(result.index);
    ++translated_;
    return result.path;
  }

  void translate(pktio::Mbuf& pkt) { translate_path(pkt); }

  /// Classic handler: translation runs inside the packet handler; the
  /// task's configured cost model is untouched.
  void install(nf::NfTask& task) {
    task.set_handler([this](pktio::Mbuf& pkt) {
      translate(pkt);
      return nf::NfAction::kForward;
    });
  }

  /// State-dependent install: the cost probe performs the translation at
  /// burst-assembly time and charges the path-specific cost, so s_i shifts
  /// with binding-table hits, misses and evictions. The handler just
  /// forwards — the rewrite already happened, in the same dequeue order a
  /// handler would have run in (burst-window invariant).
  void install(nf::NfTask& task, PathCosts costs) {
    task.cost_model() = nf::CostModel::state_dependent(
        [this, costs](pktio::Mbuf& pkt) {
          switch (translate_path(pkt)) {
            case flow::StorePath::kHit:
              return costs.hit;
            case flow::StorePath::kEvicted:
              return costs.evict;
            default:
              return costs.miss;
          }
        },
        costs.hit);
    task.set_handler(
        [](pktio::Mbuf&) { return nf::NfAction::kForward; });
  }

  /// Existing binding for a source (for tests/inspection); 0 if none.
  [[nodiscard]] std::uint16_t binding(std::uint32_t ip, std::uint16_t port,
                                      std::uint8_t proto) const {
    const std::uint32_t idx =
        bindings_.view().peek(BindingKey{ip, port, proto});
    return idx == flow::IndexPool::kNoIndex ? 0 : port_of(idx);
  }

  [[nodiscard]] std::size_t active_bindings() const {
    return bindings_.view().size();
  }
  [[nodiscard]] std::uint64_t translated() const { return translated_; }
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  struct BindingKey {
    std::uint32_t ip;
    std::uint16_t port;
    std::uint8_t proto;
    friend bool operator==(const BindingKey&, const BindingKey&) = default;
  };
  struct BindingKeyFastHash {
    std::uint64_t operator()(const BindingKey& k) const {
      std::uint64_t h = (static_cast<std::uint64_t>(k.ip) << 24) |
                        (static_cast<std::uint64_t>(k.port) << 8) | k.proto;
      h = (h ^ 0x9e3779b97f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 29;
      h *= 0x94d049bb133111ebULL;
      h ^= h >> 32;
      return h;
    }
  };
  struct Empty {};
  using Bindings = flow::FlowStore<BindingKey, Empty, BindingKeyFastHash>;

  [[nodiscard]] std::uint16_t port_of(std::uint32_t index) const {
    return static_cast<std::uint16_t>(config_.port_base + index);
  }

  Config config_;
  LazyFlowStore<Bindings> bindings_;
  std::uint64_t tick_ = 0;  ///< Logical clock ordering the LRU chain.
  std::uint64_t translated_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace nfv::nfs
