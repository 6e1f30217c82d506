// L4 load-balancer NF.
//
// Spreads connections over a backend pool. Two policies: flow-hash
// (consistent for a connection — what an L4 LB must guarantee) and
// round-robin per packet (for comparison in tests). Rewrites the packet's
// destination to the chosen backend.
//
// Flow-hash mode keeps a real connection table (FlowStore): the backend is
// chosen by hash on first sight and *pinned* thereafter — so a connection
// stays on its backend even if the pool hashing would have moved it, and
// the per-packet cost can distinguish a table hit from a first-packet
// install or an eviction under connection-count pressure.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/flow_store.hpp"
#include "nf/nf_task.hpp"
#include "nfs/lazy_store.hpp"
#include "pktio/flow_key.hpp"

namespace nfv::nfs {

class LoadBalancer {
 public:
  enum class Policy { kFlowHash, kRoundRobin };

  struct Backend {
    std::uint32_t ip;
    std::uint64_t packets = 0;
  };

  /// Per-packet cost by connection-table path (cycles). Round-robin mode
  /// never touches the table and always charges `hit`.
  struct PathCosts {
    Cycles hit = 150;
    Cycles miss = 400;
    Cycles evict = 650;
  };

  LoadBalancer(std::vector<std::uint32_t> backend_ips,
               Policy policy = Policy::kFlowHash,
               std::uint32_t max_connections = 1u << 16)
      : policy_(policy),
        connections_(Connections::Config{
            .max_flows = max_connections,
            .idle_timeout = 0,
            .evict_lru_when_full = true,
            .auto_grow = false}) {
    for (const auto ip : backend_ips) backends_.push_back(Backend{ip});
  }

  /// Pick a backend for this packet, rewrite its destination, and report
  /// the connection-table path taken (round-robin reports kHit: constant
  /// cost, no state).
  flow::StorePath steer_path(pktio::Mbuf& pkt) {
    std::size_t index = 0;
    flow::StorePath path = flow::StorePath::kHit;
    if (policy_ == Policy::kFlowHash) {
      Connections& connections = connections_.get();
      const auto result =
          connections.install(pkt.key, static_cast<Cycles>(++tick_));
      std::uint32_t& pinned = connections.state(result.index);
      if (result.path != flow::StorePath::kHit) {
        pinned = static_cast<std::uint32_t>(pktio::FlowKeyHash{}(pkt.key) %
                                            backends_.size());
      }
      index = pinned;
      path = result.path;
    } else {
      index = next_rr_++ % backends_.size();
    }
    Backend& backend = backends_[index];
    ++backend.packets;
    pkt.key.dst_ip = backend.ip;
    return path;
  }

  /// Pick a backend for this packet and rewrite its destination.
  std::uint32_t steer(pktio::Mbuf& pkt) {
    steer_path(pkt);
    return pkt.key.dst_ip;
  }

  void install(nf::NfTask& task) {
    task.set_handler([this](pktio::Mbuf& pkt) {
      steer(pkt);
      return nf::NfAction::kForward;
    });
  }

  /// State-dependent install: steering happens in the cost probe at
  /// burst-assembly time (dequeue order — burst-window invariant) and the
  /// charged cost follows the connection-table path.
  void install(nf::NfTask& task, PathCosts costs) {
    task.cost_model() = nf::CostModel::state_dependent(
        [this, costs](pktio::Mbuf& pkt) {
          switch (steer_path(pkt)) {
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

  [[nodiscard]] const std::vector<Backend>& backends() const {
    return backends_;
  }
  [[nodiscard]] std::size_t active_connections() const {
    return connections_.view().size();
  }
  [[nodiscard]] std::uint64_t connection_evictions() const {
    return connections_.view().lru_evictions();
  }

 private:
  using Connections = flow::FlowStore<pktio::FlowKey, std::uint32_t>;

  Policy policy_;
  std::vector<Backend> backends_;
  LazyFlowStore<Connections> connections_;
  std::uint64_t tick_ = 0;
  std::size_t next_rr_ = 0;
};

}  // namespace nfv::nfs
