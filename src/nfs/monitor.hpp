// Flow-monitoring NF (per-flow accounting middlebox).
//
// §3.1 cites "a basic monitor NF" as a canonical small NF. Tracks per-flow
// packet and byte counters keyed by the packet 5-tuple and can report the
// top talkers — the workload of a NetFlow/IPFIX-style probe. The counter
// table is a bounded FlowStore: like a real probe's flow cache, it holds a
// fixed number of records and recycles the least-recently-seen one when a
// new flow arrives over capacity (the displaced record's counts are lost —
// the classic NetFlow cache-overflow artifact).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "flow/flow_store.hpp"
#include "nf/nf_task.hpp"
#include "nfs/lazy_store.hpp"
#include "pktio/flow_key.hpp"

namespace nfv::nfs {

class FlowMonitor {
 public:
  struct FlowStats {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };

  /// Per-packet cost by flow-cache path (cycles): counter bump on a hit,
  /// record allocation on a miss, record recycling on an eviction.
  struct PathCosts {
    Cycles hit = 120;
    Cycles miss = 350;
    Cycles evict = 500;
  };

  FlowMonitor() : FlowMonitor(1u << 16) {}
  explicit FlowMonitor(std::uint32_t max_flows)
      : flows_(Flows::Config{
            .max_flows = max_flows,
            .idle_timeout = 0,
            .evict_lru_when_full = true,
            .auto_grow = false}) {}

  /// Account one packet, reporting the flow-cache path it took.
  flow::StorePath observe_path(const pktio::Mbuf& pkt) {
    Flows& flows = flows_.get();
    const auto result = flows.install(pkt.key, static_cast<Cycles>(++tick_));
    FlowStats& stats = flows.state(result.index);
    ++stats.packets;
    stats.bytes += pkt.size_bytes;
    ++total_packets_;
    return result.path;
  }

  void observe(const pktio::Mbuf& pkt) { observe_path(pkt); }

  void install(nf::NfTask& task) {
    task.set_handler([this](pktio::Mbuf& pkt) {
      observe(pkt);
      return nf::NfAction::kForward;
    });
  }

  /// State-dependent install: accounting happens in the cost probe at
  /// burst-assembly time (dequeue order — burst-window invariant) and the
  /// charged cost follows the flow-cache path.
  void install(nf::NfTask& task, PathCosts costs) {
    task.cost_model() = nf::CostModel::state_dependent(
        [this, costs](pktio::Mbuf& pkt) {
          switch (observe_path(pkt)) {
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

  [[nodiscard]] std::size_t flow_count() const { return flows_.view().size(); }
  [[nodiscard]] std::uint64_t total_packets() const { return total_packets_; }
  [[nodiscard]] std::uint64_t cache_evictions() const {
    return flows_.view().lru_evictions();
  }

  [[nodiscard]] FlowStats stats_for(const pktio::FlowKey& key) const {
    const Flows& flows = flows_.view();
    const std::uint32_t idx = flows.peek(key);
    return idx == flow::IndexPool::kNoIndex ? FlowStats{} : flows.state(idx);
  }

  /// The k flows with the most bytes, descending.
  [[nodiscard]] std::vector<std::pair<pktio::FlowKey, FlowStats>> top_talkers(
      std::size_t k) const {
    const Flows& flows = flows_.view();
    std::vector<std::pair<pktio::FlowKey, FlowStats>> all;
    all.reserve(flows.size());
    flows.for_each([&](std::uint32_t, const pktio::FlowKey& key,
                        const FlowStats& stats) { all.emplace_back(key, stats); });
    std::partial_sort(all.begin(), all.begin() + std::min(k, all.size()),
                      all.end(), [](const auto& a, const auto& b) {
                        return a.second.bytes > b.second.bytes;
                      });
    all.resize(std::min(k, all.size()));
    return all;
  }

 private:
  using Flows = flow::FlowStore<pktio::FlowKey, FlowStats>;

  LazyFlowStore<Flows> flows_;
  std::uint64_t tick_ = 0;
  std::uint64_t total_packets_ = 0;
};

}  // namespace nfv::nfs
