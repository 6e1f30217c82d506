// Flow-churn workload generator.
//
// Drives the flow table the way an internet-facing middlebox sees traffic:
// a fixed-size population of concurrent flows, each living for a
// heavy-tailed (Pareto) number of packets — many mice, a few elephants —
// and being replaced by a brand-new 5-tuple when it completes. The source
// installs each new flow's rule itself (the Flow Rule Installer role), so
// a run churns through far more distinct flows than are ever concurrently
// live and the table's install / touch / expire machinery is exercised at
// scale.
//
// Determinism mirrors UdpSource: arrival times come from an ArrivalClock
// with its own RNG while flow picking / flow lengths consume a second, so
// the packet sequence (keys, timestamps, flow birth order) is identical at
// any burst setting. Installs and touches are stamped with the packet's
// arrival timestamp, not the delivery time, for the same reason.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "flow/flow_table.hpp"
#include "mgr/manager.hpp"
#include "pktio/flow_key.hpp"
#include "sim/engine.hpp"
#include "traffic/arrival_clock.hpp"

namespace nfv::traffic {

class ChurnSource {
 public:
  struct Config {
    flow::ChainId chain = 0;
    double rate_pps = 1e6;  ///< Aggregate over the whole population.
    std::uint32_t concurrent_flows = 1024;
    std::uint16_t size_bytes = 64;
    Cycles start_time = 0;
    Cycles stop_time = -1;  ///< -1 (max) = run until simulation end.
    /// Flow length in packets ~ Pareto(min_packets, alpha): alpha <= 2
    /// gives the classic mice-and-elephants mix.
    double pareto_alpha = 2.0;
    double pareto_min_packets = 2.0;
    std::uint64_t seed = 0xC0FFEEULL;
    /// Arrivals delivered per timer event (1 = one event per packet).
    std::uint32_t burst = 1;
    /// 5-tuple space for generated flows (src_ip/src_port enumerate; all
    /// go to 10.128.0.1:80).
    std::uint32_t src_ip_base = 0x0b000000;
  };

  ChurnSource(sim::Engine& engine, mgr::Manager& manager,
              flow::FlowTable& flows, const CpuClock& clock, Config config);
  /// Cancels any pending emit event — a queued callback must never outlive
  /// the source it captured.
  ~ChurnSource();

  ChurnSource(const ChurnSource&) = delete;
  ChurnSource& operator=(const ChurnSource&) = delete;

  /// Install the initial flow population and arm the first arrival. Call
  /// once after Manager::start().
  void start();

  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t flows_created() const { return flows_created_; }
  [[nodiscard]] std::uint64_t flows_retired() const { return flows_retired_; }
  /// Packets lost at the wire because the lane's mbuf pool was empty.
  [[nodiscard]] std::uint64_t alloc_drops() const { return alloc_drops_; }

 private:
  struct ActiveFlow {
    pktio::FlowKey key;
    std::uint64_t remaining = 0;  ///< Packets left before retirement.
    std::uint64_t seq = 0;
  };

  void arm();
  void emit_batch();
  void spawn_flow(std::uint32_t slot, Cycles now);
  [[nodiscard]] std::uint64_t draw_flow_length();

  sim::Engine& engine_;
  mgr::Manager& manager_;
  flow::FlowTable& flows_;
  Config config_;
  /// The clock's RNG is consumed only at arm time, the flow RNG only at
  /// emit time, so neither sequence shifts with the burst setting.
  ArrivalClock arrivals_;
  Rng flow_rng_;
  std::vector<ActiveFlow> active_;
  sim::EventId pending_ = sim::kInvalidEventId;
  std::uint64_t sent_ = 0;
  std::uint64_t flows_created_ = 0;
  std::uint64_t flows_retired_ = 0;
  std::uint64_t alloc_drops_ = 0;
};

}  // namespace nfv::traffic
