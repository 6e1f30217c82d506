// Open-loop UDP traffic source (MoonGen / Pktgen / iperf3-UDP stand-in).
//
// The paper's generators emit constant-rate flows of configurable packet
// size — 64-byte packets at 10 Gb/s line rate is 14.88 Mpps (§4.1). Per
// timer event this source takes `burst` arrivals from its ArrivalClock and
// delivers them — each stamped with its exact per-packet arrival time — in
// one burst ingress call, then re-arms at the last arrival. The arrival
// times are identical at any burst setting, so burst=1 reproduces the
// seed's one-event-per-packet schedule exactly. Being open loop, it never
// backs off: exactly the "non-responsive" traffic backpressure exists for.
#pragma once

#include <cstdint>

#include "mgr/manager.hpp"
#include "pktio/flow_key.hpp"
#include "sim/engine.hpp"
#include "traffic/arrival_clock.hpp"

namespace nfv::traffic {

/// 10 GbE line rate for 64-byte frames (with preamble + IFG): 14.88 Mpps.
inline constexpr double kLineRate64B = 14'880'000.0;

class UdpSource {
 public:
  struct Config {
    pktio::FlowKey key;           ///< Must be installed in the flow table.
    double rate_pps = 1e6;        ///< Offered load in packets per second.
    std::uint16_t size_bytes = 64;
    Cycles start_time = 0;
    Cycles stop_time = -1;  ///< -1 (max) = run until simulation end.
    std::uint8_t cost_classes = 0;  ///< >0: tag packets 0..n-1 round-robin.
    std::uint64_t seed = 0x9e3779b9ULL;  ///< Arrival jitter, with key.src_ip.
    /// Arrivals delivered per timer event (1 = one event per packet, the
    /// seed behaviour). Timestamps are exact at any setting.
    std::uint32_t burst = 1;
  };

  UdpSource(sim::Engine& engine, mgr::Manager& manager, const CpuClock& clock,
            Config config);
  /// Cancels any pending emit event — a queued callback must never outlive
  /// the source it captured.
  ~UdpSource();

  UdpSource(const UdpSource&) = delete;
  UdpSource& operator=(const UdpSource&) = delete;

  /// Arm the first arrival. Call once after Manager::start().
  void start();

  [[nodiscard]] std::uint64_t packets_sent() const { return sent_; }
  /// Packets lost at the wire because the lane's mbuf pool was empty.
  [[nodiscard]] std::uint64_t alloc_drops() const { return alloc_drops_; }

 private:
  void arm();
  void emit_batch();
  void stamp(pktio::Mbuf& pkt, std::uint64_t seq) const;

  sim::Engine& engine_;
  mgr::Manager& manager_;
  Config config_;
  ArrivalClock arrivals_;
  sim::EventId pending_ = sim::kInvalidEventId;
  std::uint64_t sent_ = 0;
  std::uint64_t alloc_drops_ = 0;
};

}  // namespace nfv::traffic
