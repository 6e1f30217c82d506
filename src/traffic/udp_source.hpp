// Open-loop UDP traffic source (MoonGen / Pktgen / iperf3-UDP stand-in).
//
// The paper's generators emit constant-rate flows of configurable packet
// size — 64-byte packets at 10 Gb/s line rate is 14.88 Mpps (§4.1). This
// source pre-draws `burst` inter-arrival gaps per timer event and delivers
// that many packets — each stamped with its exact per-packet arrival time —
// in one burst ingress call, then re-arms at the last arrival. The gap
// sequence consumed is identical at any burst setting, so burst=1
// reproduces the seed's one-event-per-packet schedule exactly. Being open
// loop, it never backs off: exactly the "non-responsive" traffic
// backpressure exists for.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "mgr/manager.hpp"
#include "pktio/flow_key.hpp"
#include "sim/engine.hpp"

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
    /// Per-packet inter-arrival jitter as a fraction of the interval
    /// (uniform, zero-mean). Real generators are never perfectly phase
    /// locked; without this, same-rate flows emit at identical timestamps
    /// and ring-full drops bias deterministically toward one flow.
    double jitter_fraction = 0.1;
    /// Poisson arrivals (exponential inter-arrival times at the same mean
    /// rate) instead of jittered CBR — burstier, for sensitivity studies.
    bool poisson = false;
    std::uint64_t seed = 0x9e3779b9ULL;
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
  [[nodiscard]] Cycles draw_gap();

  sim::Engine& engine_;
  mgr::Manager& manager_;
  Config config_;
  Cycles interval_;
  Rng rng_;
  /// Arrival timestamps of the armed batch, and the first arrival of the
  /// batch after it (its gap is drawn at arming time so the consumed gap
  /// sequence never depends on the burst setting).
  std::vector<Cycles> batch_;
  Cycles next_time_ = 0;
  sim::EventId pending_ = sim::kInvalidEventId;
  std::uint64_t sent_ = 0;
  std::uint64_t alloc_drops_ = 0;
};

}  // namespace nfv::traffic
