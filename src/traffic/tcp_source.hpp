// Responsive TCP traffic source (iperf3 stand-in) with ECN support.
//
// Fig. 13's performance-isolation experiment needs a flow that *reacts* to
// congestion: it backs off on loss and on ECN marks, and ramps up when the
// path is clear. This source implements window-based AIMD with slow start:
// each round it paces `cwnd` packets across one RTT, observes how many made
// it out of the egress (and whether any carried an ECN mark), then halves
// on congestion or grows otherwise. Losses inside the NF platform — entry
// discards or ring overflows — show up as missing deliveries.
#pragma once

#include <cstdint>
#include <vector>

#include "mgr/manager.hpp"
#include "pktio/flow_key.hpp"
#include "sim/engine.hpp"

namespace nfv::traffic {

class TcpSource {
 public:
  struct Config {
    pktio::FlowKey key;  ///< proto must be kProtoTcp; installed in the table.
    std::uint16_t size_bytes = 1500;
    Cycles rtt = 520'000;  ///< 200 us at 2.6 GHz (back-to-back testbed).
    std::uint32_t max_cwnd = 4096;
    bool ecn_capable = true;
    Cycles start_time = 0;
    Cycles stop_time = -1;
    /// Packets delivered per pacing event where the window allows: after
    /// the first packet of a window (emitted at its exact time), groups of
    /// up to `burst` packets arrive from one callback at the group's last
    /// pacing slot, each stamped with its exact pacing time. 1 = the
    /// seed's one-event-per-packet pacing.
    std::uint32_t burst = 1;
  };

  TcpSource(sim::Engine& engine, mgr::Manager& manager, flow::FlowId flow_id,
            Config config);
  /// Cancels the pending pacing/ack event — a queued callback must never
  /// outlive the source it captured.
  ~TcpSource();

  TcpSource(const TcpSource&) = delete;
  TcpSource& operator=(const TcpSource&) = delete;

  /// Register the egress sink and arm the first window. Call once after
  /// Manager::start().
  void start();

  [[nodiscard]] std::uint32_t cwnd() const { return cwnd_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return sent_total_; }
  /// Packets lost at the wire because the lane's mbuf pool was empty.
  [[nodiscard]] std::uint64_t alloc_drops() const { return alloc_drops_; }
  [[nodiscard]] std::uint64_t packets_delivered() const { return delivered_total_; }
  [[nodiscard]] std::uint64_t congestion_events() const { return congestion_events_; }
  [[nodiscard]] std::uint64_t ecn_backoffs() const { return ecn_backoffs_; }

 private:
  void send_window();
  void stamp(pktio::Mbuf& pkt, std::uint64_t seq) const;
  void emit_group(Cycles first, std::uint32_t count);
  /// One Rx call for the pacing times in group_, then pace the rest.
  void send_group();
  void after_emit(Cycles last_emit);
  void evaluate_window();

  sim::Engine& engine_;
  mgr::Manager& manager_;
  flow::FlowId flow_id_;
  Config config_;
  sim::EventId pending_ = sim::kInvalidEventId;

  std::uint32_t cwnd_;
  std::uint32_t ssthresh_;
  std::uint64_t sent_total_ = 0;
  std::uint64_t alloc_drops_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::uint64_t congestion_events_ = 0;
  std::uint64_t ecn_backoffs_ = 0;

  /// Pacing times of the group being delivered.
  std::vector<Cycles> group_;

  // Per-window bookkeeping.
  std::uint32_t window_target_ = 0;
  std::uint32_t window_emitted_ = 0;
  std::uint64_t delivered_at_window_start_ = 0;
  std::uint64_t marks_at_window_start_ = 0;
  std::uint64_t marks_seen_ = 0;
};

}  // namespace nfv::traffic
