#include "traffic/tcp_source.hpp"

#include <algorithm>

namespace nfv::traffic {

namespace {
constexpr std::uint32_t kInitialCwnd = 10;  ///< packets (RFC 6928)
constexpr std::uint32_t kInitialSsthresh = 256;
}  // namespace

TcpSource::TcpSource(sim::Engine& engine, mgr::Manager& manager,
                     flow::FlowId flow_id, Config config)
    : engine_(engine),
      manager_(manager),
      flow_id_(flow_id),
      config_(config),
      cwnd_(kInitialCwnd),
      ssthresh_(kInitialSsthresh) {}

TcpSource::~TcpSource() {
  if (pending_ != sim::kInvalidEventId) engine_.cancel(pending_);
}

void TcpSource::start() {
  manager_.set_egress_sink(flow_id_, [this](const pktio::Mbuf& pkt) {
    ++delivered_total_;
    if (pkt.ecn_marked) ++marks_seen_;
  });
  const Cycles first = std::max(config_.start_time, engine_.now());
  pending_ = engine_.schedule_at(first, [this] {
    pending_ = sim::kInvalidEventId;
    send_window();
  });
}

void TcpSource::send_window() {
  if (config_.stop_time >= 0 && engine_.now() >= config_.stop_time) return;
  window_target_ = cwnd_;
  window_emitted_ = 0;
  delivered_at_window_start_ = delivered_total_;
  marks_at_window_start_ = marks_seen_;
  // The window's first packet goes out right now; the rest are paced in
  // groups of up to `burst` behind it.
  group_.assign(1, engine_.now());
  send_group();
}

void TcpSource::stamp(pktio::Mbuf& pkt, std::uint64_t seq) const {
  pkt.size_bytes = config_.size_bytes;
  pkt.is_tcp = true;
  pkt.ecn_capable = config_.ecn_capable;
  pkt.seq = seq;
}

void TcpSource::emit_group(Cycles first, std::uint32_t count) {
  pending_ = sim::kInvalidEventId;
  // Delivered at the group's last pacing slot in one Rx call; each packet
  // still carries its exact pacing time.
  const Cycles gap = config_.rtt / window_target_;
  group_.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    group_.push_back(first + static_cast<Cycles>(i) * gap);
  }
  send_group();
}

void TcpSource::send_group() {
  // A packet that finds the pool empty is lost at the wire: it counts
  // against the window (it is never delivered) but takes no seq.
  const std::uint64_t first_seq = sent_total_;
  const std::size_t lost = manager_.ingress(
      config_.key, group_.data(), group_.size(),
      [&](pktio::Mbuf& pkt, std::size_t i) { stamp(pkt, first_seq + i); });
  sent_total_ += group_.size() - lost;
  alloc_drops_ += lost;
  window_emitted_ += static_cast<std::uint32_t>(group_.size());
  after_emit(group_.back());
}

void TcpSource::after_emit(Cycles last_emit) {
  if (window_emitted_ < window_target_) {
    // Pace the window evenly across the RTT.
    const Cycles gap = config_.rtt / window_target_;
    const std::uint32_t count =
        std::min(std::max<std::uint32_t>(1, config_.burst),
                 window_target_ - window_emitted_);
    const Cycles first = last_emit + gap;
    const Cycles last = first + static_cast<Cycles>(count - 1) * gap;
    pending_ = engine_.schedule_at(
        last, [this, first, count] { emit_group(first, count); });
  } else {
    // Acks for the tail of the window arrive one RTT after it was sent.
    pending_ = engine_.schedule_after(config_.rtt, [this] {
      pending_ = sim::kInvalidEventId;
      evaluate_window();
    });
  }
}

void TcpSource::evaluate_window() {
  const std::uint64_t delivered = delivered_total_ - delivered_at_window_start_;
  const std::uint64_t marked = marks_seen_ - marks_at_window_start_;
  const bool lost = delivered < window_target_;

  if (lost || marked > 0) {
    // Multiplicative decrease, once per RTT (RFC 3168 §6.1.2 for marks).
    ssthresh_ = std::max<std::uint32_t>(2, cwnd_ / 2);
    cwnd_ = ssthresh_;
    ++congestion_events_;
    if (!lost && marked > 0) ++ecn_backoffs_;
  } else if (cwnd_ < ssthresh_) {
    cwnd_ = std::min(cwnd_ * 2, ssthresh_);  // slow start
  } else {
    cwnd_ = std::min(cwnd_ + 1, config_.max_cwnd);  // congestion avoidance
  }
  cwnd_ = std::max<std::uint32_t>(1, std::min(cwnd_, config_.max_cwnd));
  send_window();
}

}  // namespace nfv::traffic
