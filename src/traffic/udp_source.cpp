#include "traffic/udp_source.hpp"

#include <algorithm>
#include <cassert>

namespace nfv::traffic {

UdpSource::UdpSource(sim::Engine& engine, mgr::Manager& manager,
                     const CpuClock& clock, Config config)
    : engine_(engine),
      manager_(manager),
      config_(config),
      rng_(config.seed ^ config.key.src_ip) {
  assert(config_.rate_pps > 0.0);
  interval_ = std::max<Cycles>(1, clock.from_seconds(1.0 / config_.rate_pps));
  batch_.reserve(std::max<std::uint32_t>(1, config_.burst));
}

UdpSource::~UdpSource() {
  if (pending_ != sim::kInvalidEventId) engine_.cancel(pending_);
}

void UdpSource::start() {
  next_time_ = std::max(config_.start_time, engine_.now());
  arm();
}

Cycles UdpSource::draw_gap() {
  // Zero-mean uniform jitter keeps the long-run rate exact while breaking
  // inter-flow phase locking; Poisson mode draws exponential gaps instead.
  Cycles gap = interval_;
  if (config_.poisson) {
    gap = static_cast<Cycles>(
        rng_.next_exponential(static_cast<double>(interval_)));
  } else if (config_.jitter_fraction > 0.0) {
    const double u = 2.0 * rng_.next_double() - 1.0;  // [-1, 1)
    gap += static_cast<Cycles>(u * config_.jitter_fraction *
                               static_cast<double>(interval_));
  }
  return gap < 1 ? 1 : gap;
}

void UdpSource::arm() {
  // Lay out the next `burst` arrival times, then draw one further gap for
  // the batch after this one. Gap j always separates arrivals j and j+1,
  // so the consumed RNG sequence — and with it every arrival timestamp —
  // is independent of the burst setting.
  const std::uint32_t k = std::max<std::uint32_t>(1, config_.burst);
  batch_.clear();
  batch_.push_back(next_time_);
  for (std::uint32_t i = 1; i < k; ++i) {
    batch_.push_back(batch_.back() + draw_gap());
  }
  next_time_ = batch_.back() + draw_gap();
  pending_ = engine_.schedule_at(batch_.back(), [this] { emit_batch(); });
}

void UdpSource::emit_batch() {
  pending_ = sim::kInvalidEventId;
  std::size_t n = 0;  // arrivals before the stop time
  while (n < batch_.size() &&
         (config_.stop_time < 0 || batch_[n] < config_.stop_time)) {
    ++n;
  }
  // One Rx call for the burst; near the pool's cap it loses the packets
  // that find no descriptor, and seq counts only the ones sent.
  const std::uint64_t first_seq = sent_;
  const std::size_t lost = manager_.ingress(
      config_.key, batch_.data(), n,
      [&](pktio::Mbuf& pkt, std::size_t i) { stamp(pkt, first_seq + i); });
  sent_ += n - lost;
  alloc_drops_ += lost;
  if (n == batch_.size()) arm();  // else halt
}

void UdpSource::stamp(pktio::Mbuf& pkt, std::uint64_t seq) const {
  pkt.size_bytes = config_.size_bytes;
  pkt.is_tcp = false;
  pkt.seq = seq;
  // Classes go round-robin over the packets sent, which seq counts.
  if (config_.cost_classes > 0) {
    pkt.cost_class = static_cast<std::uint8_t>(seq % config_.cost_classes);
  }
}

}  // namespace nfv::traffic
