#include "traffic/udp_source.hpp"

#include <algorithm>
#include <cassert>

namespace nfv::traffic {

UdpSource::UdpSource(sim::Engine& engine, mgr::Manager& manager,
                     const CpuClock& clock, Config config)
    : engine_(engine),
      manager_(manager),
      config_(config),
      arrivals_(clock, config.rate_pps, config.burst,
                config.seed ^ config.key.src_ip) {
  assert(config_.rate_pps > 0.0);
}

UdpSource::~UdpSource() {
  if (pending_ != sim::kInvalidEventId) engine_.cancel(pending_);
}

void UdpSource::start() {
  arrivals_.start(std::max(config_.start_time, engine_.now()));
  arm();
}

void UdpSource::arm() {
  pending_ = engine_.schedule_at(arrivals_.next_batch(),
                                 [this] { emit_batch(); });
}

void UdpSource::emit_batch() {
  pending_ = sim::kInvalidEventId;
  const std::vector<Cycles>& batch = arrivals_.batch();
  std::size_t n = 0;  // arrivals before the stop time
  while (n < batch.size() &&
         (config_.stop_time < 0 || batch[n] < config_.stop_time)) {
    ++n;
  }
  // One Rx call for the burst; near the pool's cap it loses the packets
  // that find no descriptor, and seq counts only the ones sent.
  const std::uint64_t first_seq = sent_;
  const std::size_t lost = manager_.ingress(
      config_.key, batch.data(), n,
      [&](pktio::Mbuf& pkt, std::size_t i) { stamp(pkt, first_seq + i); });
  sent_ += n - lost;
  alloc_drops_ += lost;
  if (n == batch.size()) arm();  // else halt
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
