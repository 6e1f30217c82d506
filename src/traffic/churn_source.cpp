#include "traffic/churn_source.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nfv::traffic {

namespace {
/// Flow lengths above this are clamped: one elephant should dominate a
/// scenario, not outlive every simulation we could ever run.
constexpr std::uint64_t kMaxFlowPackets = 10'000'000;
/// Every generated flow's destination.
constexpr std::uint32_t kDstIp = 0x0a800001;
constexpr std::uint16_t kDstPort = 80;
}  // namespace

ChurnSource::ChurnSource(sim::Engine& engine, mgr::Manager& manager,
                         flow::FlowTable& flows, const CpuClock& clock,
                         Config config)
    : engine_(engine),
      manager_(manager),
      flows_(flows),
      config_(config),
      arrivals_(clock, config.rate_pps, config.burst,
                config.seed ^ 0x67617073ULL),  // "gaps"
      flow_rng_(config.seed ^ 0x666c6f77ULL) {  // "flow"
  assert(config_.rate_pps > 0.0);
  assert(config_.concurrent_flows > 0);
  assert(config_.pareto_alpha > 0.0);
  assert(config_.pareto_min_packets >= 1.0);
  active_.reserve(config_.concurrent_flows);
}

ChurnSource::~ChurnSource() {
  if (pending_ != sim::kInvalidEventId) engine_.cancel(pending_);
}

void ChurnSource::start() {
  const Cycles first = std::max(config_.start_time, engine_.now());
  arrivals_.start(first);
  // Each slot is written once, by its first spawn.
  for (std::uint32_t slot = 0; slot < config_.concurrent_flows; ++slot) {
    active_.emplace_back();
    spawn_flow(slot, first);
  }
  arm();
}

std::uint64_t ChurnSource::draw_flow_length() {
  // Inverse-CDF Pareto draw: len = x_m / u^(1/alpha), u ~ U(0,1].
  const double u = 1.0 - flow_rng_.next_double();  // (0, 1]
  const double len = config_.pareto_min_packets /
                     std::pow(u, 1.0 / config_.pareto_alpha);
  if (len >= static_cast<double>(kMaxFlowPackets)) return kMaxFlowPackets;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(len));
}

void ChurnSource::spawn_flow(std::uint32_t slot, Cycles now) {
  // Enumerate a fresh, never-reused 5-tuple for every flow birth.
  const std::uint64_t n = flows_created_++;
  ActiveFlow& f = active_[slot];
  f.key.src_ip = config_.src_ip_base + static_cast<std::uint32_t>(n / 60000);
  f.key.src_port = static_cast<std::uint16_t>(1 + n % 60000);
  f.key.dst_ip = kDstIp;
  f.key.dst_port = kDstPort;
  f.key.proto = pktio::kProtoUdp;
  f.remaining = draw_flow_length();
  f.seq = 0;
  flows_.install(f.key, config_.chain, now);
}

void ChurnSource::arm() {
  pending_ = engine_.schedule_at(arrivals_.next_batch(),
                                 [this] { emit_batch(); });
}

void ChurnSource::emit_batch() {
  pending_ = sim::kInvalidEventId;
  for (const Cycles t : arrivals_.batch()) {
    if (config_.stop_time >= 0 && t >= config_.stop_time) return;  // halt
    const std::uint32_t slot =
        static_cast<std::uint32_t>(flow_rng_.next_below(active_.size()));
    ActiveFlow& f = active_[slot];
    // One packet per Rx call: consecutive arrivals belong to random flows.
    const std::size_t lost = manager_.ingress(
        f.key, &t, 1, [&](pktio::Mbuf& pkt, std::size_t) {
          pkt.size_bytes = config_.size_bytes;
          pkt.is_tcp = false;
          pkt.seq = f.seq;
        });
    if (lost > 0) {
      ++alloc_drops_;
    } else {
      ++f.seq;
      ++sent_;
    }
    // The flow completes even when the pool starved its last packet — flow
    // lifetimes must not depend on pool occupancy.
    if (--f.remaining == 0) {
      ++flows_retired_;
      spawn_flow(slot, t);
    }
  }
  arm();
}

}  // namespace nfv::traffic
