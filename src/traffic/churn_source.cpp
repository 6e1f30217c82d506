#include "traffic/churn_source.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nfv::traffic {

namespace {
/// Flow lengths above this are clamped: one elephant should dominate a
/// scenario, not outlive every simulation we could ever run.
constexpr std::uint64_t kMaxFlowPackets = 10'000'000;
}  // namespace

ChurnSource::ChurnSource(sim::Engine& engine, mgr::Manager& manager,
                         flow::FlowTable& flows, const CpuClock& clock,
                         Config config)
    : engine_(engine),
      manager_(manager),
      flows_(flows),
      config_(config),
      gap_rng_(config.seed ^ 0x67617073ULL),   // "gaps"
      flow_rng_(config.seed ^ 0x666c6f77ULL) {  // "flow"
  assert(config_.rate_pps > 0.0);
  assert(config_.concurrent_flows > 0);
  assert(config_.pareto_alpha > 0.0);
  assert(config_.pareto_min_packets >= 1.0);
  interval_ = std::max<Cycles>(1, clock.from_seconds(1.0 / config_.rate_pps));
  batch_.reserve(std::max<std::uint32_t>(1, config_.burst));
  active_.reserve(config_.concurrent_flows);
}

ChurnSource::~ChurnSource() {
  if (pending_ != sim::kInvalidEventId) engine_.cancel(pending_);
}

void ChurnSource::start() {
  next_time_ = std::max(config_.start_time, engine_.now());
  // Each slot is written once, by its first spawn.
  for (std::uint32_t slot = 0; slot < config_.concurrent_flows; ++slot) {
    active_.emplace_back();
    spawn_flow(slot, next_time_);
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
  f.key.dst_ip = config_.dst_ip;
  f.key.dst_port = config_.dst_port;
  f.key.proto = pktio::kProtoUdp;
  f.remaining = draw_flow_length();
  f.seq = 0;
  flows_.install(f.key, config_.chain, now);
}

Cycles ChurnSource::draw_gap() {
  // Zero-mean uniform jitter (±10%) keeps the aggregate rate exact while
  // breaking phase locking with other sources, as in UdpSource.
  const double u = 2.0 * gap_rng_.next_double() - 1.0;  // [-1, 1)
  const Cycles gap =
      interval_ + static_cast<Cycles>(0.1 * u * static_cast<double>(interval_));
  return gap < 1 ? 1 : gap;
}

void ChurnSource::arm() {
  const std::uint32_t k = std::max<std::uint32_t>(1, config_.burst);
  batch_.clear();
  batch_.push_back(next_time_);
  for (std::uint32_t i = 1; i < k; ++i) {
    batch_.push_back(batch_.back() + draw_gap());
  }
  next_time_ = batch_.back() + draw_gap();
  pending_ = engine_.schedule_at(batch_.back(), [this] { emit_batch(); });
}

void ChurnSource::emit_batch() {
  pending_ = sim::kInvalidEventId;
  for (const Cycles t : batch_) {
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
