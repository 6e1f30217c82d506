#include "bp/ecn.hpp"

#include <numeric>

namespace nfv::bp {

namespace {
// RED marking thresholds, as fractions of ring capacity, and the marking
// probability the ramp between them reaches.
constexpr double kMinThreshold = 0.20;
constexpr double kMaxThreshold = 0.60;
constexpr double kMaxMarkProb = 0.10;
}  // namespace

EcnMarker::EcnMarker(std::size_t nf_count, Config config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  averages_.assign(nf_count, Ewma(config_.ewma_weight));
  marks_.assign(nf_count, 0);
}

std::uint64_t EcnMarker::marks() const {
  return std::accumulate(marks_.begin(), marks_.end(), std::uint64_t{0});
}

bool EcnMarker::on_enqueue(flow::NfId nf, const pktio::Ring& rx_ring,
                           pktio::Mbuf& mbuf) {
  Ewma& avg = averages_[nf];
  avg.observe(static_cast<double>(rx_ring.size()));

  if (!mbuf.is_tcp || !mbuf.ecn_capable || mbuf.ecn_marked) return false;

  const double capacity = static_cast<double>(rx_ring.capacity());
  const double occupancy = avg.value() / capacity;
  if (occupancy < kMinThreshold) return false;

  double prob = 1.0;
  if (occupancy < kMaxThreshold) {
    prob = kMaxMarkProb * (occupancy - kMinThreshold) /
           (kMaxThreshold - kMinThreshold);
  }
  if (rng_.next_double() < prob) {
    mbuf.ecn_marked = true;
    ++marks_[nf];
    return true;
  }
  return false;
}

}  // namespace nfv::bp
