// ECN marking for cross-host congestion control (§3.3).
//
// "Since ECN works at longer timescales, we monitor queue lengths with an
// exponentially weighted moving average and use that to trigger marking of
// flows following [RFC 3168]" — i.e. the RED-gateway discipline: below
// 20% of ring capacity never mark, above 60% always mark, in between mark
// with a probability ramping to 10% (kMinThreshold, kMaxThreshold and
// kMaxMarkProb in ecn.cpp). Marking happens as the Tx thread
// enqueues a TCP packet to a congested NF's RX ring; responsive senders
// then reduce their rate end-to-end, complementing the purely local
// backpressure used for unresponsive (UDP) traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ewma.hpp"
#include "common/rng.hpp"
#include "flow/service_chain.hpp"
#include "pktio/mbuf.hpp"
#include "pktio/ring.hpp"

namespace nfv::bp {

class EcnMarker {
 public:
  struct Config {
    double ewma_weight = 0.02;  ///< RED queue-averaging weight.
  };

  explicit EcnMarker(std::size_t nf_count) : EcnMarker(nf_count, Config{}) {}
  EcnMarker(std::size_t nf_count, Config config,
            std::uint64_t seed = 0xecf1ceULL);

  /// Update the EWMA for `nf`'s RX ring and decide whether to mark `mbuf`.
  /// Only ECN-capable TCP packets are ever marked; the EWMA is updated for
  /// every observed enqueue regardless.
  bool on_enqueue(flow::NfId nf, const pktio::Ring& rx_ring, pktio::Mbuf& mbuf);

  [[nodiscard]] double average_queue(flow::NfId nf) const {
    return averages_[nf].value();
  }
  /// Packets marked on enqueue to `nf`'s RX ring.
  [[nodiscard]] std::uint64_t marks(flow::NfId nf) const { return marks_[nf]; }
  /// Packets marked on every ring.
  [[nodiscard]] std::uint64_t marks() const;

 private:
  Config config_;
  std::vector<Ewma> averages_;
  Rng rng_;
  std::vector<std::uint64_t> marks_;
};

}  // namespace nfv::bp
