#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "traffic/udp_source.hpp"

namespace nfv::traffic {
namespace {

// Poisson arrivals through the facade require driving UdpSource directly
// (the facade defaults to jittered CBR).
TEST(PoissonSource, MeanRateConverges) {
  core::Simulation sim;
  const auto core_id = sim.add_core(core::SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(10));
  const auto chain = sim.add_chain("c", {nf});
  // Install the flow rule the source will hit.
  const auto flow = sim.add_udp_flow(chain, 1.0, {.stop_seconds = 1e-9});
  (void)flow;
  sim.run_for_seconds(0.001);  // start the platform

  UdpSource::Config cfg;
  cfg.key = pktio::FlowKey{0x0a000001, 0x0a800001, 10000, 80, pktio::kProtoUdp};
  cfg.rate_pps = 1e6;
  cfg.poisson = true;
  UdpSource source(sim.engine(), sim.manager(), sim.clock(), cfg);
  source.start();
  sim.run_for_seconds(0.2);
  // 1 Mpps Poisson over 200 ms: 200k ± a few sigma (sqrt(200k) ~ 450).
  EXPECT_NEAR(static_cast<double>(source.packets_sent()), 200'000.0, 3'000.0);
}

TEST(PoissonSource, InterArrivalVarianceExceedsCbr) {
  // Burstiness check: with the same mean rate, Poisson should overflow a
  // short ring more often than smooth CBR. Use a tiny NF ring and compare
  // drops at equal offered load just below service capacity.
  auto drops_with = [](bool poisson) {
    core::Simulation sim;
    const auto core_id = sim.add_core(core::SchedPolicy::kCfsBatch);
    core::NfOptions opts;
    opts.rx_capacity = 8;  // tiny: sensitive to bursts
    const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(2500), opts);
    const auto chain = sim.add_chain("c", {nf});
    sim.add_udp_flow(chain, 1.0, {.stop_seconds = 1e-9});  // rule install
    sim.run_for_seconds(0.001);

    UdpSource::Config cfg;
    cfg.key =
        pktio::FlowKey{0x0a000001, 0x0a800001, 10000, 80, pktio::kProtoUdp};
    cfg.rate_pps = 9e5;  // ~87% of the NF's 1.04 Mpps capacity
    cfg.poisson = poisson;
    cfg.jitter_fraction = poisson ? 0.0 : 0.05;
    UdpSource source(sim.engine(), sim.manager(), sim.clock(), cfg);
    source.start();
    sim.run_for_seconds(0.2);
    return sim.nf_metrics(nf).rx_full_drops;
  };
  EXPECT_GT(drops_with(true), drops_with(false) * 2 + 10);
}

}  // namespace
}  // namespace nfv::traffic
