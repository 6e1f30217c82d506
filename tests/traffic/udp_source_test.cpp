#include "traffic/udp_source.hpp"

#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace nfv::traffic {
namespace {

using core::PlatformConfig;
using core::SchedPolicy;
using core::Simulation;

Simulation make_single_nf_sim(core::PlatformConfig cfg = {}) {
  return Simulation(cfg);
}

TEST(UdpSource, DestructorCancelsPendingEvent) {
  Simulation sim = make_single_nf_sim();
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(10));
  const auto chain = sim.add_chain("c", {nf});
  sim.add_udp_flow(chain, 1e6);
  sim.run_for_seconds(0.001);
  const auto ingress_before = sim.manager().wire_ingress();
  {
    UdpSource::Config cfg;
    cfg.rate_pps = 1e6;
    cfg.burst = 4;
    UdpSource doomed(sim.engine(), sim.manager(), sim.clock(), cfg);
    doomed.start();  // arms an emit event in the engine's queue
    EXPECT_EQ(doomed.packets_sent(), 0u);
  }  // destroyed with the event still pending: must cancel, not dangle
  sim.run_for_seconds(0.001);
  // Only the simulation's own flow kept emitting (~1k packets per ms); the
  // destroyed source contributed nothing.
  EXPECT_NEAR(
      static_cast<double>(sim.manager().wire_ingress() - ingress_before),
      1'000.0, 100.0);
}

TEST(UdpSource, RateIsHonoured) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(10));
  const auto chain = sim.add_chain("c", {nf});
  sim.add_udp_flow(chain, 1e6);
  sim.run_for_seconds(0.1);
  // 1 Mpps over 100 ms = ~100k packets offered at the wire.
  EXPECT_NEAR(static_cast<double>(sim.manager().wire_ingress()), 100'000.0,
              1'000.0);
}

TEST(UdpSource, StartStopWindow) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(10));
  const auto chain = sim.add_chain("c", {nf});
  core::UdpOptions opts;
  opts.start_seconds = 0.02;
  opts.stop_seconds = 0.04;
  sim.add_udp_flow(chain, 1e6, opts);
  sim.run_for_seconds(0.1);
  // Active for 20 ms at 1 Mpps.
  EXPECT_NEAR(static_cast<double>(sim.manager().wire_ingress()), 20'000.0,
              500.0);
}

TEST(UdpSource, PacketSizePropagates) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(10));
  const auto chain = sim.add_chain("c", {nf});
  core::UdpOptions opts;
  opts.size_bytes = 1024;
  sim.add_udp_flow(chain, 100'000, opts);
  sim.run_for_seconds(0.02);
  const auto cm = sim.chain_metrics(chain);
  ASSERT_GT(cm.egress_packets, 0u);
  EXPECT_EQ(cm.egress_bytes, cm.egress_packets * 1024);
}

TEST(UdpSource, CostClassesRoundRobin) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf =
      sim.add_nf("nf", core_id, nf::CostModel::per_class({100, 1000}));
  const auto chain = sim.add_chain("c", {nf});
  core::UdpOptions opts;
  opts.cost_classes = 2;
  sim.add_udp_flow(chain, 100'000, opts);
  sim.run_for_seconds(0.05);
  const auto m = sim.nf_metrics(nf);
  ASSERT_GT(m.processed, 1000u);
  // Average cost (100+1000)/2 = 550 cycles across processed packets.
  const double avg_cost = static_cast<double>(m.runtime) /
                          static_cast<double>(m.processed);
  EXPECT_NEAR(avg_cost, 550.0, 30.0);
}

TEST(UdpSource, MultipleFlowsShareTheWire) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(10));
  const auto chain = sim.add_chain("c", {nf});
  const auto f1 = sim.add_udp_flow(chain, 500'000);
  const auto f2 = sim.add_udp_flow(chain, 500'000);
  sim.run_for_seconds(0.05);
  const auto& fc1 = sim.manager().flow_counters(f1);
  const auto& fc2 = sim.manager().flow_counters(f2);
  EXPECT_GT(fc1.egress_packets, 20'000u);
  EXPECT_NEAR(static_cast<double>(fc1.egress_packets),
              static_cast<double>(fc2.egress_packets), 2000.0);
}

TEST(UdpSource, LineRateConstant) {
  EXPECT_NEAR(kLineRate64B, 14.88e6, 0.01e6);
}

}  // namespace
}  // namespace nfv::traffic
