// End-to-end: a chain of *real* NF implementations on the platform.
#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "nfs/dpi.hpp"
#include "nfs/firewall.hpp"
#include "nfs/load_balancer.hpp"
#include "nfs/monitor.hpp"
#include "nfs/nat.hpp"

namespace nfv::nfs {
namespace {

TEST(NfZoo, FirewallNatLbChainEndToEnd) {
  core::Simulation sim;
  const auto core_id = sim.add_core(core::SchedPolicy::kCfsBatch);
  const auto fw_nf = sim.add_nf("fw", core_id, nf::CostModel::fixed(200));
  const auto nat_nf = sim.add_nf("nat", core_id, nf::CostModel::fixed(270));
  const auto lb_nf = sim.add_nf("lb", core_id, nf::CostModel::fixed(150));
  const auto chain = sim.add_chain("edge", {fw_nf, nat_nf, lb_nf});

  Firewall firewall(Verdict::kAllow);
  FirewallRule block_udp;
  block_udp.proto = pktio::kProtoUdp;
  block_udp.src_port = 10000;  // the generator's fixed source port
  block_udp.verdict = Verdict::kDeny;
  // Block one specific source host only.
  block_udp.src_ip = 0x0a000001;
  block_udp.src_mask = 0xffffffff;
  firewall.add_rule(block_udp);
  firewall.install(sim.nf(fw_nf));

  Nat nat;
  nat.install(sim.nf(nat_nf));

  LoadBalancer lb({0xc0000001, 0xc0000002});
  lb.install(sim.nf(lb_nf));

  // Flow 1 (src 10.0.0.1, blocked) and flow 2 (src 10.0.0.2, allowed).
  const auto f1 = sim.add_udp_flow(chain, 200'000);
  const auto f2 = sim.add_udp_flow(chain, 200'000);
  sim.run_for_seconds(0.1);

  // Flow 1 died at the firewall; flow 2 made it through NAT + LB.
  EXPECT_EQ(sim.manager().flow_counters(f1).egress_packets, 0u);
  EXPECT_GT(sim.manager().flow_counters(f2).egress_packets, 15'000u);
  EXPECT_GT(firewall.denied(), 15'000u);
  EXPECT_GT(nat.translated(), 15'000u);
  EXPECT_EQ(nat.active_bindings(), 1u);  // one surviving connection
  // All surviving packets went to exactly one backend (flow-hash). Packets
  // NAT already translated but the LB has not yet run — in NAT's TX ring,
  // the LB's RX ring, or the LB's in-flight burst — close the books.
  const auto& backends = lb.backends();
  const std::uint64_t in_transit = sim.nf(nat_nf).tx_ring().size() +
                                   sim.nf(lb_nf).rx_ring().size() +
                                   sim.nf(lb_nf).in_flight_packets();
  EXPECT_EQ(backends[0].packets + backends[1].packets + in_transit,
            nat.translated());
  EXPECT_TRUE(backends[0].packets == 0 || backends[1].packets == 0);
}

TEST(NfZoo, MonitorSeesExactlyAdmittedTraffic) {
  core::Simulation sim;
  const auto core_id = sim.add_core(core::SchedPolicy::kCfsBatch);
  const auto mon_nf = sim.add_nf("mon", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("tap", {mon_nf});
  FlowMonitor monitor;
  monitor.install(sim.nf(mon_nf));
  sim.add_udp_flow(chain, 100'000, {.stop_seconds = 0.05});
  sim.add_udp_flow(chain, 100'000, {.stop_seconds = 0.05});
  sim.run_for_seconds(0.1);
  EXPECT_EQ(monitor.flow_count(), 2u);
  EXPECT_EQ(monitor.total_packets(), sim.nf_metrics(mon_nf).processed);
  const auto top = monitor.top_talkers(2);
  ASSERT_EQ(top.size(), 2u);
}

TEST(NfZoo, DpiDropsPlantedTraffic) {
  core::Simulation sim;
  const auto core_id = sim.add_core(core::SchedPolicy::kCfsBatch);
  const auto dpi_nf = sim.add_nf("ids", core_id, nf::CostModel::fixed(550));
  const auto chain = sim.add_chain("inspected", {dpi_nf});
  const auto flow_id = sim.add_udp_flow(chain, 100'000);

  // Plant signatures for the flow's repeating content pattern: every
  // packet whose seq % 97 lands on a signature is dropped.
  Dpi dpi(Dpi::OnMatch::kDrop);
  (void)flow_id;
  // Reconstruct the generator's key: the first flow gets src_ip 10.0.0.1
  // (Simulation::next_flow_key allocates sequentially from 10.0.0.1).
  pktio::Mbuf probe;
  probe.key = pktio::FlowKey{0x0a000001, 0x0a800001, 10000, 80,
                             pktio::kProtoUdp};
  probe.seq = 10;
  dpi.add_signature("sig10", Dpi::payload_digest(probe));
  dpi.install(sim.nf(dpi_nf));

  sim.run_for_seconds(0.1);
  // 1 in 97 packets matches (the content pattern repeats), so drops are
  // ~1% of traffic.
  const auto& counters = sim.nf(dpi_nf).counters();
  EXPECT_GT(dpi.alerts(), 50u);
  EXPECT_EQ(counters.handler_drops, dpi.alerts());
  EXPECT_GT(counters.forwarded, counters.handler_drops * 50);
}

}  // namespace
}  // namespace nfv::nfs
