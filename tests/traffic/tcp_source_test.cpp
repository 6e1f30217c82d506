#include "traffic/tcp_source.hpp"

#include <gtest/gtest.h>

#include "core/simulation.hpp"

namespace nfv::traffic {
namespace {

using core::SchedPolicy;
using core::Simulation;

TEST(TcpSource, DestructorCancelsPendingEvent) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf});
  sim.add_udp_flow(chain, 1e6);
  sim.run_for_seconds(0.001);
  {
    TcpSource::Config cfg;
    cfg.key.proto = pktio::kProtoTcp;
    TcpSource doomed(sim.engine(), sim.manager(), /*flow_id=*/999, cfg);
    doomed.start();  // schedules the first-window event at `now`
    EXPECT_EQ(doomed.packets_sent(), 0u);
  }  // destroyed before the event fires: must cancel, not dangle
  sim.run_for_seconds(0.001);  // engine keeps running cleanly
  EXPECT_GT(sim.manager().wire_ingress(), 0u);
}

TEST(TcpSource, RampsUpOnUncongestedPath) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf});
  auto [flow_id, tcp] = sim.add_tcp_flow(chain);
  sim.run_for_seconds(0.1);
  EXPECT_GT(tcp->cwnd(), 100u);  // grew well past initial 10
  // Everything sent is delivered, modulo packets still in flight inside
  // the platform (at most one window's worth).
  EXPECT_GE(tcp->packets_delivered() + tcp->cwnd(), tcp->packets_sent());
  EXPECT_EQ(tcp->congestion_events(), 0u);
}

TEST(TcpSource, DeliveriesMatchEgressCounters) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf});
  auto [flow_id, tcp] = sim.add_tcp_flow(chain);
  sim.run_for_seconds(0.05);
  EXPECT_EQ(tcp->packets_delivered(),
            sim.manager().flow_counters(flow_id).egress_packets);
}

TEST(TcpSource, BacksOffWhenPathDropsPackets) {
  // A severe bottleneck with backpressure disabled: the chain drops TCP
  // packets at the slow NF's ring, so the window must collapse repeatedly.
  core::PlatformConfig cfg;
  cfg.set_nfvnice(false);
  Simulation sim(cfg);
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("slow", core_id, nf::CostModel::fixed(30'000));
  const auto chain = sim.add_chain("c", {nf});
  auto [flow_id, tcp] = sim.add_tcp_flow(chain);
  sim.run_for_seconds(0.2);
  EXPECT_GT(tcp->congestion_events(), 3u);
  EXPECT_LT(tcp->cwnd(), 4096u);  // never pinned at max
}

TEST(TcpSource, CwndCapRespected) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(10));
  const auto chain = sim.add_chain("c", {nf});
  core::TcpOptions opts;
  opts.max_cwnd = 64;
  auto [flow_id, tcp] = sim.add_tcp_flow(chain, opts);
  sim.run_for_seconds(0.2);
  EXPECT_LE(tcp->cwnd(), 64u);
}

TEST(TcpSource, EcnMarkTriggersBackoffWithoutLoss) {
  // Congest an ECN-enabled path just enough to mark but (mostly) not drop:
  // the TCP source must register ecn_backoffs.
  core::PlatformConfig cfg;
  cfg.set_nfvnice(true);
  Simulation sim(cfg);
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(100));
  const auto slow = sim.add_nf("slow", core_id, nf::CostModel::fixed(2000));
  const auto chain = sim.add_chain("c", {a, slow});
  auto [flow_id, tcp] = sim.add_tcp_flow(chain);
  sim.add_udp_flow(chain, 1.2e6);  // push the queue into the marking band
  sim.run_for_seconds(0.3);
  EXPECT_GT(tcp->ecn_backoffs() + tcp->congestion_events(), 0u);
}

TEST(TcpSource, StartTimeDelaysFirstWindow) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf});
  core::TcpOptions opts;
  opts.start_seconds = 0.05;
  auto [flow_id, tcp] = sim.add_tcp_flow(chain, opts);
  sim.run_for_seconds(0.04);
  EXPECT_EQ(tcp->packets_sent(), 0u);
  sim.run_for_seconds(0.06);
  EXPECT_GT(tcp->packets_sent(), 0u);
}

TEST(TcpSource, StopTimeHaltsFlow) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf});
  core::TcpOptions opts;
  opts.stop_seconds = 0.02;
  auto [flow_id, tcp] = sim.add_tcp_flow(chain, opts);
  sim.run_for_seconds(0.03);
  const auto sent_at_stop = tcp->packets_sent();
  sim.run_for_seconds(0.05);
  EXPECT_EQ(tcp->packets_sent(), sent_at_stop);
}

TEST(TcpSource, NonEcnCapableFlowIsNeverMarked) {
  core::PlatformConfig cfg;
  cfg.set_nfvnice(true);
  Simulation sim(cfg);
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto slow = sim.add_nf("slow", core_id, nf::CostModel::fixed(2000));
  const auto chain = sim.add_chain("c", {slow});
  core::TcpOptions opts;
  opts.ecn_capable = false;
  auto [flow_id, tcp] = sim.add_tcp_flow(chain, opts);
  sim.add_udp_flow(chain, 1.2e6);
  sim.run_for_seconds(0.2);
  EXPECT_EQ(sim.manager().flow_counters(flow_id).ecn_marked, 0u);
  EXPECT_EQ(tcp->ecn_backoffs(), 0u);
}

TEST(TcpSource, CountsPacketsLostAtThePoolCap) {
  // A 16-mbuf pool in front of a slow NF: once the window outgrows the NF,
  // its ring holds every mbuf and the next paced packets find the pool
  // empty. They are lost at the wire, and the source counts them.
  core::PlatformConfig cfg;
  cfg.set_nfvnice(false);
  cfg.mempool_capacity = 16;
  Simulation sim(cfg);
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("slow", core_id, nf::CostModel::fixed(20'000));
  const auto chain = sim.add_chain("c", {nf});
  auto [flow_id, tcp] = sim.add_tcp_flow(chain);
  sim.run_for_seconds(0.05);
  EXPECT_GT(tcp->alloc_drops(), 0u);
  // Every failed allocation was one of its packets, and every packet that
  // got a descriptor reached the wire.
  EXPECT_EQ(tcp->alloc_drops(), sim.pool().alloc_failures());
  EXPECT_EQ(tcp->packets_sent(), sim.manager().wire_ingress());
  EXPECT_GT(tcp->congestion_events(), 0u);
}

}  // namespace
}  // namespace nfv::traffic
