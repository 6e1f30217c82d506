// Packet-conservation invariants: nothing is lost, duplicated, or leaked.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "fault/fault_plan.hpp"

namespace nfv::core {
namespace {

struct Accounting {
  std::uint64_t wire_ingress = 0;
  std::uint64_t entry_admitted = 0;
  std::uint64_t entry_drops = 0;
  /// Shed by the ingress admission gate (DESIGN.md §17) — a sink distinct
  /// from the backpressure entry drops; zero when no chain has a class.
  std::uint64_t admission_discards = 0;
  std::uint64_t egress = 0;
  std::uint64_t rx_full_drops = 0;
  std::uint64_t handler_drops = 0;
  std::uint64_t crash_drops = 0;
  std::uint64_t in_queues = 0;
  std::uint64_t pool_in_use = 0;
};

Accounting account(Simulation& sim, const std::vector<flow::NfId>& nfs,
                   const std::vector<flow::ChainId>& chains) {
  Accounting a;
  a.wire_ingress = sim.manager().wire_ingress();
  a.pool_in_use = sim.mbufs_in_use();
  for (const auto chain : chains) {
    const auto cm = sim.chain_metrics(chain);
    a.entry_admitted += cm.entry_admitted;
    a.entry_drops += cm.entry_throttle_drops;
    a.admission_discards += cm.admission_discards;
    a.egress += cm.egress_packets;
  }
  for (const auto nf : nfs) {
    const auto m = sim.nf_metrics(nf);
    a.rx_full_drops += m.rx_full_drops;
    a.in_queues += sim.nf(nf).rx_ring().size() + sim.nf(nf).tx_ring().size() +
                   sim.nf(nf).in_flight_packets();
    a.handler_drops += sim.nf(nf).counters().handler_drops;
    a.crash_drops += m.crash_drops;
  }
  return a;
}

// All admitted packets are either egressed, dropped at a ring, dropped by a
// handler, lost in-flight to an NF crash, or still sitting in a queue (or
// held in an NF's in-flight burst) — exactly, at any instant. Every packet
// still in the platform holds exactly one mbuf.
void expect_conservation(const Accounting& a) {
  EXPECT_EQ(a.wire_ingress,
            a.entry_admitted + a.entry_drops + a.admission_discards);
  EXPECT_EQ(a.entry_admitted, a.egress + a.rx_full_drops + a.handler_drops +
                                  a.crash_drops + a.in_queues);
  EXPECT_EQ(a.pool_in_use, a.in_queues);
}

TEST(Conservation, Underload) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(100));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(200));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 1e6);
  sim.run_for_seconds(0.1);
  expect_conservation(account(sim, {a, b}, {chain}));
}

TEST(Conservation, OverloadWithNfvnice) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(270));
  const auto c = sim.add_nf("c", core_id, nf::CostModel::fixed(550));
  const auto chain = sim.add_chain("abc", {a, b, c});
  sim.add_udp_flow(chain, 10e6);
  sim.run_for_seconds(0.2);
  expect_conservation(account(sim, {a, b, c}, {chain}));
}

TEST(Conservation, OverloadWithoutNfvnice) {
  PlatformConfig cfg;
  cfg.set_nfvnice(false);
  Simulation sim(cfg);
  const auto core_id = sim.add_core(SchedPolicy::kCfsNormal);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(550));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 10e6);
  sim.run_for_seconds(0.2);
  expect_conservation(account(sim, {a, b}, {chain}));
}

TEST(Conservation, MultiChainSharedNfs) {
  Simulation sim;
  const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf1 = sim.add_nf("nf1", c0, nf::CostModel::fixed(270));
  const auto nf2 = sim.add_nf("nf2", c0, nf::CostModel::fixed(120));
  const auto nf3 = sim.add_nf("nf3", c1, nf::CostModel::fixed(4500));
  const auto chain1 = sim.add_chain("c1", {nf1, nf2});
  const auto chain2 = sim.add_chain("c2", {nf1, nf3});
  sim.add_udp_flow(chain1, 3e6);
  sim.add_udp_flow(chain2, 3e6);
  sim.run_for_seconds(0.2);
  expect_conservation(account(sim, {nf1, nf2, nf3}, {chain1, chain2}));
}

TEST(Conservation, DrainToZeroAfterTrafficStops) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(550));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 6e6, {.stop_seconds = 0.1});
  sim.run_for_seconds(0.3);
  const auto acc = account(sim, {a, b}, {chain});
  expect_conservation(acc);
  EXPECT_EQ(acc.in_queues, 0u);
  EXPECT_EQ(acc.pool_in_use, 0u);
  EXPECT_EQ(acc.entry_admitted,
            acc.egress + acc.rx_full_drops + acc.handler_drops);
}

TEST(Conservation, HandlerDropsAccounted) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto fw = sim.add_nf("firewall", core_id, nf::CostModel::fixed(200));
  const auto chain = sim.add_chain("fw", {fw});
  // Firewall drops every third packet.
  int count = 0;
  sim.nf(fw).set_handler([&count](pktio::Mbuf&) {
    return (++count % 3 == 0) ? nf::NfAction::kDrop : nf::NfAction::kForward;
  });
  sim.add_udp_flow(chain, 1e6, {.stop_seconds = 0.05});
  sim.run_for_seconds(0.2);
  const auto acc = account(sim, {fw}, {chain});
  expect_conservation(acc);
  EXPECT_GT(acc.handler_drops, 10'000u);
  EXPECT_EQ(acc.entry_admitted,
            acc.egress + acc.rx_full_drops + acc.handler_drops);
  EXPECT_EQ(acc.pool_in_use, 0u);
}

// The invariant must also hold through DEAD and RESTARTING states: packets
// lost in a crashed NF's burst are counted as crash_drops, and the dead
// NF's ring contents stay accounted (and leak-free) until the restart.
TEST(Conservation, ThroughCrashAndRestart) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(270));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 6e6);
  fault::FaultPlan plan;
  plan.add_crash(b, sim.clock().from_seconds(0.05),
                 sim.clock().from_seconds(0.02));
  sim.set_fault_plan(std::move(plan));

  // Mid-outage: b is DEAD with a frozen ring and crash-dropped burst.
  sim.run_for_seconds(0.06);
  EXPECT_EQ(sim.nf_lifecycle(b), fault::NfLifecycle::kDead);
  expect_conservation(account(sim, {a, b}, {chain}));

  // After recovery: back to RUNNING, still conserving.
  sim.run_for_seconds(0.14);
  EXPECT_EQ(sim.nf_lifecycle(b), fault::NfLifecycle::kRunning);
  expect_conservation(account(sim, {a, b}, {chain}));
}

// Once traffic stops after a crash/restart cycle, every mbuf must return
// to the pool — a dead NF's ring contents are not leaked.
TEST(Conservation, DrainToZeroAfterCrash) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(550));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 6e6, {.stop_seconds = 0.1});
  fault::FaultPlan plan;
  plan.add_crash(b, sim.clock().from_seconds(0.05),
                 sim.clock().from_seconds(0.01));
  sim.set_fault_plan(std::move(plan));
  sim.run_for_seconds(0.5);
  const auto acc = account(sim, {a, b}, {chain});
  expect_conservation(acc);
  EXPECT_EQ(sim.nf_lifecycle(b), fault::NfLifecycle::kRunning);
  EXPECT_GT(acc.crash_drops, 0u);
  EXPECT_EQ(acc.in_queues, 0u);
  EXPECT_EQ(acc.pool_in_use, 0u);
  EXPECT_EQ(acc.entry_admitted, acc.egress + acc.rx_full_drops +
                                    acc.handler_drops + acc.crash_drops);
}

// With flow classes registered the admission gate sheds low-utility
// ingress into its own sink (DESIGN.md §17): the wire split gains a third
// term, and once traffic stops everything still drains to zero — a shed
// packet is freed at the gate, never queued.
TEST(Conservation, UnderAdmissionShedding) {
  Simulation sim;
  const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto gate = sim.add_nf("gate", c0, nf::CostModel::fixed(600));
  const auto gold_nf = sim.add_nf("gold_nf", c1, nf::CostModel::fixed(150));
  const auto bulk_nf = sim.add_nf("bulk_nf", c1, nf::CostModel::fixed(50));
  const auto gold = sim.add_chain("gold", {gate, gold_nf});
  const auto bulk = sim.add_chain("bulk", {gate, bulk_nf});
  sim.set_chain_class(gold, /*priority=*/4.0, /*utility=*/10.0);
  sim.set_chain_class(bulk, /*priority=*/1.0, /*utility=*/2.0);
  // Engage trigger: entry throttling holds the gate ring in the
  // backpressure hysteresis band, mostly under the 0.80 engage watermark —
  // it is gold's running SLO-violation clock (multi-ms queueing at the
  // gate against a 300 us target) that starts the shed ladder, exactly the
  // fig_overload arrangement.
  sim.set_chain_slo(gold, 300.0);
  sim.add_udp_flow(gold, 0.5e6, {.stop_seconds = 0.15});
  // ~2x the gate's capacity: the shared first hop stays pressured and the
  // ladder sheds the bulk class.
  sim.add_udp_flow(bulk, 8e6, {.stop_seconds = 0.15});
  sim.run_for_seconds(0.4);

  const auto acc = account(sim, {gate, gold_nf, bulk_nf}, {gold, bulk});
  EXPECT_GT(acc.admission_discards, 0u) << "gate never engaged";
  EXPECT_EQ(sim.chain_metrics(gold).admission_discards, 0u)
      << "the high-utility class must not be shed";
  expect_conservation(acc);
  EXPECT_EQ(acc.in_queues, 0u);
  EXPECT_EQ(acc.pool_in_use, 0u);
  EXPECT_EQ(acc.entry_admitted,
            acc.egress + acc.rx_full_drops + acc.handler_drops);
}

// Sharded runs give every lane its own pool (DESIGN.md §14), so pool() —
// lane 0's — sees only a slice; mbufs_in_use() sums the lanes. A packet in
// transit between lanes holds no mbuf (the sender frees it, the receiver
// allocates on delivery), so the sum equals ring occupancy plus in-flight
// bursts at every barrier, with every chain crossing lanes.
TEST(Conservation, ShardedLanePoolsMatchQueues) {
  PlatformConfig cfg;
  cfg.sim_shards = 2;
  Simulation sim(cfg);
  std::vector<flow::NfId> front, back;
  for (int i = 0; i < 4; ++i) {
    const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
    front.push_back(sim.add_nf("f" + std::to_string(i), core_id,
                               nf::CostModel::fixed(220)));
    back.push_back(sim.add_nf("b" + std::to_string(i), core_id,
                              nf::CostModel::fixed(340)));
  }
  const std::vector<flow::ChainId> chains = {
      sim.add_chain("ring", front),
      sim.add_chain("pair_a", {back[1], back[2]}),
      sim.add_chain("pair_b", {back[3], back[0]})};
  sim.add_udp_flow(chains[0], 2.5e6, {.stop_seconds = 0.05});
  sim.add_udp_flow(chains[1], 2e6, {.stop_seconds = 0.05});
  sim.add_udp_flow(chains[2], 2e6, {.stop_seconds = 0.05});
  sim.add_tcp_flow(chains[0], {.stop_seconds = 0.05});
  ASSERT_TRUE(sim.sharded());
  std::vector<flow::NfId> nfs = front;
  nfs.insert(nfs.end(), back.begin(), back.end());

  int lane0_short = 0;
  for (int slice = 1; slice <= 5; ++slice) {
    sim.run_for_seconds(0.01);
    const auto acc = account(sim, nfs, chains);
    EXPECT_GT(acc.in_queues, 0u) << "at " << slice * 10 << " ms";
    EXPECT_EQ(acc.pool_in_use, acc.in_queues) << "at " << slice * 10 << " ms";
    lane0_short += sim.pool().in_use() < acc.pool_in_use;
  }
  EXPECT_GT(lane0_short, 0) << "lane 0's pool alone should miss mbufs";

  // Traffic stopped at 50 ms; 20 ms more drains every lane and mailbox.
  sim.run_for_seconds(0.02);
  const auto acc = account(sim, nfs, chains);
  EXPECT_EQ(acc.in_queues, 0u);
  EXPECT_EQ(acc.pool_in_use, 0u);
  EXPECT_EQ(acc.entry_admitted, acc.egress + acc.rx_full_drops +
                                    acc.handler_drops + acc.crash_drops);
}

// Sweep the invariant across schedulers and load levels.
class ConservationSweep
    : public ::testing::TestWithParam<std::tuple<SchedPolicy, double, bool>> {};

TEST_P(ConservationSweep, Holds) {
  const auto [policy, rate, nfvnice] = GetParam();
  PlatformConfig cfg;
  cfg.set_nfvnice(nfvnice);
  Simulation sim(cfg);
  const auto core_id = sim.add_core(policy, 1.0);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(270));
  const auto c = sim.add_nf("c", core_id, nf::CostModel::fixed(550));
  const auto chain = sim.add_chain("abc", {a, b, c});
  sim.add_udp_flow(chain, rate);
  sim.run_for_seconds(0.1);
  expect_conservation(account(sim, {a, b, c}, {chain}));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConservationSweep,
    ::testing::Combine(::testing::Values(SchedPolicy::kCfsNormal,
                                         SchedPolicy::kCfsBatch,
                                         SchedPolicy::kRoundRobin),
                       ::testing::Values(1e6, 5e6, 14.88e6),
                       ::testing::Bool()));

}  // namespace
}  // namespace nfv::core
