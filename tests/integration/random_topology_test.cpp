// Randomized topology property tests.
//
// For any topology (random cores/policies/NF costs/chains/rates/seeds) the
// platform must uphold its invariants: packets are conserved, the mbuf
// pool never leaks, no NF runs beyond wall time, egress never exceeds the
// narrowest bottleneck, and the run is deterministic under its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/simulation.hpp"

namespace nfv::core {
namespace {

struct RandomTopology {
  PlatformConfig config;
  int cores = 1;
  std::vector<SchedPolicy> core_policy;
  std::vector<int> core_numa;
  struct NfSpec {
    int core;
    Cycles cost;
  };
  std::vector<NfSpec> nfs;
  std::vector<std::vector<flow::NfId>> chains;
  std::vector<std::pair<int, double>> flows;  // (chain, rate)
};

RandomTopology generate(std::uint64_t seed) {
  Rng rng(seed);
  RandomTopology topo;
  topo.config.set_nfvnice(rng.next_below(2) == 0);
  topo.cores = static_cast<int>(1 + rng.next_below(4));
  for (int i = 0; i < topo.cores; ++i) {
    const SchedPolicy policies[] = {SchedPolicy::kCfsNormal,
                                    SchedPolicy::kCfsBatch,
                                    SchedPolicy::kRoundRobin};
    topo.core_policy.push_back(policies[rng.next_below(3)]);
    topo.core_numa.push_back(static_cast<int>(rng.next_below(2)));
  }
  const int nf_count = static_cast<int>(1 + rng.next_below(6));
  for (int i = 0; i < nf_count; ++i) {
    topo.nfs.push_back({static_cast<int>(rng.next_below(topo.cores)),
                        static_cast<Cycles>(50 + rng.next_below(2000))});
  }
  const int chain_count = static_cast<int>(1 + rng.next_below(3));
  for (int c = 0; c < chain_count; ++c) {
    const int len = static_cast<int>(1 + rng.next_below(nf_count));
    std::vector<flow::NfId> hops;
    for (int h = 0; h < len; ++h) {
      const auto nf = static_cast<flow::NfId>(rng.next_below(nf_count));
      if (std::find(hops.begin(), hops.end(), nf) == hops.end()) {
        hops.push_back(nf);
      }
    }
    if (hops.empty()) hops.push_back(0);
    topo.chains.push_back(hops);
    topo.flows.emplace_back(c, 1e5 * static_cast<double>(1 + rng.next_below(40)));
  }
  return topo;
}

struct RunResult {
  std::uint64_t wire_ingress = 0;
  std::uint64_t egress = 0;
  std::uint64_t entry_admitted = 0;
  std::uint64_t entry_drops = 0;
  std::uint64_t rx_full_drops = 0;
  std::uint64_t in_queues = 0;
  std::uint64_t pool_in_use = 0;
  std::vector<Cycles> nf_runtime;
  Cycles elapsed = 0;
};

RunResult run(const RandomTopology& topo, double secs) {
  Simulation sim(topo.config);
  for (int i = 0; i < topo.cores; ++i) {
    sim.add_core(topo.core_policy[i], 1.0, topo.core_numa[i]);
  }
  for (std::size_t i = 0; i < topo.nfs.size(); ++i) {
    sim.add_nf("nf" + std::to_string(i),
               static_cast<std::size_t>(topo.nfs[i].core),
               nf::CostModel::fixed(topo.nfs[i].cost));
  }
  std::vector<flow::ChainId> chains;
  for (std::size_t c = 0; c < topo.chains.size(); ++c) {
    chains.push_back(sim.add_chain("c" + std::to_string(c), topo.chains[c]));
  }
  for (const auto& [chain, rate] : topo.flows) {
    sim.add_udp_flow(chains[chain], rate);
  }
  sim.run_for_seconds(secs);

  RunResult result;
  result.wire_ingress = sim.manager().wire_ingress();
  result.pool_in_use = sim.mbufs_in_use();
  result.elapsed = sim.engine().now();
  for (const auto chain : chains) {
    const auto cm = sim.chain_metrics(chain);
    result.egress += cm.egress_packets;
    result.entry_admitted += cm.entry_admitted;
    result.entry_drops += cm.entry_throttle_drops;
  }
  for (flow::NfId id = 0; id < sim.nf_count(); ++id) {
    result.rx_full_drops += sim.nf_metrics(id).rx_full_drops;
    result.in_queues += sim.nf(id).rx_ring().size() +
                        sim.nf(id).tx_ring().size() +
                        sim.nf(id).in_flight_packets();
    result.nf_runtime.push_back(sim.nf_metrics(id).runtime);
  }
  return result;
}

class RandomTopologyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopologyTest, InvariantsHold) {
  const auto topo = generate(GetParam());
  const auto r = run(topo, 0.08);

  // Admission accounting.
  EXPECT_EQ(r.wire_ingress, r.entry_admitted + r.entry_drops);
  // Conservation: admitted = egress + drops + still-queued + in-flight
  // bursts, exactly (handler drops are zero here).
  EXPECT_EQ(r.entry_admitted, r.egress + r.rx_full_drops + r.in_queues);
  // Pool: every mbuf out of the pool is in a queue or an in-flight burst.
  EXPECT_EQ(r.pool_in_use, r.in_queues);
  // No NF exceeds wall-clock CPU.
  for (const Cycles runtime : r.nf_runtime) {
    EXPECT_LE(runtime, r.elapsed);
  }
}

TEST_P(RandomTopologyTest, DeterministicUnderSeed) {
  const auto topo = generate(GetParam());
  const auto a = run(topo, 0.05);
  const auto b = run(topo, 0.05);
  EXPECT_EQ(a.egress, b.egress);
  EXPECT_EQ(a.entry_drops, b.entry_drops);
  EXPECT_EQ(a.rx_full_drops, b.rx_full_drops);
  EXPECT_EQ(a.nf_runtime, b.nf_runtime);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace nfv::core
