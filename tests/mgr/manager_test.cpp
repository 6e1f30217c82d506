#include "mgr/manager.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "obs/trace.hpp"

namespace nfv::mgr {
namespace {

using core::ChainMetrics;
using core::PlatformConfig;
using core::SchedPolicy;
using core::Simulation;

PlatformConfig default_config(bool nfvnice = true) {
  PlatformConfig cfg;
  cfg.set_nfvnice(nfvnice);
  return cfg;
}

TEST(Manager, UnmatchedTrafficIsDroppedNotCrashed) {
  Simulation sim(default_config());
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  sim.add_chain("c", {nf});
  sim.run_for_seconds(0.001);  // start the manager

  pktio::FlowKey unknown{99, 99, 9, 9, 17};
  const Cycles now = sim.engine().now();
  EXPECT_EQ(sim.manager().ingress(unknown, &now, 1,
                                  [](pktio::Mbuf&, std::size_t) {}),
            0u);
  EXPECT_EQ(sim.pool().in_use(), 0u);  // the miss took no descriptor
  EXPECT_EQ(sim.manager().wire_ingress(), 1u);
}

TEST(Manager, PacketsFlowThroughChainToEgress) {
  Simulation sim(default_config());
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(100));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, /*rate_pps=*/100'000);  // far below capacity
  sim.run_for_seconds(0.05);

  const auto cm = sim.chain_metrics(chain);
  EXPECT_GT(cm.egress_packets, 4000u);
  EXPECT_EQ(cm.entry_throttle_drops, 0u);
  // Every admitted packet that exits was processed by both NFs.
  EXPECT_EQ(sim.nf_metrics(a).processed, sim.nf_metrics(a).forwarded);
  EXPECT_GE(sim.nf_metrics(b).processed, cm.egress_packets);
}

TEST(Manager, EgressCountsBytes) {
  Simulation sim(default_config());
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(50));
  const auto chain = sim.add_chain("c", {nf});
  core::UdpOptions opts;
  opts.size_bytes = 128;
  sim.add_udp_flow(chain, 10'000, opts);
  sim.run_for_seconds(0.02);
  const auto cm = sim.chain_metrics(chain);
  EXPECT_EQ(cm.egress_bytes, cm.egress_packets * 128);
}

TEST(Manager, RxFullDropsAttributedToUpstream) {
  // NF "slow" bottlenecks; packets NF "fast" processed die at slow's ring.
  PlatformConfig cfg = default_config(false);  // no backpressure: force drops
  Simulation sim(cfg);
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto fast = sim.add_nf("fast", core_id, nf::CostModel::fixed(50));
  const auto slow = sim.add_nf("slow", core_id, nf::CostModel::fixed(5000));
  const auto chain = sim.add_chain("fs", {fast, slow});
  sim.add_udp_flow(chain, 2e6);
  sim.run_for_seconds(0.1);

  const auto fast_m = sim.nf_metrics(fast);
  const auto slow_m = sim.nf_metrics(slow);
  EXPECT_GT(slow_m.rx_full_drops, 0u);
  EXPECT_EQ(slow_m.rx_full_drops, slow_m.wasted_drops_here);
  EXPECT_EQ(fast_m.downstream_drops, slow_m.wasted_drops_here);
}

TEST(Manager, EntryDropsAreNotWastedWork) {
  Simulation sim(default_config(true));
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto fast = sim.add_nf("fast", core_id, nf::CostModel::fixed(50));
  const auto slow = sim.add_nf("slow", core_id, nf::CostModel::fixed(5000));
  const auto chain = sim.add_chain("fs", {fast, slow});
  sim.add_udp_flow(chain, 2e6);
  sim.run_for_seconds(0.1);

  const auto cm = sim.chain_metrics(chain);
  EXPECT_GT(cm.entry_throttle_drops, 0u);  // backpressure shed at entry
  // First-hop full drops (chain_pos 0) must not count as wasted work.
  EXPECT_EQ(sim.nf_metrics(fast).wasted_drops_here, 0u);
}

TEST(Manager, BackpressureDisabledMeansNoEntryDrops) {
  Simulation sim(default_config(false));
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto fast = sim.add_nf("fast", core_id, nf::CostModel::fixed(50));
  const auto slow = sim.add_nf("slow", core_id, nf::CostModel::fixed(5000));
  const auto chain = sim.add_chain("fs", {fast, slow});
  sim.add_udp_flow(chain, 2e6);
  sim.run_for_seconds(0.05);
  EXPECT_EQ(sim.chain_metrics(chain).entry_throttle_drops, 0u);
}

TEST(Manager, CgroupsUpdateSharesUnderLoad) {
  Simulation sim(default_config(true));
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto cheap = sim.add_nf("cheap", core_id, nf::CostModel::fixed(100));
  const auto costly = sim.add_nf("costly", core_id, nf::CostModel::fixed(1000));
  const auto c1 = sim.add_chain("c1", {cheap});
  const auto c2 = sim.add_chain("c2", {costly});
  sim.add_udp_flow(c1, 1e6);
  sim.add_udp_flow(c2, 1e6);
  sim.run_for_seconds(0.2);

  EXPECT_GT(sim.manager().cgroups().writes(), 0u);
  // Equal arrival rates, 10x cost: the costly NF must carry ~10x weight.
  const double ratio = static_cast<double>(sim.nf(costly).weight()) /
                       static_cast<double>(sim.nf(cheap).weight());
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 20.0);
}

TEST(Manager, CgroupsDisabledLeavesWeightsAlone) {
  Simulation sim(default_config(false));
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto cheap = sim.add_nf("cheap", core_id, nf::CostModel::fixed(100));
  const auto costly = sim.add_nf("costly", core_id, nf::CostModel::fixed(1000));
  const auto c1 = sim.add_chain("c1", {cheap});
  const auto c2 = sim.add_chain("c2", {costly});
  sim.add_udp_flow(c1, 1e6);
  sim.add_udp_flow(c2, 1e6);
  sim.run_for_seconds(0.1);
  EXPECT_EQ(sim.manager().cgroups().writes(), 0u);
  EXPECT_EQ(sim.nf(cheap).weight(), sched::kDefaultWeight);
  EXPECT_EQ(sim.nf(costly).weight(), sched::kDefaultWeight);
}

TEST(Manager, LoadEstimateReflectsArrivalRateAndCost) {
  Simulation sim(default_config(true));
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(260));
  const auto chain = sim.add_chain("c", {nf});
  sim.add_udp_flow(chain, 1e6);  // 1 Mpps * 260 cycles = 10% of 2.6 GHz
  sim.run_for_seconds(0.3);
  EXPECT_NEAR(sim.manager().nf_load(nf), 0.10, 0.03);
}

TEST(Manager, EcnMarksTcpUnderCongestion) {
  Simulation sim(default_config(true));
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(100));
  const auto slow = sim.add_nf("slow", core_id, nf::CostModel::fixed(3000));
  const auto chain = sim.add_chain("c", {a, slow});
  auto [flow_id, tcp] = sim.add_tcp_flow(chain);
  sim.add_udp_flow(chain, 1.5e6);  // congest the slow NF
  sim.run_for_seconds(0.3);
  EXPECT_GT(sim.manager().ecn()->marks(), 0u);
  EXPECT_GT(sim.manager().flow_counters(flow_id).ecn_marked, 0u);
  EXPECT_GT(tcp->ecn_backoffs() + tcp->congestion_events(), 0u);
}

TEST(Manager, WakeupThreadPausesUpstreamOfBottleneck) {
  Simulation sim(default_config(true));
  const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto up = sim.add_nf("up", c0, nf::CostModel::fixed(100));
  const auto down = sim.add_nf("down", c1, nf::CostModel::fixed(8000));
  const auto chain = sim.add_chain("ud", {up, down});
  sim.add_udp_flow(chain, 3e6);
  sim.run_for_seconds(0.05);
  // The bottleneck NF must never carry the relinquish flag; with its own
  // dedicated core the upstream NF throttles via entry drops + flag.
  EXPECT_FALSE(sim.nf(down).yield_flag());
  EXPECT_GT(sim.chain_metrics(chain).entry_throttle_drops, 0u);
}

TEST(Manager, MbufPoolNeverLeaksAcrossHeavyOverload) {
  Simulation sim(default_config(true));
  const auto core_id = sim.add_core(SchedPolicy::kCfsNormal);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(550));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 8e6, {.stop_seconds = 0.05});
  sim.run_for_seconds(0.2);  // drain completely after sources stop
  EXPECT_EQ(sim.pool().in_use(), 0u);
}

// -- burst ingest -------------------------------------------------------------
// One source burst through the Rx entry must leave exactly the state n
// one-packet calls of it leave: counters, flow-table traffic, ring
// contents, the ECN averages and the trace bytes.

enum class Entry { kClear, kThrottled, kUnmatched, kClassed };

struct IngestTwin {
  obs::TraceRecorder trace;
  std::unique_ptr<Simulation> sim;
  flow::NfId nf = 0;
  flow::ChainId chain = 0;
  pktio::FlowKey key{0x0a000001, 0x0b000001, 4000, 80, pktio::kProtoTcp};
};

void build_twin(IngestTwin& t, Entry entry) {
  PlatformConfig cfg = default_config(true);
  cfg.rx_capacity = 1024;
  // The classed chain needs its queue over the admission watermark, which
  // the entry throttle would otherwise prevent.
  if (entry == Entry::kClassed) cfg.manager.enable_backpressure = false;
  t.sim = std::make_unique<Simulation>(cfg);
  Simulation& sim = *t.sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  t.nf = sim.add_nf("nf", core_id,
                    nf::CostModel::fixed(entry == Entry::kClassed ? 50'000
                                                                  : 100));
  t.chain = sim.add_chain("c", {t.nf});
  sim.attach_trace(t.trace);
  if (entry != Entry::kUnmatched) sim.flow_table().install(t.key, t.chain);
  if (entry == Entry::kClassed) {
    // Overload until the gate sheds the class, then stop: the queue stays
    // between the watermarks while the bursts below arrive.
    sim.set_chain_class(t.chain, 1.0, 0.5);
    sim.add_udp_flow(t.chain, 2e6, {.stop_seconds = 0.02});
    sim.run_for_seconds(0.021);
    ASSERT_TRUE(sim.manager().admission()->engaged(t.chain));
  } else {
    sim.run_for_seconds(0.001);  // start the manager
  }
  if (entry == Entry::kThrottled) {
    sim.manager().backpressure()->force_dead(t.nf, sim.engine().now());
  }
}

void stamp(pktio::Mbuf& pkt, std::size_t i) {
  pkt.size_bytes = static_cast<std::uint16_t>(64 + i);
  pkt.is_tcp = i % 3 != 0;
  pkt.ecn_capable = true;
  pkt.seq = i;
}

/// Two bursts: 40 packets one cycle apart (they drain a full trickle
/// bucket), then 24 spaced half a token apart (admits and discards
/// alternate).
std::vector<std::vector<Cycles>> twin_bursts(Cycles now) {
  const Cycles t0 = now - 1'000'000;
  std::vector<std::vector<Cycles>> bursts(2);
  for (Cycles i = 0; i < 40; ++i) bursts[0].push_back(t0 + i);
  for (Cycles i = 0; i < 24; ++i) bursts[1].push_back(t0 + 100 + i * 26'000);
  return bursts;
}

struct RingEntry {
  std::uint64_t seq;
  std::uint16_t size;
  std::uint32_t flow;
  Cycles arrival;
  Cycles enqueued;
  bool marked;
  bool operator==(const RingEntry&) const = default;
};

/// Empty the NF's RX ring into comparable records.
std::vector<RingEntry> drain_ring(IngestTwin& t) {
  std::vector<RingEntry> out;
  while (pktio::Mbuf* pkt = t.sim->nf(t.nf).rx_ring().dequeue()) {
    out.push_back({pkt->seq, pkt->size_bytes, pkt->flow_id, pkt->arrival_time,
                   pkt->enqueue_time, pkt->ecn_marked});
    t.sim->pool().free(pkt);
  }
  return out;
}

class BurstIngest : public ::testing::TestWithParam<Entry> {};

TEST_P(BurstIngest, EqualsOneCallPerPacket) {
  IngestTwin single;
  IngestTwin burst;
  build_twin(single, GetParam());
  build_twin(burst, GetParam());
  const Cycles now = single.sim->engine().now();
  ASSERT_EQ(now, burst.sim->engine().now());
  const ChainCounters before = single.sim->manager().chain_counters(0);
  const ChainMetrics before_metrics = single.sim->chain_metrics(0);

  std::size_t fed = 0;
  for (const auto& arrivals : twin_bursts(now)) {
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      EXPECT_EQ(single.sim->manager().ingress(
                    single.key, &arrivals[i], 1,
                    [seq = fed + i](pktio::Mbuf& pkt, std::size_t) {
                      stamp(pkt, seq);
                    }),
                0u);
    }
    EXPECT_EQ(burst.sim->manager().ingress(
                  burst.key, arrivals.data(), arrivals.size(),
                  [fed](pktio::Mbuf& pkt, std::size_t i) {
                    stamp(pkt, fed + i);
                  }),
              0u);
    fed += arrivals.size();
  }

  Manager& a = single.sim->manager();
  Manager& b = burst.sim->manager();
  EXPECT_EQ(a.wire_ingress(), b.wire_ingress());
  EXPECT_EQ(single.sim->flow_table().hits(), burst.sim->flow_table().hits());
  EXPECT_EQ(single.sim->flow_table().misses(),
            burst.sim->flow_table().misses());
  const NfManagerCounters& na = a.nf_counters(single.nf);
  const NfManagerCounters& nb = b.nf_counters(burst.nf);
  EXPECT_EQ(na.offered, nb.offered);
  EXPECT_EQ(na.rx_full_drops, nb.rx_full_drops);
  const std::uint64_t arrivals = single.sim->nf(single.nf).counters().arrivals;
  EXPECT_EQ(arrivals, burst.sim->nf(burst.nf).counters().arrivals);
  const ChainCounters& ca = a.chain_counters(single.chain);
  const ChainCounters& cb = b.chain_counters(burst.chain);
  EXPECT_EQ(ca.entry_admitted, cb.entry_admitted);
  EXPECT_EQ(ca.entry_throttle_drops, cb.entry_throttle_drops);
  const ChainMetrics ma = single.sim->chain_metrics(single.chain);
  EXPECT_EQ(ma.admission_discards,
            burst.sim->chain_metrics(burst.chain).admission_discards);
  EXPECT_EQ(a.ecn()->average_queue(single.nf),
            b.ecn()->average_queue(burst.nf));
  EXPECT_EQ(a.ecn()->marks(), b.ecn()->marks());
  EXPECT_EQ(single.sim->pool().in_use(), burst.sim->pool().in_use());
  EXPECT_EQ(drain_ring(single), drain_ring(burst));
  std::ostringstream ta;
  std::ostringstream tb;
  single.trace.write_chrome_json(ta);
  burst.trace.write_chrome_json(tb);
  EXPECT_EQ(ta.str(), tb.str());

  // Each case exercised its verdict.
  switch (GetParam()) {
    case Entry::kClear:
      EXPECT_EQ(arrivals, fed);
      break;
    case Entry::kThrottled:
      EXPECT_EQ(ca.entry_throttle_drops - before.entry_throttle_drops, fed);
      break;
    case Entry::kUnmatched:
      EXPECT_EQ(single.sim->flow_table().misses(), fed);
      break;
    case Entry::kClassed:
      EXPECT_GT(ma.admission_discards, before_metrics.admission_discards);
      EXPECT_GT(ca.entry_admitted, before.entry_admitted);
      break;
  }
}

std::string entry_name(const ::testing::TestParamInfo<Entry>& param) {
  constexpr const char* kNames[] = {"Clear", "Throttled", "Unmatched",
                                    "Classed"};
  return kNames[static_cast<int>(param.param)];
}

INSTANTIATE_TEST_SUITE_P(Verdicts, BurstIngest,
                         ::testing::Values(Entry::kClear, Entry::kThrottled,
                                           Entry::kUnmatched, Entry::kClassed),
                         entry_name);

}  // namespace
}  // namespace nfv::mgr
