// Churn workloads over the flow-state library: million-flow scale, expiry
// driven drain, packet conservation, and bitwise determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>

#include "core/simulation.hpp"
#include "nfs/monitor.hpp"

namespace nfv::flow {
namespace {

pktio::FlowKey churn_key(std::uint64_t n) {
  pktio::FlowKey k;
  k.src_ip = 0x14000000u + static_cast<std::uint32_t>(n / 60000);
  k.dst_ip = 0x0a800001;
  k.src_port = static_cast<std::uint16_t>(1 + n % 60000);
  k.dst_port = 80;
  k.proto = pktio::kProtoUdp;
  return k;
}

// A million concurrent flows install, grow the arena, survive while
// touched, and drain back to zero through the expiry sweep — with every
// dense id conserved (no leak, no double-hand) across the whole cycle.
TEST(FlowChurnScale, MillionFlowsInstallTouchExpireDrain) {
  FlowTable table(FlowTable::Config{.initial_capacity = 1024,
                                    .idle_timeout = 1'000,
                                    .scan_period = 1'000});
  constexpr std::uint64_t kFlows = 1'000'000;
  for (std::uint64_t n = 0; n < kFlows; ++n) {
    table.install(churn_key(n), static_cast<ChainId>(n % 4), /*now=*/0);
  }
  ASSERT_EQ(table.size(), kFlows);
  ASSERT_EQ(table.installs(), kFlows);
  // The map never exceeds its occupancy bound even right after growth.
  EXPECT_LE(table.load_factor(), 0.86);

  // Touch the even half at t=500; the sweep at deadline t=400 must reclaim
  // exactly the idle (odd) half, in O(expired) without visiting survivors.
  for (std::uint64_t n = 0; n < kFlows; n += 2) {
    ASSERT_NE(table.lookup(churn_key(n), /*now=*/500), nullptr);
  }
  std::uint64_t expired_listener_count = 0;
  table.set_expiry_listener(
      [&](const FlowEntry& entry) { ++expired_listener_count; (void)entry; });
  EXPECT_EQ(table.expire(/*now=*/1'400), kFlows / 2);
  EXPECT_EQ(expired_listener_count, kFlows / 2);
  EXPECT_EQ(table.size(), kFlows / 2);
  for (std::uint64_t n = 0; n < 1'000; ++n) {
    EXPECT_EQ(table.lookup(churn_key(2 * n + 1)) != nullptr, false);
  }

  // Advance past the survivors' touch too: the table drains to zero and
  // the pool hands every id back.
  EXPECT_EQ(table.expire(/*now=*/2'000), kFlows / 2);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.store().pool().allocated(), 0u);
  EXPECT_EQ(table.expirations(), kFlows);

  // Reinstalled flows reuse reclaimed ids instead of growing the arena.
  const FlowId reused = table.install(churn_key(0), 0, /*now=*/2'100);
  EXPECT_LT(reused, kFlows);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTableExpiry, TouchingLookupKeepsFlowAliveAcrossSweeps) {
  FlowTable table(FlowTable::Config{.initial_capacity = 8,
                                    .idle_timeout = 100,
                                    .scan_period = 50});
  table.install(churn_key(1), 0, /*now=*/0);
  table.install(churn_key(2), 0, /*now=*/0);
  ASSERT_NE(table.lookup(churn_key(1), /*now=*/90), nullptr);  // refresh
  EXPECT_EQ(table.expire(/*now=*/150), 1u);  // only flow 2 was idle
  EXPECT_NE(table.lookup(churn_key(1)), nullptr);
  EXPECT_EQ(table.lookup(churn_key(2)), nullptr);
  EXPECT_EQ(table.expire(/*now=*/300), 1u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTableExpiry, ExpiredIdIsReusedAndOldEntryUnreachable) {
  FlowTable table(FlowTable::Config{.initial_capacity = 8,
                                    .idle_timeout = 10,
                                    .scan_period = 10});
  const FlowId a = table.install(churn_key(10), 3, /*now=*/0);
  EXPECT_EQ(table.expire(/*now=*/100), 1u);
  const FlowId b = table.install(churn_key(11), 5, /*now=*/100);
  EXPECT_EQ(b, a);  // LIFO free list hands the reclaimed id straight back
  EXPECT_EQ(table.lookup(churn_key(10)), nullptr);
  ASSERT_NE(table.lookup(churn_key(11)), nullptr);
  EXPECT_EQ(table.entry(b).chain, 5u);
}

// ---------------------------------------------------------------------------
// Engine-level churn: determinism, conservation, drain.
// ---------------------------------------------------------------------------

struct ChurnRun {
  std::string report;
  std::uint64_t wire_ingress = 0;
  std::uint64_t admitted = 0;
  std::uint64_t entry_drops = 0;
  std::uint64_t egress = 0;
  std::uint64_t rx_full_drops = 0;
  std::uint64_t unmatched_drops = 0;
  std::uint64_t sent = 0;
  std::uint64_t flows_created = 0;
  std::uint64_t table_size = 0;
  std::uint64_t expirations = 0;
  std::uint64_t pool_in_use = 0;
};

ChurnRun run_churn(std::uint64_t seed, std::uint32_t burst,
                   double run_seconds = 0.3, double stop_seconds = 0.1) {
  core::PlatformConfig cfg;
  cfg.flow_table.idle_timeout =
      static_cast<Cycles>(0.02 * cfg.cpu_hz);  // 20 ms idle -> expire
  core::Simulation sim(cfg);
  const auto core_id = sim.add_core(core::SchedPolicy::kCfsBatch);
  const auto mon_nf = sim.add_nf("mon", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("churn", {mon_nf});
  // Stateful NF: per-packet cost follows the flow-cache path (hit/miss/
  // evict), so churn directly shapes the cost stream the scheduler sees.
  nfs::FlowMonitor monitor(1 << 12);
  monitor.install(sim.nf(mon_nf), nfs::FlowMonitor::PathCosts{});
  const auto& src =
      sim.add_churn_workload(chain, 500'000,
                             {.concurrent_flows = 2'000,
                              .stop_seconds = stop_seconds,
                              .pareto_alpha = 1.5,
                              .pareto_min_packets = 4.0,
                              .seed = seed,
                              .burst = burst});
  sim.run_for_seconds(run_seconds);

  ChurnRun out;
  out.report = sim.report_json();
  out.wire_ingress = sim.manager().wire_ingress();
  const auto cm = sim.chain_metrics(chain);
  out.admitted = cm.entry_admitted;
  out.entry_drops = cm.entry_throttle_drops;
  out.egress = cm.egress_packets;
  out.rx_full_drops = sim.nf_metrics(mon_nf).rx_full_drops;
  // A flow idle past the timeout is swept from the table even though the
  // source may still emit for it; those packets miss the lookup and are
  // dropped unmatched (the rule would need reinstalling) — they must be
  // accounted, not lost.
  if (const auto drops =
          sim.observability().metrics().sample("mgr.unmatched_drops")) {
    out.unmatched_drops = static_cast<std::uint64_t>(*drops);
  }
  out.sent = src.packets_sent();
  out.flows_created = src.flows_created();
  out.table_size = sim.flow_table().size();
  out.expirations = sim.flow_table().expirations();
  out.pool_in_use = sim.pool().in_use();
  return out;
}

// Same seed, same burst window: the entire metrics report is byte-identical
// across two fresh processes' worth of state.
TEST(FlowChurnDeterminism, SameSeedSameReportByteForByte) {
  const ChurnRun r1 = run_churn(0xfeed, 4);
  const ChurnRun r2 = run_churn(0xfeed, 4);
  EXPECT_EQ(r1.report, r2.report);
  EXPECT_EQ(r1.sent, r2.sent);
  EXPECT_EQ(r1.flows_created, r2.flows_created);
  const ChurnRun other = run_churn(0xbeef, 4);
  EXPECT_NE(r1.report, other.report);
}

// The source's arrival process is burst-window invariant (gap draws are
// consumed at arm time, flow draws at emit time), so emission-side counts
// match across burst windows and each window conserves packets.
TEST(FlowChurnDeterminism, EmissionInvariantAcrossBurstWindows) {
  const ChurnRun b1 = run_churn(0x5eed, 1);
  const ChurnRun b8 = run_churn(0x5eed, 8);
  EXPECT_EQ(b1.sent, b8.sent);
  EXPECT_EQ(b1.flows_created, b8.flows_created);
  EXPECT_EQ(b1.wire_ingress, b8.wire_ingress);
  for (const ChurnRun* r : {&b1, &b8}) {
    EXPECT_EQ(r->wire_ingress,
              r->admitted + r->entry_drops + r->unmatched_drops);
  }
}

// After traffic stops: every mbuf returns to the pool, the queues are
// empty, and the expiry sweep drains the churned flow population back out
// of the table — dense ids fully reclaimed.
TEST(FlowChurnDeterminism, DrainsToZeroThroughExpiry) {
  const ChurnRun r = run_churn(0xd1a1, 4, /*run_seconds=*/0.4);
  EXPECT_EQ(r.wire_ingress, r.admitted + r.entry_drops + r.unmatched_drops);
  EXPECT_GT(r.unmatched_drops, 0u)
      << "no flow ever outlived its table entry — churn too tame";
  EXPECT_EQ(r.admitted, r.egress + r.rx_full_drops);
  EXPECT_EQ(r.pool_in_use, 0u);
  EXPECT_GT(r.flows_created, 2'000u) << "population never churned";
  EXPECT_GT(r.expirations, 0u);
  EXPECT_EQ(r.table_size, 0u) << "expiry sweep left flows behind";
}

// flow.* metrics from the table surface in the report for dashboards.
TEST(FlowChurnDeterminism, FlowTableMetricsExported) {
  const ChurnRun r = run_churn(0xfaceb00c, 4, /*run_seconds=*/0.05,
                               /*stop_seconds=*/-1.0);
  for (const char* key :
       {"flow.hits", "flow.misses", "flow.installs", "flow.expirations",
        "flow.table_size", "flow.load_factor"}) {
    EXPECT_NE(r.report.find(key), std::string::npos) << key;
  }
}

// Retired 5-tuples are never reused by the source: every created flow is a
// fresh key, which is what actually stresses install/expire churn.
TEST(FlowChurnDeterminism, SourceInstallsFreshTuples) {
  core::PlatformConfig cfg;
  cfg.flow_table.idle_timeout = static_cast<Cycles>(0.01 * cfg.cpu_hz);
  core::Simulation sim(cfg);
  const auto core_id = sim.add_core(core::SchedPolicy::kCfsBatch);
  const auto nf_id = sim.add_nf("sink", core_id, nf::CostModel::fixed(80));
  const auto chain = sim.add_chain("c", {nf_id});
  auto& src = sim.add_churn_workload(chain, 200'000,
                                     {.concurrent_flows = 64,
                                      .pareto_min_packets = 2.0,
                                      .seed = 42,
                                      .burst = 4});
  sim.run_for_seconds(0.1);
  EXPECT_GT(src.flows_retired(), 100u);
  EXPECT_EQ(src.flows_created(), 64u + src.flows_retired());
  // Table holds at most the live population plus not-yet-expired retirees.
  EXPECT_LE(sim.flow_table().size(), src.flows_created());
  EXPECT_GT(sim.flow_table().expirations(), 0u);
}

}  // namespace
}  // namespace nfv::flow
