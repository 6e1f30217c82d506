// Burst-window equivalence suite (DESIGN.md §9).
//
// The batched run-to-completion engine must be *gated by equivalence*: at
// burst window 1 every event the platform schedules is identical to the
// seed's one-event-per-packet schedule, so per-NF counters reproduce the
// seed byte-for-byte. The golden numbers below were captured from the
// pre-burst tree on the fig. 7 / table 3 scenario grid (three-NF chain at
// 6 Mpps overload, 20 simulated ms) and on the fig. 13-style TCP+UDP mix.
// Any drift here means the burst rewrite changed *behaviour*, not just the
// event count.
//
// The default-burst tests then pin down what the optimisation is allowed
// to change: event count and wall-clock, never conservation, determinism,
// or the paper-level conclusions (NFVnice beats Default at overload).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"

namespace nfv::core {
namespace {

struct NfGolden {
  std::uint64_t arrivals;
  std::uint64_t processed;
  std::uint64_t forwarded;
  std::uint64_t rx_full_drops;
  std::uint64_t involuntary_switches;
  Cycles runtime;
};

struct UdpGolden {
  const char* tag;
  SchedPolicy policy;
  double rr_quantum_ms;
  bool nfvnice;
  std::array<NfGolden, 3> nf;
  std::uint64_t egress;
  std::uint64_t entry_drops;
  std::uint64_t wire_ingress;
};

// Captured from the seed (one event per packet) — see file comment.
const UdpGolden kUdpGrid[] = {
    {"NORMAL/Default", SchedPolicy::kCfsNormal, 100.0, false,
     {{{120097u, 113290u, 113290u, 0u, 0u, 13594800},
       {59304u, 53821u, 53821u, 53986u, 356u, 14531690},
       {48100u, 31715u, 31715u, 5720u, 452u, 17443390}}},
     31715u, 0u, 120097u},
    {"NORMAL/NFVnice", SchedPolicy::kCfsNormal, 100.0, true,
     {{{68042u, 68008u, 68008u, 0u, 0u, 8160960},
       {68008u, 55843u, 55843u, 0u, 567u, 15077610},
       {55843u, 43431u, 43431u, 0u, 39u, 23887410}}},
     43431u, 52055u, 120097u},
    {"BATCH/Default", SchedPolicy::kCfsBatch, 100.0, false,
     {{{120097u, 117192u, 117192u, 0u, 0u, 14063040},
       {86500u, 71870u, 71870u, 30692u, 1u, 19405150},
       {47497u, 33391u, 33391u, 24373u, 2u, 18365090}}},
     33390u, 0u, 120097u},
    {"BATCH/NFVnice", SchedPolicy::kCfsBatch, 100.0, true,
     {{{73852u, 69218u, 69218u, 0u, 0u, 8306160},
       {69218u, 61251u, 61251u, 0u, 0u, 16537770},
       {61251u, 48972u, 48972u, 0u, 6u, 26934750}}},
     48971u, 46245u, 120097u},
    {"RR1/Default", SchedPolicy::kRoundRobin, 1.0, false,
     {{{112160u, 98654u, 98654u, 7937u, 0u, 11838480},
       {78138u, 71369u, 71369u, 20516u, 1u, 19269680},
       {54052u, 37667u, 37667u, 17316u, 3u, 20717320}}},
     37667u, 0u, 120097u},
    {"RR1/NFVnice", SchedPolicy::kRoundRobin, 1.0, true,
     {{{75009u, 67782u, 67782u, 0u, 0u, 8133840},
       {67782u, 60291u, 60291u, 0u, 1u, 16278620},
       {60290u, 49820u, 49820u, 0u, 4u, 27401320}}},
     49820u, 45088u, 120097u},
};

/// The fig. 7 / table 3 scenario: low/med/high-cost chain on one core,
/// 6 Mpps offered (overload — the chain needs ~940 cycles/packet).
std::unique_ptr<Simulation> make_grid_sim(const UdpGolden& g,
                                          std::uint32_t burst_window) {
  PlatformConfig cfg;
  cfg.set_nfvnice(g.nfvnice);
  cfg.set_burst_window(burst_window);
  auto sim = std::make_unique<Simulation>(cfg);
  const auto core_id = sim->add_core(g.policy, g.rr_quantum_ms);
  const auto a = sim->add_nf("low", core_id, nf::CostModel::fixed(120));
  const auto b = sim->add_nf("med", core_id, nf::CostModel::fixed(270));
  const auto c = sim->add_nf("high", core_id, nf::CostModel::fixed(550));
  sim->add_chain("lmh", {a, b, c});
  sim->add_udp_flow(0, 6e6);
  return sim;
}

class BurstWindowOneEquivalence
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BurstWindowOneEquivalence, ReproducesSeedCountersExactly) {
  const UdpGolden& g = kUdpGrid[GetParam()];
  SCOPED_TRACE(g.tag);
  auto sim = make_grid_sim(g, /*burst_window=*/1);
  sim->run_for_seconds(0.02);
  for (flow::NfId id = 0; id < 3; ++id) {
    SCOPED_TRACE("nf " + std::to_string(id));
    const auto m = sim->nf_metrics(id);
    EXPECT_EQ(m.arrivals, g.nf[id].arrivals);
    EXPECT_EQ(m.processed, g.nf[id].processed);
    EXPECT_EQ(m.forwarded, g.nf[id].forwarded);
    EXPECT_EQ(m.rx_full_drops, g.nf[id].rx_full_drops);
    EXPECT_EQ(m.involuntary_switches, g.nf[id].involuntary_switches);
    EXPECT_EQ(m.runtime, g.nf[id].runtime);
  }
  const auto cm = sim->chain_metrics(0);
  EXPECT_EQ(cm.egress_packets, g.egress);
  EXPECT_EQ(cm.entry_throttle_drops, g.entry_drops);
  EXPECT_EQ(sim->manager().wire_ingress(), g.wire_ingress);
}

INSTANTIATE_TEST_SUITE_P(Fig07Tab03Grid, BurstWindowOneEquivalence,
                         ::testing::Range<std::size_t>(0, 6),
                         [](const auto& param_info) {
                           std::string name = kUdpGrid[param_info.param].tag;
                           for (char& ch : name) {
                             if (ch == '/') ch = '_';
                           }
                           return name;
                         });

TEST(BurstWindowOne, TcpClosedLoopReproducesSeed) {
  // Fig. 13-style mix: a responsive TCP flow sharing a chain with 4 Mpps of
  // UDP, NFVnice + ECN on. Closed-loop dynamics amplify any timing drift —
  // one displaced ECN mark would change the whole window trajectory.
  PlatformConfig cfg;
  cfg.set_nfvnice(true);
  cfg.set_burst_window(1);
  Simulation sim(cfg);
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("fw", core_id, nf::CostModel::fixed(300));
  const auto b = sim.add_nf("mon", core_id, nf::CostModel::fixed(450));
  const auto chain = sim.add_chain("c", {a, b});
  auto [flow, tcp] = sim.add_tcp_flow(chain);
  sim.add_udp_flow(chain, 4e6);
  sim.run_for_seconds(0.02);
  EXPECT_EQ(tcp->packets_sent(), 304u);
  EXPECT_EQ(tcp->packets_delivered(), 274u);
  EXPECT_EQ(tcp->cwnd(), 3u);
  EXPECT_EQ(tcp->congestion_events(), 37u);
  EXPECT_EQ(sim.manager().flow_counters(flow).ecn_marked, 16u);
  EXPECT_EQ(sim.nf_metrics(a).processed, 74535u);
}

// -- default burst: the optimisation must not move paper-level results ------

TEST(DefaultBurst, ConservationHoldsAtOverload) {
  auto sim = make_grid_sim(kUdpGrid[3], /*burst_window=*/32);
  sim->run_for_seconds(0.02);
  std::uint64_t in_queues = 0;
  std::uint64_t rx_full = 0;
  for (flow::NfId id = 0; id < 3; ++id) {
    in_queues += sim->nf(id).rx_ring().size() + sim->nf(id).tx_ring().size() +
                 sim->nf(id).in_flight_packets();
    rx_full += sim->nf_metrics(id).rx_full_drops;
  }
  const auto cm = sim->chain_metrics(0);
  EXPECT_EQ(sim->manager().wire_ingress(),
            cm.entry_admitted + cm.entry_throttle_drops);
  EXPECT_EQ(cm.entry_admitted, cm.egress_packets + rx_full + in_queues);
}

TEST(DefaultBurst, NfvniceStillBeatsDefaultAtOverload) {
  // The headline table 3 comparison must survive any burst setting: under
  // BATCH at overload, NFVnice's backpressure turns wasted upstream work
  // into chain throughput.
  auto nfvnice = make_grid_sim(kUdpGrid[3], 32);
  auto fifo_drop = make_grid_sim(kUdpGrid[2], 32);
  nfvnice->run_for_seconds(0.02);
  fifo_drop->run_for_seconds(0.02);
  const auto good = nfvnice->chain_metrics(0).egress_packets;
  const auto base = fifo_drop->chain_metrics(0).egress_packets;
  EXPECT_GT(good, base);
  // And it does so by not dropping inside the chain at all.
  for (flow::NfId id = 1; id < 3; ++id) {
    EXPECT_EQ(nfvnice->nf_metrics(id).rx_full_drops, 0u);
    EXPECT_GT(fifo_drop->nf_metrics(id).rx_full_drops, 0u);
  }
}

TEST(DefaultBurst, RunsAreDeterministic) {
  auto run_once = [] {
    auto sim = make_grid_sim(kUdpGrid[1], 32);
    sim->run_for_seconds(0.02);
    return sim->report_json();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(DefaultBurst, WindowOnlyPerturbsAdmissionAtTheRunBoundary) {
  // Source bursting redistributes *events*, not arrivals: the wire sees the
  // same packet sequence at any window. The one edge is the end of the run
  // — a batch whose delivery event lands past the horizon never fires, so
  // up to window-1 tail arrivals can go missing relative to window 1.
  for (const std::uint32_t window : {1u, 4u, 32u}) {
    auto sim = make_grid_sim(kUdpGrid[0], window);
    sim->run_for_seconds(0.02);
    const std::uint64_t wire = sim->manager().wire_ingress();
    EXPECT_LE(wire, 120097u) << "window " << window;
    EXPECT_GE(wire + window, 120097u + 1) << "window " << window;
  }
}

// -- burst hand-offs ----------------------------------------------------------
// The Manager moves packets in runs (one Rx call per source burst, one
// enqueue run per next hop, one egress run per chain). These pins were
// captured while every hand-off was still one packet at a time: the runs
// must reproduce those bytes exactly.

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string trace_bytes(const obs::TraceRecorder& trace) {
  std::ostringstream out;
  trace.write_chrome_json(out);
  return out.str();
}

/// Records each flow's egress sequence numbers.
void record_egress(Simulation& sim, flow::FlowId flow,
                   std::vector<std::uint64_t>& seqs) {
  sim.manager().set_egress_sink(
      flow, [&seqs](const pktio::Mbuf& pkt) { seqs.push_back(pkt.seq); });
}

TEST(BurstHandOff, PoolCapFallsBackToOnePacketAtATime) {
  // A fig. 7 pool so small that source bursts meet the cap: those bursts
  // allocate packet by packet and lose the overflow at the wire.
  PlatformConfig cfg;
  cfg.set_nfvnice(true);
  cfg.mempool_capacity = 3000;
  Simulation sim(cfg);
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("low", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("med", core_id, nf::CostModel::fixed(270));
  const auto c = sim.add_nf("high", core_id, nf::CostModel::fixed(550));
  sim.add_chain("lmh", {a, b, c});
  sim.add_udp_flow(0, 6e6);
  sim.run_for_seconds(0.02);
  EXPECT_GT(sim.pool().alloc_failures(), 0u) << "the cap was never hit";
  EXPECT_LT(sim.manager().wire_ingress(), 120097u);
  EXPECT_EQ(fnv1a(sim.report_json()), 0x1d136797972b3512ULL);
}

TEST(BurstHandOff, InterleavedChainsKeepHopOrderAndEcnMarks) {
  // One NF's TX bursts interleave two chains bound for different next
  // hops; both hops run hot enough to mark ECN-capable TCP.
  PlatformConfig cfg;
  cfg.rx_capacity = 1024;
  Simulation sim(cfg);
  const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto shared = sim.add_nf("shared", c0, nf::CostModel::fixed(100));
  const auto x = sim.add_nf("x", c1, nf::CostModel::fixed(600));
  const auto y = sim.add_nf("y", c1, nf::CostModel::fixed(600));
  const auto sx = sim.add_chain("sx", {shared, x});
  const auto sy = sim.add_chain("sy", {shared, y});
  obs::TraceRecorder trace({.max_events = 200'000});
  sim.attach_trace(trace);
  std::vector<std::uint64_t> seq_x;
  std::vector<std::uint64_t> seq_y;
  record_egress(sim, sim.add_udp_flow(sx, 2.3e6, {.seed = 1}), seq_x);
  record_egress(sim, sim.add_udp_flow(sy, 2.3e6, {.seed = 2}), seq_y);
  const auto [tcp_x, src_x] = sim.add_tcp_flow(sx);
  const auto [tcp_y, src_y] = sim.add_tcp_flow(sy);
  sim.run_for_seconds(0.008);

  EXPECT_GT(sim.manager().flow_counters(tcp_x).ecn_marked, 0u);
  EXPECT_GT(sim.manager().flow_counters(tcp_y).ecn_marked, 0u);
  for (const auto* seqs : {&seq_x, &seq_y}) {
    ASSERT_FALSE(seqs->empty());
    EXPECT_TRUE(std::is_sorted(seqs->begin(), seqs->end()));
  }
  EXPECT_EQ(fnv1a(sim.report_json()), 0x450c9f428263ccc7ULL);
  EXPECT_EQ(fnv1a(trace_bytes(trace)), 0xb14a133831cea29bULL);
}

TEST(BurstHandOff, BypassedChainIsForwardedOnePacketAtATime) {
  // Chain abc routes around its dead hop b under kBypass, packet by
  // packet; chain ac shares a's TX bursts and keeps forming runs.
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(150));
  const auto c = sim.add_nf("c", core_id, nf::CostModel::fixed(120));
  const auto abc = sim.add_chain("abc", {a, b, c});
  const auto ac = sim.add_chain("ac", {a, c});
  obs::TraceRecorder trace({.max_events = 200'000});
  sim.attach_trace(trace);
  std::vector<std::uint64_t> seq_abc;
  std::vector<std::uint64_t> seq_ac;
  record_egress(sim, sim.add_udp_flow(abc, 1e6, {.seed = 1}), seq_abc);
  record_egress(sim, sim.add_udp_flow(ac, 1e6, {.seed = 2}), seq_ac);
  fault::FaultPlan plan;
  plan.add_crash(b, sim.clock().from_seconds(0.002),
                 sim.clock().from_seconds(0.05));
  sim.set_fault_plan(std::move(plan));
  sim.set_dead_policy(abc, fault::DeadNfPolicy::kBypass);
  sim.run_for_seconds(0.01);

  EXPECT_GT(sim.manager().chain_counters(abc).bypassed_hops, 0u);
  for (const auto* seqs : {&seq_abc, &seq_ac}) {
    ASSERT_FALSE(seqs->empty());
    EXPECT_TRUE(std::is_sorted(seqs->begin(), seqs->end()));
  }
  EXPECT_EQ(fnv1a(sim.report_json()), 0x49e5ecd5efb49595ULL);
  EXPECT_EQ(fnv1a(trace_bytes(trace)), 0xc5a1fc297699bdc3ULL);
}

}  // namespace
}  // namespace nfv::core
