// End-to-end fault-injection behaviour (DESIGN.md §11): determinism,
// lifecycle transitions, watchdog bounds, dead-NF policies, and the
// availability property the fig_availability bench reports.
#include <gtest/gtest.h>

#include <sstream>

#include "core/simulation.hpp"
#include "fault/fault_plan.hpp"

namespace nfv::core {
namespace {

/// The canonical crash scenario used by the determinism and golden tests:
/// a two-NF chain on one BATCH core, overloaded, NF "b" crashing at 50 ms
/// and restarting 10 ms after detection.
std::unique_ptr<Simulation> make_crash_sim() {
  auto sim = std::make_unique<Simulation>();
  const auto core_id = sim->add_core(SchedPolicy::kCfsBatch);
  const auto a = sim->add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim->add_nf("b", core_id, nf::CostModel::fixed(270));
  const auto chain = sim->add_chain("ab", {a, b});
  sim->add_udp_flow(chain, 5e6);
  fault::FaultPlan plan;
  plan.add_crash(b, sim->clock().from_seconds(0.05),
                 sim->clock().from_seconds(0.01));
  sim->set_fault_plan(std::move(plan));
  return sim;
}

// Two identical faulted simulations must replay byte-for-byte: the crash,
// the watchdog scans, the restart and every downstream perturbation are
// ordinary engine events with deterministic ordering.
TEST(FaultInjection, ByteIdenticalReports) {
  auto sim1 = make_crash_sim();
  auto sim2 = make_crash_sim();
  sim1->run_for_seconds(0.2);
  sim2->run_for_seconds(0.2);
  std::ostringstream r1, r2;
  sim1->report_json(r1);
  sim2->report_json(r2);
  EXPECT_EQ(r1.str(), r2.str());
}

// Golden counters for the canonical crash scenario. These values pin the
// fault path end to end — injection instant, watchdog ordering, share
// release, restart and warm-up — and must only change with an intentional
// model change (regenerate by running the scenario and copying the new
// values).
TEST(FaultInjection, GoldenCounters) {
  auto sim = make_crash_sim();
  sim->run_for_seconds(0.2);
  const auto cm = sim->chain_metrics(0);
  const auto mb = sim->nf_metrics(1);
  const auto& ls = sim->nf_lifecycle_stats(1);
  EXPECT_EQ(cm.egress_packets, 947'520u);
  EXPECT_EQ(cm.entry_admitted, 947'616u);
  EXPECT_EQ(cm.entry_throttle_drops, 52'496u);
  EXPECT_EQ(mb.crash_drops, 0u);
  EXPECT_EQ(mb.rx_full_drops, 0u);
  EXPECT_EQ(ls.crashes, 1u);
  EXPECT_EQ(ls.restarts, 1u);
  EXPECT_EQ(ls.recoveries, 1u);
  EXPECT_EQ(ls.downtime_cycles, 29'900'000u);  // 11.5 ms
  // The 50 ms injection instant lands exactly on a watchdog tick, so
  // detection is same-cycle.
  EXPECT_EQ(ls.last_detect_latency, 0u);
}

TEST(FaultInjection, CrashLifecycleAndWatchdogBounds) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(270));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 2e6);
  // Off-tick injection instant: detection must still happen within one
  // watchdog period.
  const Cycles at = sim.clock().from_seconds(0.05) + 12'347;
  fault::FaultPlan plan;
  plan.add_crash(b, at, sim.clock().from_seconds(0.02));
  sim.set_fault_plan(std::move(plan));

  sim.run_for_seconds(0.04);
  EXPECT_EQ(sim.nf_lifecycle(b), fault::NfLifecycle::kRunning);

  sim.run_for_seconds(0.02);  // t = 60 ms: mid-outage
  EXPECT_EQ(sim.nf_lifecycle(b), fault::NfLifecycle::kDead);
  EXPECT_TRUE(sim.nf(b).dead());

  sim.run_for_seconds(0.14);  // restart + warm completed long ago
  EXPECT_EQ(sim.nf_lifecycle(b), fault::NfLifecycle::kRunning);
  EXPECT_FALSE(sim.nf(b).dead());

  const auto& ls = sim.nf_lifecycle_stats(b);
  EXPECT_EQ(ls.crashes, 1u);
  EXPECT_EQ(ls.forced_crashes, 0u);
  EXPECT_EQ(ls.restarts, 1u);
  EXPECT_EQ(ls.recoveries, 1u);
  EXPECT_GT(ls.last_detect_latency, 0u);
  EXPECT_LE(ls.last_detect_latency, fault::kWatchdogPeriod);
  // Downtime covers detection -> RUNNING: at least the restart delay, at
  // most that plus reload, warm-up and a few watchdog granules.
  EXPECT_GE(ls.downtime_cycles, sim.clock().from_seconds(0.02));
  EXPECT_LE(ls.downtime_cycles,
            sim.clock().from_seconds(0.02) + fault::kReloadLatency +
                fault::kWarmDuration + 4 * fault::kWatchdogPeriod);
  // The chain kept losing packets at the entry (backpressure pinned the
  // dead NF to Throttle), not half-way through.
  EXPECT_GT(sim.chain_metrics(chain).entry_throttle_drops, 0u);
}

TEST(FaultInjection, StallIsDiagnosedAndForceCrashed) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(270));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 2e6);
  fault::FaultPlan plan;
  plan.add_stall(b, sim.clock().from_seconds(0.05) + 5'000);
  sim.set_fault_plan(std::move(plan));
  sim.run_for_seconds(0.2);

  const auto& ls = sim.nf_lifecycle_stats(b);
  EXPECT_EQ(ls.crashes, 1u);
  EXPECT_EQ(ls.forced_crashes, 1u);  // the watchdog killed it, not the fault
  EXPECT_EQ(ls.recoveries, 1u);
  // Straggler diagnosis needs kStuckScans consecutive silent scans.
  EXPECT_LE(ls.last_detect_latency,
            (fault::kStuckScans + 1) * fault::kWatchdogPeriod);
  EXPECT_EQ(sim.nf_lifecycle(b), fault::NfLifecycle::kRunning);
}

TEST(FaultInjection, DegradeScalesServiceTimeAndRestores) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(200));
  const auto chain = sim.add_chain("a", {a});
  sim.add_udp_flow(chain, 20e6);  // saturate: throughput = service rate
  fault::FaultPlan plan;
  plan.add_degrade(a, sim.clock().from_seconds(0.1), /*factor=*/4.0,
                   sim.clock().from_seconds(0.1));
  sim.set_fault_plan(std::move(plan));

  sim.run_for_seconds(0.1);
  const auto before = sim.nf_metrics(a).processed;
  sim.run_for_seconds(0.1);
  const auto during = sim.nf_metrics(a).processed - before;
  sim.run_for_seconds(0.1);
  const auto after = sim.nf_metrics(a).processed - before - during;
  // 4x the service time => ~1/4 the saturated throughput, then back.
  EXPECT_LT(during, before / 3);
  EXPECT_GT(during, before / 6);
  EXPECT_GT(after, (before * 9) / 10);
}

TEST(FaultInjection, BypassPolicyRoutesAroundDeadHop) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(150));
  const auto c = sim.add_nf("c", core_id, nf::CostModel::fixed(120));
  const auto chain = sim.add_chain("abc", {a, b, c});
  sim.add_udp_flow(chain, 1e6);
  fault::FaultPlan plan;
  plan.add_crash(b, sim.clock().from_seconds(0.05),
                 sim.clock().from_seconds(0.05));
  sim.set_fault_plan(std::move(plan));
  sim.set_dead_policy(chain, fault::DeadNfPolicy::kBypass);

  sim.run_for_seconds(0.05);
  const auto egress_before = sim.chain_metrics(chain).egress_packets;
  sim.run_for_seconds(0.04);  // mid-outage
  const auto egress_during =
      sim.chain_metrics(chain).egress_packets - egress_before;
  // Service continued around the dead hop at roughly the offered rate.
  EXPECT_GT(egress_during, 30'000u);
  EXPECT_GT(sim.manager().chain_counters(chain).bypassed_hops, 30'000u);
  // b itself processed nothing while dead.
  EXPECT_EQ(sim.nf_lifecycle(b), fault::NfLifecycle::kDead);
}

// The fig_availability property: with a saturating bystander chain on the
// same core, NFVnice (cgroups + backpressure) both retains strictly more
// goodput under an NF crash and returns to its pre-fault service level
// sooner than the Default stack (see bench/fig_availability.cpp).
TEST(FaultInjection, NfvniceRetainsMoreGoodputUnderFaults) {
  auto run = [](bool nfvnice) {
    PlatformConfig cfg;
    cfg.set_nfvnice(nfvnice);
    Simulation sim(cfg);
    const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
    const auto nf1 = sim.add_nf("NF1", core_id, nf::CostModel::fixed(600));
    const auto nf2 = sim.add_nf("NF2", core_id, nf::CostModel::fixed(300));
    const auto nf3 = sim.add_nf("NF3", core_id, nf::CostModel::fixed(600));
    const auto victim = sim.add_chain("victim", {nf1, nf2});
    const auto bystander = sim.add_chain("bystander", {nf3});
    sim.add_udp_flow(victim, 1.4e6);
    sim.add_udp_flow(bystander, 5e6);
    fault::FaultPlan plan;
    plan.add_crash(nf2, sim.clock().from_seconds(0.1) + 12'347,
                   sim.clock().from_seconds(0.05));
    sim.set_fault_plan(std::move(plan));
    sim.run_for_seconds(0.25);
    return sim.chain_metrics(victim).egress_packets +
           sim.chain_metrics(bystander).egress_packets;
  };
  const auto default_egress = run(false);
  const auto nfvnice_egress = run(true);
  EXPECT_GT(nfvnice_egress, default_egress);
}

// The watchdog's heartbeat is per packet: a healthy NF whose run-to-
// completion burst of slow packets outlasts kStuckScans scans makes
// progress at every packet, so the burst window cannot turn an overloaded
// NF into a straggler. Each packet here fits the stuck bound many times.
TEST(FaultInjection, LongBurstOfSlowPacketsIsNotStuck) {
  for (const Cycles cost : {Cycles{30'000}, Cycles{100'000}}) {
    for (const bool per_packet : {false, true}) {
      PlatformConfig cfg;
      if (per_packet) cfg.set_burst_window(1);
      Simulation sim(cfg);
      const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
      const auto nf = sim.add_nf("slow", core_id, nf::CostModel::fixed(cost));
      const auto chain = sim.add_chain("c", {nf});
      // 1.5x the NF's capacity: its ring never drains, every burst is full.
      sim.add_udp_flow(chain, 1.5 * kDefaultCpuHz / static_cast<double>(cost));
      sim.set_fault_plan({});  // arms the watchdog, injects nothing
      sim.run_for_seconds(0.02);
      const auto& ls = sim.nf_lifecycle_stats(nf);
      EXPECT_EQ(ls.forced_crashes, 0u)
          << cost << " cycles/packet, burst window "
          << (per_packet ? "1" : "default");
      EXPECT_EQ(ls.crashes, 0u);
      EXPECT_GT(sim.nf_metrics(nf).processed, 0u);
    }
  }
}

// Half-open windows that touch, [0, t) and then [t, end of run), pass the
// overlap check. At t the first window's restore must run before the second
// window's inject, whatever order the plan lists them in: the lane arms its
// specs by injection time. Same-kind device windows obey the same rule.
TEST(FaultInjection, AbuttingWindowsApplyInTimeOrder) {
  for (const bool reversed : {false, true}) {
    Simulation sim;
    const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
    const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(200));
    sim.add_chain("a", {a});
    const Cycles t = sim.clock().from_seconds(0.001);
    fault::FaultPlan plan;
    if (reversed) {
      plan.add_degrade(a, t, 4.0);
      plan.add_device_slow(t, 4.0);
    }
    plan.add_degrade(a, 0, 2.0, t);
    plan.add_device_slow(0, 2.0, t);
    if (!reversed) {
      plan.add_degrade(a, t, 4.0);
      plan.add_device_slow(t, 4.0);
    }
    sim.set_fault_plan(std::move(plan));
    sim.run_for_seconds(0.0005);
    EXPECT_DOUBLE_EQ(sim.nf(a).cost_model().scale(), 2.0);
    EXPECT_DOUBLE_EQ(sim.disk().latency_factor(), 2.0);
    sim.run_for_seconds(0.001);
    const char* order = reversed ? "added in reverse" : "added in time order";
    EXPECT_DOUBLE_EQ(sim.nf(a).cost_model().scale(), 4.0) << order;
    EXPECT_DOUBLE_EQ(sim.disk().latency_factor(), 4.0) << order;
  }
}

}  // namespace
}  // namespace nfv::core
