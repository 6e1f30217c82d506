// Cross-chain overload control end-to-end (DESIGN.md §17).
//
// The contract under test: the ingress admission gate sheds the
// lowest-utility class at a pressured shared first hop (and only that
// class — the priority chain rides through), releases when the pressure
// clears, and keeps a shed class alive through the trickle bucket; the
// PAM push-aside machine confiscates a bounded share slice from
// lower-priority core neighbors of a pressured high-priority NF and
// settles back to exactly 1.0 once the pressure ends; the two controllers
// compose with the SLO boost and the lifecycle watchdog without
// oscillation; reports are byte-identical across reruns and across
// sharded worker counts; and a run that registers no class and leaves
// push-aside off emits none of the new report blocks.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/simulation.hpp"
#include "fault/fault_plan.hpp"

namespace nfv::core {
namespace {

PlatformConfig nfvnice_config() {
  PlatformConfig cfg;
  cfg.set_nfvnice(true);
  return cfg;
}

/// The fig_overload rig, scaled down: core0 runs a shared classifier
/// `gate` heading a high-utility gold chain (tight SLO, short ring,
/// priority 2.0 downstream) and a low-utility bulk chain offered ~2x the
/// gate's capacity; core1 adds a saturating hog so the gold tail is
/// squeezed from below too.
struct OverloadRig {
  std::unique_ptr<Simulation> sim;
  flow::NfId gate = 0;
  flow::NfId gold_nf = 0;
  flow::NfId bulk_nf = 0;
  flow::NfId hog_nf = 0;
  flow::ChainId gold = 0;
  flow::ChainId bulk = 0;
  flow::ChainId hog = 0;

  /// `stop_seconds` stops the overloaders (bulk + hog) only; the gold
  /// flow keeps running so its tail telemetry gathers fresh recovery
  /// evidence — a chain with a stale over-target window conservatively
  /// holds its group's shed ladder.
  explicit OverloadRig(PlatformConfig cfg, bool classes,
                       double stop_seconds = -1.0) {
    sim = std::make_unique<Simulation>(cfg);
    const auto core0 = sim->add_core(SchedPolicy::kCfsNormal);
    const auto core1 = sim->add_core(SchedPolicy::kCfsNormal);
    NfOptions gold_opts;
    gold_opts.priority = 2.0;
    gold_opts.rx_capacity = 256;
    gate = sim->add_nf("gate", core0, nf::CostModel::fixed(600));
    gold_nf =
        sim->add_nf("gold_nf", core1, nf::CostModel::fixed(1200), gold_opts);
    bulk_nf = sim->add_nf("bulk_nf", core1, nf::CostModel::fixed(50));
    hog_nf = sim->add_nf("hog", core1, nf::CostModel::fixed(600));
    gold = sim->add_chain("gold", {gate, gold_nf});
    bulk = sim->add_chain("bulk", {gate, bulk_nf});
    hog = sim->add_chain("hog", {hog_nf});
    sim->set_chain_slo(gold, 300.0);
    if (classes) {
      sim->set_chain_class(gold, /*priority=*/4.0, /*utility=*/10.0);
      sim->set_chain_class(bulk, /*priority=*/1.0, /*utility=*/2.0);
    }
    UdpOptions opts;
    opts.stop_seconds = stop_seconds;
    sim->add_udp_flow(gold, 0.5e6);
    sim->add_udp_flow(bulk, 8e6, opts);
    sim->add_udp_flow(hog, 5e6, opts);
  }
};

TEST(OverloadAdmission, ShedsLowestUtilityClassOnly) {
  OverloadRig r(nfvnice_config(), /*classes=*/true);
  r.sim->run_for_seconds(0.3);

  const auto br = r.sim->chain_admission_report(r.bulk);
  const auto gr = r.sim->chain_admission_report(r.gold);
  ASSERT_TRUE(br.classed);
  ASSERT_TRUE(gr.classed);
  EXPECT_GT(br.engagements, 0u) << "bulk (utility 2) must be shed";
  EXPECT_GT(br.discards, 0u);
  // The gate is queue-pressured the whole run, yet the ladder never
  // reaches the high-utility class: shedding bulk relieves the queue
  // within one hold period.
  EXPECT_EQ(gr.discards, 0u) << "gold (utility 10) must ride through";

  // The report's counters and the chain metrics expose the same sink.
  EXPECT_EQ(r.sim->chain_metrics(r.bulk).admission_discards, br.discards);
  EXPECT_EQ(r.sim->chain_metrics(r.gold).admission_discards, 0u);

  // Trickle liveness: a shed class keeps a bounded trickle flowing (its
  // downstream cost estimate stays warm), it is not blackholed.
  EXPECT_GT(br.trickle_admits, 0u);
  EXPECT_GT(r.sim->chain_metrics(r.bulk).egress_packets, 0u);
}

TEST(OverloadAdmission, ReleasesWhenPressureClears) {
  // The overloaders stop at 0.2 s; gold keeps flowing, sails back under
  // its target, and by 0.7 s the gate ring has long drained below the
  // release watermark — the ladder must have fully de-escalated.
  OverloadRig r(nfvnice_config(), /*classes=*/true, /*stop_seconds=*/0.2);
  r.sim->run_for_seconds(0.7);
  const auto br = r.sim->chain_admission_report(r.bulk);
  EXPECT_GT(br.engagements, 0u);
  EXPECT_GE(br.releases, br.engagements) << "every shed must be lifted";
  EXPECT_FALSE(br.engaged);
  EXPECT_FALSE(r.sim->chain_admission_report(r.gold).engaged);
}

TEST(OverloadAdmission, ImprovesPriorityGoodputUnderOverload) {
  // The headline the bench pins, as a structural inequality: with classes
  // registered the gold chain retains at least as much goodput as under
  // plain backpressure, and the bulk shed shows up as admission discards.
  OverloadRig with(nfvnice_config(), /*classes=*/true);
  OverloadRig without(nfvnice_config(), /*classes=*/false);
  with.sim->run_for_seconds(0.3);
  without.sim->run_for_seconds(0.3);
  EXPECT_GE(with.sim->chain_metrics(with.gold).egress_packets,
            without.sim->chain_metrics(without.gold).egress_packets);
  EXPECT_EQ(without.sim->chain_metrics(without.bulk).admission_discards, 0u);
}

/// Single-core rig for the push-aside trajectory: everything on core0 so
/// the lane-0 Manager owns every NF at any shard setting (manager() is
/// the lane-0 replica when sharded). The high-priority NF demands more
/// than its rate-cost share (1.2 Mpps x 1200 cycles against the hog's
/// 3e9-cycle demand) and runs under BATCH — no wakeup preemption, so it
/// waits out the hog's timeslices and its short ring latches the high
/// watermark (the slo_test ContendedPair recipe); scaling the hog toward
/// the floor is what frees enough of the core to drain it.
struct PushRig {
  std::unique_ptr<Simulation> sim;
  flow::NfId gold_nf = 0;
  flow::NfId hog_nf = 0;

  explicit PushRig(double stop_seconds) {
    PlatformConfig cfg = nfvnice_config();
    cfg.manager.push_aside.enabled = true;
    sim = std::make_unique<Simulation>(cfg);
    const auto core0 = sim->add_core(SchedPolicy::kCfsBatch);
    NfOptions gold_opts;
    gold_opts.priority = 2.0;
    gold_opts.rx_capacity = 256;
    gold_nf =
        sim->add_nf("gold_nf", core0, nf::CostModel::fixed(1200), gold_opts);
    hog_nf = sim->add_nf("hog", core0, nf::CostModel::fixed(600));
    const auto gold = sim->add_chain("gold", {gold_nf});
    const auto hog = sim->add_chain("hog", {hog_nf});
    UdpOptions opts;
    opts.stop_seconds = stop_seconds;
    sim->add_udp_flow(gold, 1.2e6, opts);
    sim->add_udp_flow(hog, 5e6, opts);
  }
};

TEST(OverloadPushAside, GrabIsBoundedAndPrioritized) {
  PushRig r(/*stop_seconds=*/-1.0);
  r.sim->run_for_seconds(0.3);
  const auto& pam = *r.sim->manager().push_aside();
  const double floor = mgr::kPushVictimFloor;
  EXPECT_GT(pam.grabs(r.hog_nf), 0u)
      << "pressured high-priority neighbor must confiscate a slice";
  EXPECT_GE(pam.scale(r.hog_nf), floor) << "grab must respect floor";
  EXPECT_LT(pam.scale(r.hog_nf), 1.0);
  // The aggressor is never scaled: no higher-priority neighbor exists.
  EXPECT_DOUBLE_EQ(pam.scale(r.gold_nf), 1.0);
  EXPECT_EQ(pam.grabs(r.gold_nf), 0u);
}

TEST(OverloadPushAside, GiveBackSettlesToExactlyOne) {
  // Traffic stops at 0.2 s; the additive give-back (+0.25 per update after
  // the hold) must walk the victim back to *exactly* 1.0 — the bit-exact
  // rate-cost allocation — well before 1.0 s.
  PushRig r(/*stop_seconds=*/0.2);
  r.sim->run_for_seconds(1.0);
  const auto& pam = *r.sim->manager().push_aside();
  EXPECT_GT(pam.grabs(r.hog_nf), 0u);
  EXPECT_GT(pam.givebacks(r.hog_nf), 0u);
  EXPECT_DOUBLE_EQ(pam.scale(r.hog_nf), 1.0);
}

TEST(OverloadCompose, BoostPushAsideAndCrashRecoveryOnOneCore) {
  // Satellite contract: all three controllers plus the lifecycle watchdog
  // compose on one core. The hog crashes mid-overload and restarts; the
  // run must stay bounded (no control oscillation), end healthy, and
  // replay byte-identically.
  const auto once = [](bool with_report) {
    PlatformConfig cfg;
    cfg.set_nfvnice(true);
    cfg.manager.slo.enabled = true;
    cfg.manager.push_aside.enabled = true;
    Simulation sim(cfg);
    const auto core0 = sim.add_core(SchedPolicy::kCfsNormal);
    NfOptions gold_opts;
    gold_opts.priority = 2.0;
    gold_opts.rx_capacity = 256;
    const auto gold_nf =
        sim.add_nf("gold_nf", core0, nf::CostModel::fixed(1200), gold_opts);
    const auto hog_nf = sim.add_nf("hog", core0, nf::CostModel::fixed(600));
    const auto gold = sim.add_chain("gold", {gold_nf});
    const auto hog = sim.add_chain("hog", {hog_nf});
    sim.set_chain_slo(gold, 300.0);
    sim.set_chain_class(gold, /*priority=*/4.0, /*utility=*/10.0);
    sim.set_chain_class(hog, /*priority=*/1.0, /*utility=*/2.0);
    sim.add_udp_flow(gold, 0.5e6);
    sim.add_udp_flow(hog, 5e6);
    fault::FaultPlan plan;
    plan.add_crash(hog_nf, sim.clock().from_seconds(0.15),
                   sim.clock().from_seconds(0.02));
    sim.set_fault_plan(std::move(plan));
    sim.run_for_seconds(0.4);

    // Bounded trajectories everywhere: boost within the controller's cap,
    // victim scale within [floor, 1], ladder actions rate-limited by the
    // hold (0.4 s at one action per hold period of 5 evals = at most ~80).
    EXPECT_GE(sim.chain_slo_report(gold).boost, 1.0);
    EXPECT_LE(sim.chain_slo_report(gold).boost, mgr::kSloMaxBoost);
    const auto& pam = *sim.manager().push_aside();
    EXPECT_GE(pam.scale(hog_nf), mgr::kPushVictimFloor);
    EXPECT_LE(pam.scale(hog_nf), 1.0);
    const auto gr = sim.chain_admission_report(gold);
    const auto hr = sim.chain_admission_report(hog);
    EXPECT_LT(gr.engagements + gr.releases + hr.engagements + hr.releases,
              100u)
        << "shed ladder is flapping";
    // The watchdog recovered the hog and never misdiagnosed the victim
    // squeeze as a death.
    EXPECT_EQ(sim.nf_lifecycle(hog_nf), fault::NfLifecycle::kRunning);
    EXPECT_EQ(sim.nf_lifecycle_stats(hog_nf).forced_crashes, 0u);
    EXPECT_EQ(sim.nf_lifecycle_stats(gold_nf).crashes, 0u);
    return with_report ? sim.report_json() : std::string();
  };
  EXPECT_EQ(once(true), once(true));
}

TEST(OverloadSharded, ReportByteIdenticalAtAnyWorkerCount) {
  // Everything armed at once; sim_shards=1 and 4 must serialize the exact
  // same bytes (DESIGN.md §14 contract extended to §17 — the admission
  // gate runs on the home lane, the violation flag arrives by mirror).
  const auto run = [](std::uint32_t shards) {
    PlatformConfig cfg = nfvnice_config();
    cfg.manager.push_aside.enabled = true;
    cfg.sim_shards = shards;
    OverloadRig r(cfg, /*classes=*/true);
    r.sim->run_for_seconds(0.3);
    return r.sim->report_json();
  };
  const std::string one = run(1);
  EXPECT_EQ(one, run(4));
  // The merged report carries the new blocks, not empty replicas.
  EXPECT_NE(one.find("\"admission\""), std::string::npos);
  EXPECT_NE(one.find("\"pam\""), std::string::npos);
}

TEST(OverloadOff, NoClassesNoPushMeansNoNewReportBlocks) {
  // Zero-cost-when-off: a run without classes and with push-aside left
  // disabled must not emit a single admission/pam report block (the same
  // bytes a build without §17 would have written), and must replay
  // byte-identically.
  const auto run = [] {
    OverloadRig r(nfvnice_config(), /*classes=*/false);
    r.sim->run_for_seconds(0.2);
    return r.sim->report_json();
  };
  const std::string report = run();
  EXPECT_EQ(report.find("\"admission\""), std::string::npos);
  EXPECT_EQ(report.find("\"pam\""), std::string::npos);
  EXPECT_EQ(report.find("\"adm."), std::string::npos);
  EXPECT_EQ(report, run());
}

}  // namespace
}  // namespace nfv::core
