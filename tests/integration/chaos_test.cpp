// Chaos smoke harness for the storage fault domain (DESIGN.md §12).
//
// A fixed-seed RNG generates randomized — but fully reproducible — device
// fault schedules (kind, instant, duration, degraded-mode policy) against
// the Fig. 14 logging scenario, and every schedule must uphold the
// domain's invariants:
//   * packet conservation: nothing lost, duplicated or leaked;
//   * drain-to-zero: once traffic stops and every fault window closes,
//     queues and the mbuf pool empty out;
//   * byte-determinism: the same schedule replays to an identical report;
//   * no watchdog misdiagnosis: only on_io_fail = stuck may force-kill.
// CI runs this binary standalone under AddressSanitizer, so leaks or
// lifetime bugs on the retry/cancel paths fail loudly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/simulation.hpp"
#include "fault/fault_plan.hpp"

namespace nfv::core {
namespace {

struct FaultWindow {
  fault::DeviceFaultKind kind = fault::DeviceFaultKind::kSlow;
  double at_s = 0.0;
  double for_s = 0.0;
  double factor = 1.0;  ///< slow: latency scale; torn: landed fraction.
};

struct ChaosSchedule {
  std::vector<FaultWindow> windows;
  io::AsyncIoEngine::OnIoFail policy = io::AsyncIoEngine::OnIoFail::kBlock;
};

/// Draw a schedule of 1-3 non-overlapping windows in [5 ms, 55 ms]. All
/// windows are bounded and end by 55 ms, so a 150 ms run always has room
/// to recover and drain. Slow factors stay below the point where a scaled
/// flush would exceed the 1 ms deadline (that regime is the wedge's job).
ChaosSchedule draw_schedule(nfv::Rng& rng) {
  ChaosSchedule s;
  const int policy = static_cast<int>(rng.next_below(3));
  s.policy = policy == 0   ? io::AsyncIoEngine::OnIoFail::kBlock
             : policy == 1 ? io::AsyncIoEngine::OnIoFail::kShed
                           : io::AsyncIoEngine::OnIoFail::kStuck;
  const int count = 1 + static_cast<int>(rng.next_below(3));
  double cursor = 0.005;
  for (int i = 0; i < count && cursor < 0.045; ++i) {
    FaultWindow w;
    w.at_s = cursor + rng.next_double() * 0.004;
    w.for_s = 0.001 + rng.next_double() * 0.009;
    if (w.at_s + w.for_s > 0.055) w.for_s = 0.055 - w.at_s;
    switch (rng.next_below(4)) {
      case 0:
        w.kind = fault::DeviceFaultKind::kSlow;
        w.factor = 1.5 + rng.next_double() * 5.0;
        break;
      case 1:
        w.kind = fault::DeviceFaultKind::kError;
        break;
      case 2:
        w.kind = fault::DeviceFaultKind::kTorn;
        w.factor = 0.1 + rng.next_double() * 0.8;
        break;
      default:
        w.kind = fault::DeviceFaultKind::kWedge;
        break;
    }
    s.windows.push_back(w);
    cursor = w.at_s + w.for_s + 0.002;  // >= 2 ms gap: never overlaps
  }
  return s;
}

struct ChaosRun {
  std::unique_ptr<Simulation> sim;
  flow::NfId logger = 0;
  flow::NfId fwd = 0;
  flow::ChainId chain1 = 0;
  flow::ChainId chain2 = 0;
  io::AsyncIoEngine* io = nullptr;
};

ChaosRun build(const ChaosSchedule& schedule) {
  ChaosRun r;
  r.sim = std::make_unique<Simulation>();
  const auto core_id = r.sim->add_core(SchedPolicy::kCfsBatch);
  r.logger = r.sim->add_nf("logger", core_id, nf::CostModel::fixed(300));
  r.fwd = r.sim->add_nf("fwd", core_id, nf::CostModel::fixed(150));
  r.chain1 = r.sim->add_chain("logged", {r.logger, r.fwd});
  r.chain2 = r.sim->add_chain("plain", {r.logger, r.fwd});

  io::AsyncIoEngine::Config io_cfg;
  io_cfg.buffer_bytes = 256 * 1024;
  r.io = &r.sim->attach_io(r.logger, io_cfg);
  r.io->set_timeout(2'600'000);  // 1 ms deadline
  r.io->set_retry(4, 26'000, 2.0, 0.1);
  r.io->set_on_fail(schedule.policy);

  auto* io_engine = r.io;
  const auto chain1 = r.chain1;
  r.sim->nf(r.logger).set_handler([io_engine, chain1](pktio::Mbuf& pkt) {
    if (pkt.chain_id == chain1) io_engine->write(pkt.size_bytes);
    return nf::NfAction::kForward;
  });

  UdpOptions opts;
  opts.stop_seconds = 0.07;
  r.sim->add_udp_flow(r.chain1, 2e6, opts);
  r.sim->add_udp_flow(r.chain2, 2e6, opts);

  fault::FaultPlan plan;
  for (const FaultWindow& w : schedule.windows) {
    const Cycles at = r.sim->clock().from_seconds(w.at_s);
    const Cycles dur = r.sim->clock().from_seconds(w.for_s);
    switch (w.kind) {
      case fault::DeviceFaultKind::kSlow:
        plan.add_device_slow(at, w.factor, dur);
        break;
      case fault::DeviceFaultKind::kError:
        plan.add_device_error(at, dur);
        break;
      case fault::DeviceFaultKind::kTorn:
        plan.add_device_torn(at, w.factor, dur);
        break;
      case fault::DeviceFaultKind::kWedge:
        plan.add_device_wedge(at, dur);
        break;
    }
  }
  r.sim->set_fault_plan(std::move(plan));
  return r;
}

void check_invariants(ChaosRun& r, io::AsyncIoEngine::OnIoFail policy,
                      const std::string& label) {
  SCOPED_TRACE(label);
  Simulation& sim = *r.sim;

  // Conservation: wire arrivals split exactly into admitted + entry drops;
  // admitted packets are egressed, dropped at a ring, lost to a (forced)
  // crash, or still queued or held in an NF's in-flight burst — exactly.
  const std::uint64_t wire = sim.manager().wire_ingress();
  std::uint64_t admitted = 0, entry_drops = 0, egress = 0;
  for (const auto chain : {r.chain1, r.chain2}) {
    const auto cm = sim.chain_metrics(chain);
    admitted += cm.entry_admitted;
    entry_drops += cm.entry_throttle_drops;
    egress += cm.egress_packets;
  }
  std::uint64_t ring_drops = 0, crash_drops = 0, in_queues = 0;
  for (const auto nf : {r.logger, r.fwd}) {
    const auto m = sim.nf_metrics(nf);
    ring_drops += m.rx_full_drops;
    crash_drops += m.crash_drops;
    in_queues += sim.nf(nf).rx_ring().size() + sim.nf(nf).tx_ring().size() +
                 sim.nf(nf).in_flight_packets();
  }
  EXPECT_EQ(wire, admitted + entry_drops);
  EXPECT_EQ(admitted, egress + ring_drops + crash_drops + in_queues);
  EXPECT_EQ(sim.mbufs_in_use(), in_queues);

  // Drain-to-zero: traffic stopped at 70 ms and every window closed by
  // 55 ms, so by 150 ms the pipeline must be empty and healthy.
  EXPECT_EQ(sim.nf_metrics(r.logger).rx_queue_len, 0u);
  EXPECT_EQ(sim.nf_metrics(r.fwd).rx_queue_len, 0u);
  EXPECT_EQ(sim.pool().in_use(), 0u);
  EXPECT_FALSE(r.io->would_block());
  EXPECT_FALSE(r.io->degraded());
  EXPECT_EQ(r.io->live_requests(), 0u);
  EXPECT_EQ(sim.disk().inflight_requests(), 0u);
  EXPECT_FALSE(sim.disk().wedged());

  // Watchdog honesty: only the stuck policy may escalate to a force-kill.
  const auto& ls = sim.nf_lifecycle_stats(r.logger);
  if (policy != io::AsyncIoEngine::OnIoFail::kStuck) {
    EXPECT_EQ(ls.forced_crashes, 0u);
    EXPECT_EQ(ls.crashes, 0u);
  }
  EXPECT_EQ(sim.nf_lifecycle_stats(r.fwd).forced_crashes, 0u);
}

// Overload + fault composition (DESIGN.md §17): the ingress admission
// gate is engaged — actively shedding the bulk class — when the shared
// classifier NF crashes and restarts. The shed must not corrupt the
// accounting through DEAD/RESTARTING (its discards are a distinct sink
// next to entry-throttle and crash drops), everything must drain to zero
// once traffic stops, and the watchdog must not misread the overload or
// the victim squeeze as a death (only the injected crash counts).
TEST(ChaosOverload, AdmissionEngagedThroughCrashAndRestart) {
  const auto once = [] {
    PlatformConfig cfg;
    cfg.set_nfvnice(true);
    cfg.manager.push_aside.enabled = true;
    auto sim = std::make_unique<Simulation>(cfg);
    const auto c0 = sim->add_core(SchedPolicy::kCfsBatch);
    const auto c1 = sim->add_core(SchedPolicy::kCfsBatch);
    const auto gate = sim->add_nf("gate", c0, nf::CostModel::fixed(600));
    const auto gold_nf = sim->add_nf("gold_nf", c1, nf::CostModel::fixed(150));
    const auto bulk_nf = sim->add_nf("bulk_nf", c1, nf::CostModel::fixed(50));
    const auto gold = sim->add_chain("gold", {gate, gold_nf});
    const auto bulk = sim->add_chain("bulk", {gate, bulk_nf});
    sim->set_chain_class(gold, /*priority=*/4.0, /*utility=*/10.0);
    sim->set_chain_class(bulk, /*priority=*/1.0, /*utility=*/2.0);
    sim->set_chain_slo(gold, 300.0);  // violation clock = engage trigger
    sim->add_udp_flow(gold, 0.5e6, {.stop_seconds = 0.25});
    sim->add_udp_flow(bulk, 8e6, {.stop_seconds = 0.25});
    fault::FaultPlan plan;
    plan.add_crash(gate, sim->clock().from_seconds(0.1),
                   sim->clock().from_seconds(0.02));
    sim->set_fault_plan(std::move(plan));
    sim->run_for_seconds(0.6);

    // Conservation across all three ingress sinks plus the crash loss.
    const std::uint64_t wire = sim->manager().wire_ingress();
    std::uint64_t admitted = 0, entry_drops = 0, adm_discards = 0, egress = 0;
    for (const auto chain : {gold, bulk}) {
      const auto cm = sim->chain_metrics(chain);
      admitted += cm.entry_admitted;
      entry_drops += cm.entry_throttle_drops;
      adm_discards += cm.admission_discards;
      egress += cm.egress_packets;
    }
    std::uint64_t ring_drops = 0, crash_drops = 0, in_queues = 0;
    for (const auto nf : {gate, gold_nf, bulk_nf}) {
      const auto m = sim->nf_metrics(nf);
      ring_drops += m.rx_full_drops;
      crash_drops += m.crash_drops;
      in_queues += sim->nf(nf).rx_ring().size() +
                   sim->nf(nf).tx_ring().size() +
                   sim->nf(nf).in_flight_packets();
    }
    EXPECT_GT(adm_discards, 0u) << "gate never engaged during the fault run";
    EXPECT_EQ(wire, admitted + entry_drops + adm_discards);
    EXPECT_EQ(admitted, egress + ring_drops + crash_drops);

    // Drain-to-zero: traffic stopped at 0.25 s, restart completed long
    // before 0.6 s.
    EXPECT_EQ(in_queues, 0u);
    EXPECT_EQ(sim->pool().in_use(), 0u);
    EXPECT_EQ(sim->nf_lifecycle(gate), fault::NfLifecycle::kRunning);

    // Watchdog honesty: exactly the injected crash, no force-kills — an
    // overloaded (or push-aside-squeezed) NF is slow, not dead.
    for (const auto nf : {gate, gold_nf, bulk_nf}) {
      EXPECT_EQ(sim->nf_lifecycle_stats(nf).forced_crashes, 0u);
    }
    EXPECT_EQ(sim->nf_lifecycle_stats(gate).crashes, 1u);
    EXPECT_EQ(sim->nf_lifecycle_stats(gold_nf).crashes, 0u);
    EXPECT_EQ(sim->nf_lifecycle_stats(bulk_nf).crashes, 0u);
    return sim->report_json();
  };
  // Byte-determinism: the same overload+fault schedule replays identically.
  EXPECT_EQ(once(), once());
}

TEST(ChaosSmoke, RandomizedDeviceFaultSchedules) {
  nfv::Rng rng(0xC4A05C4A05ULL);  // fixed seed: the suite is reproducible
  for (int round = 0; round < 4; ++round) {
    const ChaosSchedule schedule = draw_schedule(rng);
    std::string label = "round " + std::to_string(round) + " policy=" +
                        io::to_string(schedule.policy) + " windows=";
    for (const FaultWindow& w : schedule.windows) {
      label += std::string(fault::to_string(w.kind)) + "@" +
               std::to_string(w.at_s) + "+" + std::to_string(w.for_s) + " ";
    }

    ChaosRun r1 = build(schedule);
    r1.sim->run_for_seconds(0.15);
    check_invariants(r1, schedule.policy, label);

    // Byte-determinism: an identical rebuild replays identically.
    ChaosRun r2 = build(schedule);
    r2.sim->run_for_seconds(0.15);
    EXPECT_EQ(r1.sim->report_json(), r2.sim->report_json()) << label;
  }
}

}  // namespace
}  // namespace nfv::core
