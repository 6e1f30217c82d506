// The Monitor's controllers, each driven on its own against a fake data
// plane: NF tasks on simulated cores fed by hand, no Simulation and no
// traffic sources. The lifecycle acts on a Manager's data plane, so its
// tests run a bare Manager with nothing but hand-crashed tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/time.hpp"
#include "flow/flow_table.hpp"
#include "flow/service_chain.hpp"
#include "mgr/lifecycle.hpp"
#include "mgr/manager.hpp"
#include "mgr/push_aside.hpp"
#include "mgr/share_allocator.hpp"
#include "mgr/slo_controller.hpp"
#include "nf/nf_task.hpp"
#include "obs/trace.hpp"
#include "pktio/mempool.hpp"
#include "sched/cfs.hpp"
#include "sched/core.hpp"
#include "sched/fifo.hpp"
#include "sim/engine.hpp"

namespace nfv::mgr {
namespace {

/// Cores, NF tasks and an mbuf pool: the data plane the controllers read.
class FakeDataPlane {
 public:
  std::size_t add_core(bool fifo = false) {
    std::unique_ptr<sched::Scheduler> sched;
    if (fifo) {
      sched = std::make_unique<sched::FifoScheduler>();
    } else {
      sched = std::make_unique<sched::CfsScheduler>(
          sched::SchedParams::defaults(CpuClock{}), /*batch=*/true);
    }
    cores.push_back(std::make_unique<sched::Core>(engine, std::move(sched)));
    return cores.size() - 1;
  }

  /// An NF whose every processed packet is a service-time sample.
  nf::NfTask& add_nf(std::size_t core, Cycles cost, double priority = 1.0,
                     std::uint32_t rx_capacity = 64) {
    nf::NfTask::Config cfg;
    cfg.name = "nf" + std::to_string(tasks.size());
    cfg.cost = nf::CostModel::fixed(cost);
    cfg.priority = priority;
    cfg.rx_capacity = rx_capacity;
    cfg.sample_interval = 1;
    cfg.warmup_samples = 0;
    tasks.push_back(std::make_unique<nf::NfTask>(engine, cfg));
    nf::NfTask& task = *tasks.back();
    task.set_packet_release([this](pktio::Mbuf* m) { pool.free(m); });
    task_core.push_back(cores[core].get());
    return task;
  }

  /// Queue `n` packets on the NF's RX ring without waking it.
  void fill(nf::NfTask& task, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      pktio::Mbuf* m = pool.alloc();
      ASSERT_NE(m, nullptr);
      m->enqueue_time = engine.now();
      ASSERT_NE(task.rx_ring().enqueue(m), pktio::EnqueueResult::kFull);
    }
  }

  void drain(nf::NfTask& task) {
    while (pktio::Mbuf* m = task.rx_ring().dequeue()) pool.free(m);
  }

  sim::Engine engine;
  pktio::MbufPool pool{1 << 16};
  std::vector<std::unique_ptr<sched::Core>> cores;
  std::vector<std::unique_ptr<nf::NfTask>> tasks;
  std::vector<sched::Core*> task_core;
};

// -- share allocator ---------------------------------------------------------

/// Runs every NF through `packets` packets so each holds an exact
/// service-time estimate (fixed costs), then registers them.
struct AllocatorRig {
  explicit AllocatorRig(const std::vector<std::pair<Cycles, double>>& nfs,
                        int packets = 8) {
    const std::size_t core = dp.add_core();
    for (const auto& [cost, priority] : nfs) {
      nf::NfTask& task = dp.add_nf(core, cost, priority);
      dp.cores[core]->add_task(&task);
    }
    for (flow::NfId id = 0; id < dp.tasks.size(); ++id) {
      if (packets > 0) {
        dp.fill(*dp.tasks[id], static_cast<std::size_t>(packets));
        dp.cores[core]->wake(dp.tasks[id].get());
      }
      alloc.add_nf(id, dp.tasks[id].get(), dp.task_core[id]);
    }
    dp.engine.run_until(kMonitorPeriod);
  }

  /// One monitor tick in which NF i was offered `offered[i]` more packets.
  void tick(const std::vector<std::uint64_t>& offered) {
    now += kMonitorPeriod;
    for (flow::NfId id = 0; id < offered.size(); ++id) {
      total[id] += offered[id];
      alloc.estimate(id, total[id], now);
    }
  }

  FakeDataPlane dp;
  ShareAllocator alloc{nullptr};
  Cycles now = kMonitorPeriod;
  std::vector<std::uint64_t> total = std::vector<std::uint64_t>(8, 0);
};

std::uint32_t weight(const FakeDataPlane& dp, flow::NfId id) {
  return dp.tasks[id]->weight();
}

/// The allocator's rule, written out: max(50, round(w_i / Σw · 10240)).
std::uint32_t expected_shares(const std::vector<double>& weights,
                              std::size_t i) {
  double total = 0.0;
  for (const double w : weights) total += w;
  return static_cast<std::uint32_t>(
      std::max(50.0, std::round(weights[i] / total * 10240.0)));
}

TEST(ShareAllocator, SharesAreProportionalToPriorityTimesLoadWithAFloor) {
  // (cost, priority): loads 1000λ, 2000λ and 10λ; priorities 1, 2, 1.
  AllocatorRig rig({{1000, 1.0}, {2000, 2.0}, {10, 1.0}});
  rig.tick({2600, 2600, 2600});
  rig.alloc.update_shares(rig.now, nullptr, nullptr);
  const double lambda = 2600.0 / static_cast<double>(kMonitorPeriod);
  const std::vector<double> w = {1.0 * lambda * 1000, 2.0 * lambda * 2000,
                                 1.0 * lambda * 10};
  EXPECT_EQ(weight(rig.dp, 0), expected_shares(w, 0));
  EXPECT_EQ(weight(rig.dp, 1), expected_shares(w, 1));
  EXPECT_EQ(weight(rig.dp, 2), kShareFloor) << "the tiny load gets the floor";
  EXPECT_GT(expected_shares(w, 1), 3 * expected_shares(w, 0));
  EXPECT_DOUBLE_EQ(rig.alloc.load(0), lambda * 1000);
}

TEST(ShareAllocator, BoostAndScaleMultiplyTheWeight) {
  AllocatorRig rig({{1000, 1.0}, {1000, 2.0}});
  // Chain 0 runs through NF 0 and violates its target: boost 2.
  flow::ChainRegistry chains;
  chains.add("c", {0});
  SloController slo(chains, nullptr, /*boosting=*/true);
  slo.set_target(0, 100, /*tail_local=*/false);
  slo.mirror({.kind = ShardMsg::Kind::kChainTail, .nf = 0, .tail_p99 = 200});
  slo.update(rig.now);
  ASSERT_EQ(slo.boost_of(0), 2.0);
  // NF 1 (priority 2) is pressured on the core: NF 0's scale halves.
  PushAside push(nullptr);
  push.add_nf(0, rig.dp.tasks[0].get(), rig.dp.task_core[0]);
  push.add_nf(1, rig.dp.tasks[1].get(), rig.dp.task_core[1]);
  rig.dp.fill(*rig.dp.tasks[1], 60);
  push.latch(nullptr);
  push.update(rig.now, nullptr);
  ASSERT_EQ(push.scale(0), 0.5);

  rig.tick({2600, 2600});
  rig.alloc.update_shares(rig.now, &slo, &push);
  const double load = 2600.0 / static_cast<double>(kMonitorPeriod) * 1000;
  const std::vector<double> w = {1.0 * 2.0 * 0.5 * load, 2.0 * load};
  EXPECT_EQ(weight(rig.dp, 0), expected_shares(w, 0));
  EXPECT_EQ(weight(rig.dp, 1), expected_shares(w, 1));
}

TEST(ShareAllocator, DownNfsKeepTheirWrittenShares) {
  AllocatorRig rig({{1000, 1.0}, {1000, 1.0}});
  rig.alloc.set_down(1, /*down=*/true, /*cgroups=*/true);
  EXPECT_EQ(weight(rig.dp, 1), sched::CGroupController::kMinShares);
  for (int update = 0; update < 3; ++update) {
    rig.tick({2600, 2600});
    rig.alloc.update_shares(rig.now, nullptr, nullptr);
    rig.alloc.reset_window();
    EXPECT_EQ(weight(rig.dp, 1), sched::CGroupController::kMinShares);
    EXPECT_EQ(rig.alloc.load(1), 0.0);
  }
  // The live NF carries the whole core: the dead one's load counts zero.
  EXPECT_EQ(weight(rig.dp, 0), 10240u);
  rig.alloc.set_down(1, /*down=*/false, /*cgroups=*/true);
  EXPECT_EQ(weight(rig.dp, 1), sched::kDefaultWeight);
}

TEST(ShareAllocator, OfferedLoadWithoutAnEstimateKeepsItsWeight) {
  // NF 1 never ran, so it has no service-time sample yet.
  AllocatorRig rig({{1000, 1.0}, {1000, 1.0}}, /*packets=*/0);
  rig.dp.fill(*rig.dp.tasks[0], 8);
  rig.dp.cores[0]->wake(rig.dp.tasks[0].get());
  rig.dp.engine.run_until(2 * kMonitorPeriod);
  rig.tick({2600, 2600});
  rig.alloc.update_shares(rig.now, nullptr, nullptr);
  EXPECT_EQ(weight(rig.dp, 1), sched::kDefaultWeight);
  EXPECT_EQ(weight(rig.dp, 0), 10240u);
}

// -- SLO controller ----------------------------------------------------------

/// `n` single-hop chains over NFs 0..n-1, each with target 100 cycles.
struct SloRig {
  explicit SloRig(flow::ChainId n) : slo(chains, nullptr, true) {
    for (flow::ChainId c = 0; c < n; ++c) {
      chains.add("c" + std::to_string(c), {c});
      slo.set_target(c, 100, /*tail_local=*/true);
    }
  }
  void p99(flow::ChainId chain, Cycles value) {
    slo.mirror({.kind = ShardMsg::Kind::kChainTail,
                .nf = chain,
                .tail_p99 = static_cast<std::uint64_t>(value)});
  }
  double boost(flow::ChainId chain) const { return slo.state(chain).boost; }

  flow::ChainRegistry chains;
  SloController slo;
};

TEST(SloController, BoostsAtMostTwoChainsWorstSlackFirst) {
  SloRig rig(4);
  rig.p99(0, 150);  // slack -50
  rig.p99(1, 400);  // slack -300
  rig.p99(2, 300);  // slack -200
  rig.p99(3, 120);  // slack -20
  rig.slo.update(0);
  EXPECT_EQ(rig.boost(0), 1.0);
  EXPECT_EQ(rig.boost(1), 2.0);
  EXPECT_EQ(rig.boost(2), 2.0);
  EXPECT_EQ(rig.boost(3), 1.0);
  EXPECT_EQ(rig.slo.boost_of(1), 2.0);
  EXPECT_EQ(rig.slo.boost_of(3), 1.0);
}

TEST(SloController, EqualSlackBoostsTheLowerChainIds) {
  SloRig rig(3);
  for (flow::ChainId c = 0; c < 3; ++c) rig.p99(c, 200);
  rig.slo.update(0);
  EXPECT_EQ(rig.boost(0), 2.0);
  EXPECT_EQ(rig.boost(1), 2.0);
  EXPECT_EQ(rig.boost(2), 1.0);
}

TEST(SloController, BoostIsCappedThenDecaysAfterThreeClearUpdatesToOne) {
  SloRig rig(1);
  rig.p99(0, 200);
  for (int i = 0; i < 8; ++i) rig.slo.update(0);
  EXPECT_EQ(rig.boost(0), kSloMaxBoost);
  rig.p99(0, 50);  // under headroom (0.8) x target
  double last = kSloMaxBoost;
  int clear_updates = 0;
  while (rig.boost(0) > 1.0) {
    rig.slo.update(0);
    ++clear_updates;
    if (clear_updates % 3 != 0) {
      EXPECT_EQ(rig.boost(0), last) << "decayed before 3 clear updates";
    } else {
      EXPECT_EQ(rig.boost(0), last / 2);
    }
    last = rig.boost(0);
    ASSERT_LT(clear_updates, 100);
  }
  EXPECT_EQ(clear_updates, 18);  // 64 -> 1 in six halvings
  EXPECT_EQ(rig.boost(0), 1.0);  // exactly: the term is then neutral
}

TEST(SloController, AViolationResetsTheClearStreak) {
  SloRig rig(1);
  rig.p99(0, 200);
  rig.slo.update(0);
  rig.p99(0, 50);
  rig.slo.update(0);
  rig.slo.update(0);
  rig.p99(0, 200);  // violating again: boost, streak back to 0
  rig.slo.update(0);
  rig.p99(0, 50);
  rig.slo.update(0);
  rig.slo.update(0);
  EXPECT_EQ(rig.boost(0), 4.0);
  rig.slo.update(0);
  EXPECT_EQ(rig.boost(0), 2.0);
}

TEST(SloController, ObserveRunsTheViolationClockOnTheTailLaneOnly) {
  SloRig rig(2);
  rig.slo.set_target(1, 100, /*tail_local=*/false);
  std::vector<obs::LatencyEstimator> tails(2);
  for (int i = 0; i < 64; ++i) {
    tails[0].record(500);
    tails[1].record(500);
  }
  const auto mirror = rig.slo.observe(0, tails, nullptr, /*sharded=*/true);
  EXPECT_TRUE(rig.slo.state(0).violating);
  EXPECT_EQ(rig.slo.state(0).violation_cycles, kMonitorPeriod);
  EXPECT_FALSE(rig.slo.state(1).violating);
  EXPECT_EQ(rig.slo.state(1).violation_cycles, 0);
  // Boosting and sharded: the tail lane mirrors its chain's p99.
  ASSERT_EQ(mirror.size(), 1u);
  EXPECT_EQ(mirror[0].kind, ShardMsg::Kind::kChainTail);
  EXPECT_EQ(mirror[0].tail_p99, 500u);
}

// -- push-aside ----------------------------------------------------------------

/// Core 0: `hi` (priority 2) and `lo` (priority 1); core 1: `other`
/// (priority 1). Rings of 64: 60 queued packets is over the watermark.
struct PushRig {
  PushRig() {
    dp.add_core();
    dp.add_core();
    dp.add_nf(0, 100, 2.0);
    dp.add_nf(0, 100, 1.0);
    dp.add_nf(1, 100, 1.0);
    for (flow::NfId id = 0; id < 3; ++id) {
      push.add_nf(id, dp.tasks[id].get(), dp.task_core[id]);
    }
  }
  void update() {
    push.latch(nullptr);
    push.update(0, nullptr);
  }
  static constexpr flow::NfId kHi = 0;
  static constexpr flow::NfId kLo = 1;
  static constexpr flow::NfId kOther = 2;
  FakeDataPlane dp;
  PushAside push{nullptr};
};

TEST(PushAside, OnlyAPressuredHigherPriorityCoreNeighborGrabs) {
  PushRig rig;
  rig.dp.fill(*rig.dp.tasks[PushRig::kLo], 60);  // low-priority pressure
  rig.update();
  EXPECT_EQ(rig.push.scale(PushRig::kHi), 1.0);
  EXPECT_EQ(rig.push.grabs(PushRig::kHi), 0u);
  rig.dp.drain(*rig.dp.tasks[PushRig::kLo]);
  rig.dp.fill(*rig.dp.tasks[PushRig::kHi], 60);
  rig.update();
  EXPECT_EQ(rig.push.scale(PushRig::kLo), 0.5);
  EXPECT_EQ(rig.push.grabs(PushRig::kLo), 1u);
  EXPECT_EQ(rig.push.scale(PushRig::kOther), 1.0) << "another core";
  EXPECT_EQ(rig.push.scale(PushRig::kHi), 1.0);
  EXPECT_EQ(rig.push.scale(7), 1.0) << "not a local NF";
}

TEST(PushAside, AnOverloadedNfIsNeverAVictim) {
  PushRig rig;
  rig.dp.fill(*rig.dp.tasks[PushRig::kHi], 60);
  rig.dp.fill(*rig.dp.tasks[PushRig::kLo], 60);
  rig.update();
  EXPECT_EQ(rig.push.scale(PushRig::kLo), 1.0);
  EXPECT_EQ(rig.push.grabs(PushRig::kLo), 0u);
}

TEST(PushAside, PressureLatchedBetweenUpdatesStillGrabs) {
  PushRig rig;
  rig.dp.fill(*rig.dp.tasks[PushRig::kHi], 60);
  rig.push.latch(nullptr);  // a monitor tick sees the pressure...
  rig.dp.drain(*rig.dp.tasks[PushRig::kHi]);  // ...which is gone by the update
  rig.push.update(0, nullptr);
  EXPECT_EQ(rig.push.scale(PushRig::kLo), 0.5);
}

TEST(PushAside, GrabsHalveToTheFloorThenHoldAndGiveBackToExactlyOne) {
  PushRig rig;
  rig.dp.fill(*rig.dp.tasks[PushRig::kHi], 60);
  const std::vector<double> grabbed = {0.5, 0.25, kPushVictimFloor,
                                       kPushVictimFloor};
  for (const double scale : grabbed) {
    rig.update();
    EXPECT_EQ(rig.push.scale(PushRig::kLo), scale);
  }
  EXPECT_EQ(rig.push.grabs(PushRig::kLo), 3u) << "no grab below the floor";
  rig.dp.drain(*rig.dp.tasks[PushRig::kHi]);
  const std::vector<double> given_back = {0.125, 0.125, 0.375, 0.625, 0.875,
                                          1.0, 1.0};
  for (const double scale : given_back) {
    rig.update();
    EXPECT_EQ(rig.push.scale(PushRig::kLo), scale);
  }
  EXPECT_EQ(rig.push.givebacks(PushRig::kLo), 4u);
}

// -- lifecycle -----------------------------------------------------------------

/// A bare Manager over a fake data plane: NFs of the given costs on one
/// core, each on a chain of its own, the lifecycle armed at start(), no
/// traffic but what a test queues by hand.
struct LifecycleRig {
  explicit LifecycleRig(std::vector<Cycles> costs, bool fifo = false) {
    const std::size_t core = dp.add_core(fifo);
    for (const Cycles cost : costs) {
      dp.add_nf(core, cost, 1.0, /*rx_capacity=*/1024);
      const auto id = static_cast<flow::NfId>(dp.tasks.size() - 1);
      mgr.register_nf(id, dp.tasks[id].get(), dp.task_core[id]);
      chains.add("c" + std::to_string(id), {id});
    }
    mgr.start(&policies);
    obs.attach_trace(&trace);
  }
  Lifecycle& life() { return *mgr.lifecycle(); }
  void run_scans(int n) {
    dp.engine.run_until(dp.engine.now() + n * fault::kWatchdogPeriod);
  }
  /// Engine time of the `n`-th lifecycle trace edge into state `to`.
  Cycles edge(const char* to, int n = 1) const {
    for (const auto& ev : trace.events()) {
      const auto d = trace.decode(ev);
      if (d.name == "nf_lifecycle" && d.args.at(2).second == to && --n == 0) {
        return d.ts;
      }
    }
    return -1;
  }

  FakeDataPlane dp;
  flow::FlowTable flows;
  flow::ChainRegistry chains;
  std::vector<fault::DeadNfPolicy> policies;
  obs::TraceRecorder trace;
  obs::Observability obs;
  Manager mgr{dp.engine, dp.pool, flows, chains, {}, &obs};
};

TEST(Lifecycle, ADeathIsSeenWithinOneWatchdogScan) {
  LifecycleRig rig({1000});
  rig.dp.engine.run_until(fault::kWatchdogPeriod + 1000);
  rig.life().inject_crash(0, fault::kDefaultRestart);
  EXPECT_EQ(rig.life().state(0), fault::NfLifecycle::kRunning);
  rig.run_scans(1);
  EXPECT_EQ(rig.life().state(0), fault::NfLifecycle::kDead);
  EXPECT_EQ(rig.life().stats(0).crashes, 1u);
  EXPECT_LE(rig.life().stats(0).last_detect_latency, fault::kWatchdogPeriod);
  EXPECT_EQ(rig.life().stats(0).forced_crashes, 0u);
}

TEST(Lifecycle, AStuckNfIsKilledAfterThreeSuspectScans) {
  LifecycleRig rig({1000});
  rig.dp.engine.run_until(fault::kWatchdogPeriod + 1000);
  rig.life().inject_stall(0, fault::kDefaultRestart);  // spins on the CPU
  rig.run_scans(fault::kStuckScans - 1);
  EXPECT_EQ(rig.life().state(0), fault::NfLifecycle::kRunning);
  rig.run_scans(1);
  EXPECT_EQ(rig.life().state(0), fault::NfLifecycle::kDead);
  EXPECT_EQ(rig.life().stats(0).forced_crashes, 1u);
  EXPECT_EQ(rig.edge("DEAD") % fault::kWatchdogPeriod, 0);
  EXPECT_EQ(rig.edge("DEAD") / fault::kWatchdogPeriod,
            1 + static_cast<Cycles>(fault::kStuckScans));
}

TEST(Lifecycle, AStarvedHealthyNfIsNeverASuspect) {
  // FIFO core: the first NF runs its 1000-packet backlog to completion
  // (6M cycles, a 32-packet burst per 192k: progress at every scan) while
  // the second waits with work and no CPU.
  LifecycleRig rig({6000, 1000}, /*fifo=*/true);
  rig.dp.fill(*rig.dp.tasks[0], 1000);
  rig.dp.fill(*rig.dp.tasks[1], 8);
  rig.dp.cores[0]->wake(rig.dp.tasks[0].get());
  rig.dp.cores[0]->wake(rig.dp.tasks[1].get());
  rig.run_scans(20);
  EXPECT_EQ(rig.dp.tasks[1]->counters().processed, 0u) << "not starved";
  EXPECT_EQ(rig.life().state(0), fault::NfLifecycle::kRunning);
  EXPECT_EQ(rig.life().state(1), fault::NfLifecycle::kRunning);
  EXPECT_EQ(rig.life().stats(1).crashes, 0u);
}

TEST(Lifecycle, ARecrashWhileWarmingFoldsTheFirstOutageIn) {
  LifecycleRig rig({1000});
  rig.dp.engine.run_until(1000);
  rig.life().inject_crash(0, fault::kWatchdogPeriod);
  // DEAD at the first scan, the restart a scan later, then a 0.5 ms
  // reload: WARMING from 1.82M cycles for 1 ms.
  rig.dp.engine.run_until(3'000'000);
  ASSERT_EQ(rig.life().state(0), fault::NfLifecycle::kWarming);
  rig.life().inject_crash(0, fault::kWatchdogPeriod);
  rig.run_scans(40);
  ASSERT_EQ(rig.life().state(0), fault::NfLifecycle::kRunning);
  const auto& stats = rig.life().stats(0);
  EXPECT_EQ(stats.crashes, 2u);
  EXPECT_EQ(stats.recoveries, 1u);
  // Downtime runs from the first detection, not the second.
  EXPECT_EQ(stats.downtime_cycles, rig.edge("RUNNING") - rig.edge("DEAD", 1));
  EXPECT_GT(rig.edge("DEAD", 2), rig.edge("DEAD", 1));
}

}  // namespace
}  // namespace nfv::mgr
