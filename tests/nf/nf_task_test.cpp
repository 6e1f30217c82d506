#include "nf/nf_task.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/time.hpp"
#include "pktio/mempool.hpp"
#include "sched/cfs.hpp"
#include "sched/core.hpp"
#include "sched/rr.hpp"
#include "sim/engine.hpp"

namespace nfv::nf {
namespace {

// Harness wiring an NfTask to a core without the full NF Manager.
class NfTaskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto params = sched::SchedParams::defaults(CpuClock{});
    sched::CoreConfig cfg;
    cfg.context_switch_cost = 0;
    core_ = std::make_unique<sched::Core>(
        engine_, std::make_unique<sched::CfsScheduler>(params, true), cfg,
        "test");
  }

  NfTask& make_nf(NfTask::Config config) {
    nfs_.push_back(std::make_unique<NfTask>(engine_, config));
    NfTask& nf = *nfs_.back();
    core_->add_task(&nf);
    nf.set_packet_release([this](pktio::Mbuf* m) { pool_.free(m); });
    return nf;
  }

  /// Fill `n` packets into the NF's RX ring.
  void feed(NfTask& nf, int n) {
    for (int i = 0; i < n; ++i) {
      pktio::Mbuf* m = pool_.alloc();
      ASSERT_NE(m, nullptr);
      m->enqueue_time = engine_.now();
      ASSERT_NE(nf.rx_ring().enqueue(m), pktio::EnqueueResult::kFull);
      nf.note_arrival();
    }
  }

  /// Drain and free everything in the NF's TX ring; returns count.
  std::size_t drain_tx(NfTask& nf) {
    std::size_t n = 0;
    while (pktio::Mbuf* m = nf.tx_ring().dequeue()) {
      pool_.free(m);
      ++n;
    }
    return n;
  }

  sim::Engine engine_;
  pktio::MbufPool pool_{4096};
  std::unique_ptr<sched::Core> core_;
  std::vector<std::unique_ptr<NfTask>> nfs_;
};

NfTask::Config basic_config(Cycles cost = 250) {
  NfTask::Config cfg;
  cfg.name = "nf";
  cfg.cost = CostModel::fixed(cost);
  return cfg;
}

TEST_F(NfTaskTest, ProcessesAllQueuedPacketsThenBlocks) {
  NfTask& nf = make_nf(basic_config(100));
  feed(nf, 10);
  core_->wake(&nf);
  engine_.run_until(100'000);
  EXPECT_EQ(nf.counters().processed, 10u);
  EXPECT_EQ(nf.counters().forwarded, 10u);
  EXPECT_EQ(nf.state(), sched::TaskState::kBlocked);
  EXPECT_EQ(nf.counters().empty_blocks, 1u);
  EXPECT_EQ(drain_tx(nf), 10u);
}

TEST_F(NfTaskTest, RuntimeEqualsPacketsTimesCost) {
  NfTask& nf = make_nf(basic_config(250));
  feed(nf, 20);
  core_->wake(&nf);
  engine_.run_until(1'000'000);
  EXPECT_EQ(nf.stats().runtime, 20 * 250);
}

TEST_F(NfTaskTest, HandlerDropDoesNotForward) {
  NfTask& nf = make_nf(basic_config(100));
  int seen = 0;
  nf.set_handler([&seen](pktio::Mbuf&) {
    ++seen;
    return seen % 2 == 0 ? NfAction::kForward : NfAction::kDrop;
  });
  feed(nf, 10);
  core_->wake(&nf);
  engine_.run_until(100'000);
  EXPECT_EQ(nf.counters().processed, 10u);
  EXPECT_EQ(nf.counters().handler_drops, 5u);
  EXPECT_EQ(nf.counters().forwarded, 5u);
  EXPECT_EQ(drain_tx(nf), 5u);
  EXPECT_EQ(pool_.in_use(), 0u);  // dropped packets returned to the pool
}

TEST_F(NfTaskTest, YieldFlagStopsAtBatchBoundary) {
  auto cfg = basic_config(100);
  cfg.batch_size = 32;
  NfTask& nf = make_nf(cfg);
  nf.set_yield_flag(true);
  feed(nf, 100);
  core_->wake(&nf);
  engine_.run_until(1'000'000);
  // The flag was set before dispatch: the NF must not process anything.
  EXPECT_EQ(nf.counters().processed, 0u);
  EXPECT_EQ(nf.state(), sched::TaskState::kBlocked);
  EXPECT_GE(nf.counters().batch_yields, 1u);
}

TEST_F(NfTaskTest, YieldFlagMidRunHonouredAtNextBatchBoundary) {
  auto cfg = basic_config(100);
  cfg.batch_size = 32;
  NfTask& nf = make_nf(cfg);
  feed(nf, 100);
  core_->wake(&nf);
  // Let exactly 10 packets finish (1000 cycles), then set the flag.
  engine_.run_until(1'050);
  nf.set_yield_flag(true);
  engine_.run_until(1'000'000);
  // Processing continues to the end of the 32-packet batch, then stops.
  EXPECT_EQ(nf.counters().processed, 32u);
  EXPECT_EQ(nf.state(), sched::TaskState::kBlocked);
}

TEST_F(NfTaskTest, ClearedFlagAllowsResumeOnWake) {
  auto cfg = basic_config(100);
  NfTask& nf = make_nf(cfg);
  nf.set_yield_flag(true);
  feed(nf, 8);
  core_->wake(&nf);
  engine_.run_until(10'000);
  EXPECT_EQ(nf.counters().processed, 0u);
  nf.set_yield_flag(false);
  core_->wake(&nf);
  engine_.run_until(100'000);
  EXPECT_EQ(nf.counters().processed, 8u);
}

TEST_F(NfTaskTest, HasRunnableWorkReflectsState) {
  NfTask& nf = make_nf(basic_config(100));
  EXPECT_FALSE(nf.has_runnable_work());
  feed(nf, 1);
  EXPECT_TRUE(nf.has_runnable_work());
  nf.set_yield_flag(true);
  EXPECT_FALSE(nf.has_runnable_work());
  nf.set_yield_flag(false);
  core_->wake(&nf);
  engine_.run_until(10'000);
  EXPECT_FALSE(nf.has_runnable_work());  // drained
}

TEST_F(NfTaskTest, LocalBackpressureOnTxFull) {
  auto cfg = basic_config(100);
  cfg.tx_capacity = 16;  // tiny TX ring, nobody draining it
  NfTask& nf = make_nf(cfg);
  feed(nf, 64);
  core_->wake(&nf);
  engine_.run_until(1'000'000);
  // Exactly 16 packets fit; the 17th blocks the NF (§4.1 local BP).
  EXPECT_EQ(nf.counters().processed, 16u);
  EXPECT_EQ(nf.counters().tx_full_blocks, 1u);
  EXPECT_EQ(nf.state(), sched::TaskState::kBlocked);
  // Draining TX and waking resumes processing.
  EXPECT_EQ(drain_tx(nf), 16u);
  core_->wake(&nf);
  engine_.run_until(2'000'000);
  EXPECT_EQ(nf.counters().processed, 32u);
}

TEST_F(NfTaskTest, TxNotifyFiresOnForward) {
  // One notify per finalized burst that put a packet on the TX ring.
  struct Case {
    std::uint32_t burst_window;
    bool drop_all;
    int notifies;
  };
  const Case cases[] = {
      {1, false, 5},   // one burst per packet
      {32, false, 1},  // the default window: one burst of five
      {32, true, 0},   // nothing forwarded, nothing to drain
  };
  std::vector<int> notifications(std::size(cases), 0);
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    auto cfg = basic_config(100);
    cfg.burst_window = cases[i].burst_window;
    NfTask& nf = make_nf(cfg);
    nf.set_tx_notify([&notifications, i](NfTask&) { ++notifications[i]; });
    if (cases[i].drop_all) {
      nf.set_handler([](pktio::Mbuf&) { return NfAction::kDrop; });
    }
    feed(nf, 5);
    core_->wake(&nf);
    engine_.run_until(engine_.now() + 10'000);
    EXPECT_EQ(nf.counters().processed, 5u);
    EXPECT_EQ(notifications[i], cases[i].notifies)
        << "burst_window " << cases[i].burst_window
        << (cases[i].drop_all ? ", dropping handler" : "");
    drain_tx(nf);
  }
}

TEST_F(NfTaskTest, PreemptionPreservesInFlightPacket) {
  // Run under RR with a quantum shorter than one packet: the packet must
  // complete across multiple dispatches with exact total runtime.
  auto params = sched::SchedParams::defaults(CpuClock{});
  params.rr_quantum = 1000;
  sched::CoreConfig ccfg;
  ccfg.context_switch_cost = 0;
  ccfg.tick_period = 1000;  // enforce the sub-millisecond quantum exactly
  sched::Core rr_core(engine_, std::make_unique<sched::RrScheduler>(params),
                      ccfg, "rr");
  auto cfg = basic_config(3500);  // 3.5 quanta per packet
  auto nf = std::make_unique<NfTask>(engine_, cfg);
  rr_core.add_task(nf.get());
  nf->set_packet_release([this](pktio::Mbuf* m) { pool_.free(m); });

  // A competing hog forces actual preemption at each quantum.
  class Hog : public sched::Task {
   public:
    Hog() : Task("hog") {}
    void on_dispatch(Cycles) override {}
    void on_preempt(Cycles) override {}
  } hog;
  rr_core.add_task(&hog);

  for (int i = 0; i < 2; ++i) {
    pktio::Mbuf* m = pool_.alloc();
    nf->rx_ring().enqueue(m);
    nf->note_arrival();
  }
  rr_core.wake(nf.get());
  rr_core.wake(&hog);
  engine_.run_until(CpuClock{}.from_millis(1));
  EXPECT_EQ(nf->counters().processed, 2u);
  EXPECT_EQ(nf->stats().runtime, 2 * 3500);
  EXPECT_GE(nf->stats().involuntary_switches, 4u);
  while (pktio::Mbuf* m = nf->tx_ring().dequeue()) pool_.free(m);
}

TEST_F(NfTaskTest, WakePreemptionSplitsBurstAndResumesExactly) {
  // A whole burst is scheduled as one completion event; a wakeup preemption
  // lands *inside* it (the horizon only covers tick-driven preemptions).
  // The split must finalize exactly the packets whose virtual completion
  // time has passed and carry the interrupted packet's residue forward.
  auto params = sched::SchedParams::defaults(CpuClock{});
  sched::CoreConfig ccfg;
  ccfg.context_switch_cost = 0;
  // CFS NORMAL: wakeup preemption enabled.
  sched::Core normal_core(
      engine_,
      std::make_unique<sched::CfsScheduler>(params, /*batch=*/false), ccfg,
      "normal");
  auto cfg = basic_config(200'000);
  cfg.burst_window = 4;
  auto nf = std::make_unique<NfTask>(engine_, cfg);
  normal_core.add_task(nf.get());
  nf->set_packet_release([this](pktio::Mbuf* m) { pool_.free(m); });
  for (int i = 0; i < 4; ++i) {
    pktio::Mbuf* m = pool_.alloc();
    m->enqueue_time = 0;
    nf->rx_ring().enqueue(m);
    nf->note_arrival();
  }

  // Sleeper with a large vruntime deficit wakes mid-burst: packets 1-2
  // (done at 200k, 400k) are complete, packet 3 (due 600k) is in flight.
  class Sleeper : public sched::Task {
   public:
    Sleeper(sim::Engine& engine) : Task("sleeper"), engine_(engine) {}
    void on_dispatch(Cycles) override {
      engine_.schedule_after(10'000, [this] {
        core()->yield_current(this, /*will_block=*/true);
      });
    }
    void on_preempt(Cycles) override {}

   private:
    sim::Engine& engine_;
  } sleeper(engine_);
  normal_core.add_task(&sleeper);

  normal_core.wake(nf.get());
  engine_.schedule_at(500'000, [&] { normal_core.wake(&sleeper); });
  engine_.run_until(450'000);
  // Mid-burst, pre-wake: the burst is one pending event, nothing finalized.
  EXPECT_EQ(nf->counters().processed, 0u);
  EXPECT_EQ(nf->in_flight_packets(), 4u);

  engine_.run_until(600'000);
  // The 500k wake preempted the burst: exactly the packets whose virtual
  // completion passed (200k, 400k) are finalized; 600k/800k are in flight.
  EXPECT_EQ(nf->counters().processed, 2u);
  EXPECT_EQ(nf->in_flight_packets(), 2u);

  engine_.run_until(CpuClock{}.from_millis(2));
  EXPECT_EQ(nf->counters().processed, 4u);
  EXPECT_EQ(nf->counters().forwarded, 4u);
  EXPECT_EQ(nf->in_flight_packets(), 0u);
  // Total runtime is exact despite the split: 4 x 200k, no double-charge
  // for the interrupted packet's already-burned 100k.
  EXPECT_EQ(nf->stats().runtime, 4 * 200'000);
  EXPECT_EQ(nf->stats().involuntary_switches, 1u);
  while (pktio::Mbuf* m = nf->tx_ring().dequeue()) pool_.free(m);
}

TEST_F(NfTaskTest, ServiceTimeEstimateTracksCost) {
  auto cfg = basic_config(550);
  cfg.sample_interval = 100;  // sample aggressively for the test
  cfg.warmup_samples = 2;
  NfTask& nf = make_nf(cfg);
  feed(nf, 200);
  core_->wake(&nf);
  engine_.run_until(1'000'000);
  EXPECT_EQ(nf.estimated_service_time(engine_.now()), 550);
  EXPECT_GT(nf.cost_histogram().count(), 0u);
}

TEST_F(NfTaskTest, WarmupSamplesDiscarded) {
  auto cfg = basic_config(100);
  cfg.sample_interval = 1;  // would sample every packet
  cfg.warmup_samples = 10;
  NfTask& nf = make_nf(cfg);
  feed(nf, 10);
  core_->wake(&nf);
  engine_.run_until(100'000);
  // All 10 samples were warm-up discards.
  EXPECT_EQ(nf.cost_histogram().count(), 0u);
  EXPECT_EQ(nf.estimated_service_time(engine_.now()), 0);
}

TEST_F(NfTaskTest, VariableCostEstimateUsesMedian) {
  auto cfg = basic_config();
  cfg.cost = CostModel::uniform_choice({120, 270, 550});
  cfg.sample_interval = 1;
  cfg.warmup_samples = 0;
  NfTask& nf = make_nf(cfg);
  feed(nf, 600);
  core_->wake(&nf);
  engine_.run_until(10'000'000);
  const Cycles est = nf.estimated_service_time(engine_.now());
  // Median of a balanced {120,270,550} mix is 270.
  EXPECT_EQ(est, 270);
}

TEST_F(NfTaskTest, ArrivalCounterTracksFeeds) {
  NfTask& nf = make_nf(basic_config());
  feed(nf, 7);
  EXPECT_EQ(nf.counters().arrivals, 7u);
}

TEST_F(NfTaskTest, OverloadFlagIsSticky) {
  NfTask& nf = make_nf(basic_config());
  EXPECT_FALSE(nf.overload_flag());
  nf.set_overload_flag(true);
  EXPECT_TRUE(nf.overload_flag());
  nf.set_overload_flag(false);
  EXPECT_FALSE(nf.overload_flag());
}

}  // namespace
}  // namespace nfv::nf
