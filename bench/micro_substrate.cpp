// google-benchmark microbenchmarks of the substrate hot paths.
//
// These are not paper artifacts; they size the simulator itself: ring
// enqueue/dequeue, flow-table lookup, histogram insert/quantile, moving-
// window median, event-engine throughput, the set-up cost of a
// Simulation, and a full end-to-end simulated second per wall-second
// figure.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/histogram.hpp"
#include "common/moving_window.hpp"
#include "common/rng.hpp"
#include "core/simulation.hpp"
#include "flow/flow_table.hpp"
#include "pktio/mempool.hpp"
#include "pktio/ring.hpp"
#include "sim/engine.hpp"

namespace {

void BM_RingEnqueueDequeue(benchmark::State& state) {
  nfv::pktio::Ring ring(1024);
  nfv::pktio::Mbuf mbuf;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.enqueue(&mbuf));
    benchmark::DoNotOptimize(ring.dequeue());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingEnqueueDequeue);

void BM_RingBurst(benchmark::State& state) {
  const std::size_t burst = state.range(0);
  nfv::pktio::Ring ring(4096);
  nfv::pktio::Mbuf mbuf;
  std::vector<nfv::pktio::Mbuf*> out(burst);
  for (auto _ : state) {
    for (std::size_t i = 0; i < burst; ++i) ring.enqueue(&mbuf);
    benchmark::DoNotOptimize(ring.dequeue_burst(out.data(), burst));
  }
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_RingBurst)->Arg(8)->Arg(32)->Arg(128);

void BM_MempoolAllocFree(benchmark::State& state) {
  nfv::pktio::MbufPool pool(4096);
  for (auto _ : state) {
    nfv::pktio::Mbuf* m = pool.alloc();
    benchmark::DoNotOptimize(m);
    pool.free(m);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MempoolAllocFree);

void BM_FlowTableLookup(benchmark::State& state) {
  const std::uint32_t flows = state.range(0);
  nfv::flow::FlowTable table;
  std::vector<nfv::pktio::FlowKey> keys;
  for (std::uint32_t i = 0; i < flows; ++i) {
    nfv::pktio::FlowKey key{i, 42, static_cast<std::uint16_t>(i), 80, 17};
    table.install(key, 0);
    keys.push_back(key);
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(keys[i++ % flows]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableLookup)->Arg(16)->Arg(1024)->Arg(65536);

void BM_HistogramRecord(benchmark::State& state) {
  nfv::Histogram hist;
  nfv::Rng rng(1);
  for (auto _ : state) {
    hist.record(rng.next_below(10000) + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramMedian(benchmark::State& state) {
  nfv::Histogram hist;
  nfv::Rng rng(1);
  for (int i = 0; i < 100000; ++i) hist.record(rng.next_below(10000) + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.median());
  }
}
BENCHMARK(BM_HistogramMedian);

void BM_MovingWindowMedian(benchmark::State& state) {
  nfv::MovingWindow window(260'000'000);
  nfv::Rng rng(1);
  nfv::Cycles now = 0;
  for (int i = 0; i < 100; ++i) {
    window.record(now, rng.next_below(1000) + 1);
    now += 2'600'000;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(window.median(now));
  }
}
BENCHMARK(BM_MovingWindowMedian);

void BM_EngineScheduleDispatch(benchmark::State& state) {
  nfv::sim::Engine engine;
  for (auto _ : state) {
    engine.schedule_after(1, [] {});
    engine.run_until(engine.now() + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineScheduleDispatch);

/// Set-up cost of a Simulation: default PlatformConfig (a 2^20-mbuf pool
/// cap) plus the Fig. 7 topology and its flow, no run; teardown is not
/// timed. The pool builds a slot on first hand-out, so the cap costs no
/// per-slot work here (building all 2^20 slots up front took ~60 ms).
/// Reported with a min-of-repetitions aggregate: host noise only ever adds
/// time.
void BM_SimulationSetup(benchmark::State& state) {
  for (auto _ : state) {
    auto sim = std::make_unique<nfv::core::Simulation>();
    const auto core_id =
        sim->add_core(nfv::core::SchedPolicy::kCfsBatch, 100.0);
    const auto a = sim->add_nf("a", core_id, nfv::nf::CostModel::fixed(120));
    const auto b = sim->add_nf("b", core_id, nfv::nf::CostModel::fixed(270));
    const auto c = sim->add_nf("c", core_id, nfv::nf::CostModel::fixed(550));
    const auto chain = sim->add_chain("lmh", {a, b, c});
    sim->add_udp_flow(chain, 6e6);
    benchmark::DoNotOptimize(sim.get());
    state.PauseTiming();
    sim.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SimulationSetup)
    ->ComputeStatistics("min",
                        [](const std::vector<double>& v) {
                          return *std::min_element(v.begin(), v.end());
                        })
    ->Unit(benchmark::kMillisecond);

/// Whole-platform speed: simulated milliseconds of the Fig. 7 chain per
/// wall second.
void BM_EndToEndChainMillisecond(benchmark::State& state) {
  nfv::core::PlatformConfig cfg;
  cfg.set_nfvnice(true);
  nfv::core::Simulation sim(cfg);
  const auto core_id = sim.add_core(nfv::core::SchedPolicy::kCfsBatch, 100.0);
  const auto a = sim.add_nf("a", core_id, nfv::nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nfv::nf::CostModel::fixed(270));
  const auto c = sim.add_nf("c", core_id, nfv::nf::CostModel::fixed(550));
  const auto chain = sim.add_chain("lmh", {a, b, c});
  sim.add_udp_flow(chain, 6e6);
  for (auto _ : state) {
    sim.run_for_seconds(0.001);
  }
  state.SetItemsProcessed(state.iterations());  // items = simulated ms
}
BENCHMARK(BM_EndToEndChainMillisecond)->Unit(benchmark::kMillisecond);

/// Same chain with the burst window forced, to size what batched event
/// execution buys (1 = the seed's one-event-per-packet schedule).
void BM_EndToEndBurstWindow(benchmark::State& state) {
  nfv::core::PlatformConfig cfg;
  cfg.set_nfvnice(true);
  cfg.set_burst_window(static_cast<std::uint32_t>(state.range(0)));
  nfv::core::Simulation sim(cfg);
  const auto core_id = sim.add_core(nfv::core::SchedPolicy::kCfsBatch, 100.0);
  const auto a = sim.add_nf("a", core_id, nfv::nf::CostModel::fixed(120));
  const auto b = sim.add_nf("b", core_id, nfv::nf::CostModel::fixed(270));
  const auto c = sim.add_nf("c", core_id, nfv::nf::CostModel::fixed(550));
  const auto chain = sim.add_chain("lmh", {a, b, c});
  sim.add_udp_flow(chain, 6e6);
  for (auto _ : state) {
    sim.run_for_seconds(0.001);
  }
  state.SetItemsProcessed(state.iterations());  // items = simulated ms
}
BENCHMARK(BM_EndToEndBurstWindow)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
