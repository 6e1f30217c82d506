// End-to-end behaviour of the Simulation facade.
#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace nfv::core {
namespace {

TEST(Simulation, PolicyNames) {
  EXPECT_STREQ(to_string(SchedPolicy::kCfsNormal), "NORMAL");
  EXPECT_STREQ(to_string(SchedPolicy::kCfsBatch), "BATCH");
  EXPECT_STREQ(to_string(SchedPolicy::kRoundRobin), "RR");
}

// The library reads no environment: PlatformConfig::sim_shards alone picks
// the sharded engine, so a test's bytes cannot depend on the shell that
// runs it. (quickstart and run_config read NFV_SIM_SHARDS themselves.)
TEST(Simulation, ShardEnvironmentVariableIsNotRead) {
  ::setenv("NFV_SIM_SHARDS", "2", 1);
  const Simulation sim;
  ::unsetenv("NFV_SIM_SHARDS");
  EXPECT_FALSE(sim.sharded());
}

TEST(Simulation, TimeAdvances) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  sim.add_chain("c", {nf});
  EXPECT_DOUBLE_EQ(sim.now_seconds(), 0.0);
  sim.run_for_seconds(0.25);
  EXPECT_NEAR(sim.now_seconds(), 0.25, 1e-9);
  sim.run_for_seconds(0.25);
  EXPECT_NEAR(sim.now_seconds(), 0.5, 1e-9);
}

// Simulated time only moves forward. A negative duration used to move the
// one-lane clock back (runs of +10, -5, +5 ms ended at 10 ms, not 15), and a
// NaN or infinite one reached an undefined float-to-int conversion.
TEST(Simulation, NegativeOrNonFiniteRunIsRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::uint32_t shards : {0u, 1u}) {
    SCOPED_TRACE(shards);
    PlatformConfig cfg;
    cfg.sim_shards = shards;
    Simulation sim(cfg);
    const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
    const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
    sim.add_udp_flow(sim.add_chain("c", {nf}), 1e6);
    EXPECT_THROW(sim.run_for_seconds(-1.0), std::invalid_argument);
    EXPECT_EQ(sim.now_seconds(), 0.0);
    sim.run_for_seconds(0.010);
    for (const double bad : {-0.005, std::nan(""), inf, -inf, 1e300}) {
      EXPECT_THROW(sim.run_for_seconds(bad), std::invalid_argument) << bad;
    }
    sim.run_for_seconds(0.005);
    const CpuClock& clock = sim.clock();
    const Cycles want = clock.from_seconds(0.010) + clock.from_seconds(0.005);
    EXPECT_EQ(sim.now_seconds(), clock.to_seconds(want));
    // A lane runs each epoch to one cycle short of its horizon.
    EXPECT_GE(sim.engine().now(), want - 1);
    EXPECT_LE(sim.engine().now(), want);
  }
}

// Every per-NF series is keyed by the NF's name, so a second NF with the
// same name would merge into the first's series.
TEST(Simulation, DuplicateNfNameIsRefused) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  sim.add_nf("a", core_id, nf::CostModel::fixed(100));
  EXPECT_THROW(sim.add_nf("a", core_id, nf::CostModel::fixed(200)),
               std::invalid_argument);
  EXPECT_EQ(sim.nf_count(), 1u);
  EXPECT_EQ(sim.add_nf("b", core_id, nf::CostModel::fixed(200)), 1u);
}

// Each id is checked where the facade receives it, before anything
// changes: a topology completed after refused calls reports the same bytes
// as one built without them. The refused calls name chain 0 before it
// exists; the completed topology sets nothing on it, so a call that leaked
// would show in its report.
TEST(Simulation, UnknownIdsAreRefused) {
  for (const std::uint32_t shards : {0u, 2u}) {
    SCOPED_TRACE(shards);
    const auto report = [shards](bool with_refused_calls) {
      PlatformConfig cfg;
      cfg.sim_shards = shards;
      Simulation sim(cfg);
      const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
      const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
      const flow::NfId unknown_nf = 2;
      const flow::ChainId unknown_chain = 0;  // the chain added below
      if (with_refused_calls) {
        EXPECT_THROW(sim.add_nf("x", 2, nf::CostModel::fixed(100)),
                     std::out_of_range);
        EXPECT_THROW(sim.add_chain("x", {0}), std::out_of_range);
      }
      const auto a = sim.add_nf("a", c0, nf::CostModel::fixed(200));
      const auto b = sim.add_nf("b", c1, nf::CostModel::fixed(300));
      if (with_refused_calls) {
        EXPECT_THROW(sim.add_chain("x", {}), std::invalid_argument);
        EXPECT_THROW(sim.add_chain("x", {a, unknown_nf}), std::out_of_range);
        EXPECT_THROW(sim.attach_io(unknown_nf, {}), std::out_of_range);
        EXPECT_THROW(sim.set_chain_slo(unknown_chain, 100.0),
                     std::out_of_range);
        EXPECT_THROW(sim.set_chain_class(unknown_chain, 2.0, 0.5),
                     std::out_of_range);
        EXPECT_THROW(
            sim.set_dead_policy(unknown_chain, fault::DeadNfPolicy::kBypass),
            std::out_of_range);
        EXPECT_THROW(sim.add_udp_flow(unknown_chain, 1e6), std::out_of_range);
        fault::FaultPlan bad;
        bad.add_crash(unknown_nf, sim.clock().from_millis(5));
        EXPECT_THROW(sim.set_fault_plan(std::move(bad)), std::out_of_range);
      }
      const auto ab = sim.add_chain("ab", {a, b});
      const auto solo = sim.add_chain("b", {b});
      sim.attach_io(a, {});
      sim.set_chain_slo(solo, 200.0);
      sim.set_chain_class(solo, 2.0, 0.5);
      sim.set_dead_policy(solo, fault::DeadNfPolicy::kBuffer);
      fault::FaultPlan plan;
      plan.add_crash(b, sim.clock().from_millis(5));
      sim.set_fault_plan(std::move(plan));
      sim.add_udp_flow(ab, 2e6, {.stop_seconds = 0.015});
      sim.add_udp_flow(solo, 1e6, {.stop_seconds = 0.015});
      sim.run_for_seconds(0.02);
      return sim.report_json();
    };
    EXPECT_EQ(report(true), report(false));
  }
}

// Read accessors check their ids as the set-up calls do: an unknown NF or
// chain throws instead of indexing past the NFs or reading zeros.
TEST(Simulation, UnknownReadIdsAreRefused) {
  for (const std::uint32_t shards : {0u, 2u}) {
    SCOPED_TRACE(shards);
    PlatformConfig cfg;
    cfg.sim_shards = shards;
    Simulation sim(cfg);
    const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
    sim.add_core(SchedPolicy::kCfsBatch);
    const auto a = sim.add_nf("a", c0, nf::CostModel::fixed(200));
    const auto chain = sim.add_chain("c", {a});
    sim.add_udp_flow(chain, 1e6);
    sim.run_for_seconds(0.002);
    const flow::NfId unknown_nf = 3;
    const flow::ChainId unknown_chain = 3;
    EXPECT_THROW(static_cast<void>(sim.nf(unknown_nf)), std::out_of_range);
    EXPECT_THROW(static_cast<void>(sim.nf_metrics(unknown_nf)),
                 std::out_of_range);
    EXPECT_THROW(static_cast<void>(sim.nf_cpu_share(unknown_nf)),
                 std::out_of_range);
    EXPECT_THROW(static_cast<void>(sim.nf_lifecycle(unknown_nf)),
                 std::out_of_range);
    EXPECT_THROW(static_cast<void>(sim.nf_lifecycle_stats(unknown_nf)),
                 std::out_of_range);
    EXPECT_THROW(static_cast<void>(sim.chain_metrics(unknown_chain)),
                 std::out_of_range);
    EXPECT_THROW(static_cast<void>(sim.chain_slo_report(unknown_chain)),
                 std::out_of_range);
    EXPECT_THROW(
        static_cast<void>(sim.chain_latency_quantile(unknown_chain, 0.99)),
        std::out_of_range);
    EXPECT_THROW(static_cast<void>(sim.chain_admission_report(unknown_chain)),
                 std::out_of_range);
    // Known ids still read.
    EXPECT_EQ(sim.nf(a).name(), "a");
    EXPECT_GT(sim.nf_metrics(a).processed, 0u);
    EXPECT_GT(sim.chain_metrics(chain).egress_packets, 0u);
  }
}

// Set-up the first run freezes is refused after it, and a simulation takes
// one fault plan: each refused call throws before it changes anything, so
// the first plan is the one that acts and a late one is never half-armed.
TEST(Simulation, LateOrRepeatedSetUpIsRefused) {
  for (const std::uint32_t shards : {0u, 2u}) {
    SCOPED_TRACE(shards);
    PlatformConfig cfg;
    cfg.sim_shards = shards;
    Simulation sim(cfg);
    const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
    const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
    const auto a = sim.add_nf("a", c0, nf::CostModel::fixed(200));
    const auto b = sim.add_nf("b", c1, nf::CostModel::fixed(300));
    const auto chain = sim.add_chain("ab", {a, b});
    fault::FaultPlan first;
    first.add_crash(a, sim.clock().from_millis(2));
    sim.set_fault_plan(std::move(first));
    fault::FaultPlan second;
    second.add_crash(b, sim.clock().from_millis(2));
    EXPECT_THROW(sim.set_fault_plan(std::move(second)), std::logic_error);
    sim.add_udp_flow(chain, 1e6);
    sim.run_for_seconds(0.001);

    EXPECT_THROW(sim.add_chain("late", {b}), std::logic_error);
    EXPECT_EQ(sim.chains().size(), 1u);
    EXPECT_THROW(sim.set_chain_class(chain, 2.0, 0.5), std::logic_error);
    EXPECT_FALSE(sim.chain_admission_report(chain).classed);
    fault::FaultPlan late;
    late.add_crash(b, sim.clock().from_millis(3));
    EXPECT_THROW(sim.set_fault_plan(std::move(late)), std::logic_error);

    sim.run_for_seconds(0.004);
    EXPECT_EQ(sim.nf_lifecycle_stats(a).crashes, 1u);
    EXPECT_EQ(sim.nf_lifecycle_stats(b).crashes, 0u);
  }
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim;
    const auto core_id = sim.add_core(SchedPolicy::kCfsNormal);
    const auto a = sim.add_nf("a", core_id, nf::CostModel::fixed(120));
    const auto b = sim.add_nf("b", core_id, nf::CostModel::fixed(550));
    const auto chain = sim.add_chain("ab", {a, b});
    sim.add_udp_flow(chain, 4e6);
    sim.run_for_seconds(0.05);
    return sim.chain_metrics(chain).egress_packets;
  };
  const auto first = run_once();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(run_once(), first);
  EXPECT_EQ(run_once(), first);
}

TEST(Simulation, MultiCorePlacement) {
  Simulation sim;
  const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", c0, nf::CostModel::fixed(500));
  const auto b = sim.add_nf("b", c1, nf::CostModel::fixed(500));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 3e6);
  sim.run_for_seconds(0.1);
  // Each NF has its own core: both can exceed 50% CPU simultaneously.
  EXPECT_GT(sim.nf_cpu_share(a), 0.5);
  EXPECT_GT(sim.nf_cpu_share(b), 0.5);
  EXPECT_EQ(sim.core_count(), 2u);
}

TEST(Simulation, ThroughputBoundedByBottleneck) {
  Simulation sim;
  const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
  // 4500-cycle NF on its own core: capacity = 2.6e9/4500 = 0.578 Mpps.
  const auto a = sim.add_nf("a", c0, nf::CostModel::fixed(550));
  const auto b = sim.add_nf("b", c1, nf::CostModel::fixed(4500));
  const auto chain = sim.add_chain("ab", {a, b});
  sim.add_udp_flow(chain, 6e6);
  sim.run_for_seconds(0.2);
  const double mpps = static_cast<double>(
                          sim.chain_metrics(chain).egress_packets) /
                      sim.now_seconds() / 1e6;
  EXPECT_GT(mpps, 0.45);
  EXPECT_LT(mpps, 0.60);
}

TEST(Simulation, ReportPrintsAllNfsAndChains) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("alpha", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("mychain", {a});
  sim.add_udp_flow(chain, 1e5);
  sim.run_for_seconds(0.01);
  std::ostringstream oss;
  sim.print_report(oss);
  const std::string report = oss.str();
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("mychain"), std::string::npos);
}

TEST(Simulation, MetricsSnapshotsSubtract) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf});
  sim.add_udp_flow(chain, 1e5);
  sim.run_for_seconds(0.05);
  const auto before = sim.nf_metrics(nf);
  sim.run_for_seconds(0.05);
  const auto after = sim.nf_metrics(nf);
  const auto delta = after - before;
  EXPECT_GT(delta.processed, 0u);
  EXPECT_LT(delta.processed, after.processed);
  EXPECT_NEAR(static_cast<double>(delta.processed), 5000.0, 200.0);
}

TEST(Simulation, AddFlowAfterStart) {
  Simulation sim;
  const auto core_id = sim.add_core(SchedPolicy::kCfsBatch);
  const auto nf = sim.add_nf("nf", core_id, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf});
  sim.run_for_seconds(0.01);
  const auto flow = sim.add_udp_flow(chain, 1e5);
  sim.run_for_seconds(0.05);
  EXPECT_GT(sim.manager().flow_counters(flow).egress_packets, 1000u);
}

// With a lane per core, the facade's engine, registry and flow table are
// lane 0's live objects: the engine runs, the Manager's instruments are
// registered, and the flows homed on lane 0 are in its table.
TEST(Simulation, ShardedAccessorsAreLaneZeros) {
  PlatformConfig cfg;
  cfg.sim_shards = 2;
  Simulation sim(cfg);
  const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
  const auto a = sim.add_nf("a", c0, nf::CostModel::fixed(200));
  const auto b = sim.add_nf("b", c1, nf::CostModel::fixed(300));
  const auto homed_on_0 = sim.add_chain("ab", {a, b});
  const auto homed_on_1 = sim.add_chain("b", {b});
  sim.add_udp_flow(homed_on_0, 1e6);
  sim.add_udp_flow(homed_on_0, 1e6);
  sim.add_udp_flow(homed_on_1, 1e6);
  bool fired = false;
  sim.engine().schedule_at(sim.clock().from_seconds(0.005),
                           [&fired] { fired = true; });
  sim.run_for_seconds(0.01);

  EXPECT_TRUE(fired);
  const Cycles run = sim.clock().from_seconds(0.01);
  EXPECT_GE(sim.engine().now(), run - 1);
  EXPECT_LE(sim.engine().now(), run);
  EXPECT_TRUE(
      sim.observability().metrics().sample("mgr.unmatched_drops").has_value());
  EXPECT_EQ(sim.flow_table().size(), 2u);
}

TEST(Simulation, RrQuantumConfigurable) {
  Simulation sim;
  const auto fast_rr = sim.add_core(SchedPolicy::kRoundRobin, 1.0);
  const auto nf = sim.add_nf("nf", fast_rr, nf::CostModel::fixed(100));
  const auto chain = sim.add_chain("c", {nf});
  sim.add_udp_flow(chain, 1e5);
  sim.run_for_seconds(0.02);
  EXPECT_GT(sim.chain_metrics(chain).egress_packets, 1000u);
}

}  // namespace
}  // namespace nfv::core
