// Sharded-engine determinism contract (DESIGN.md §14): for a fixed
// topology, report_json() and the Chrome trace are byte-identical at every
// worker count. Each test builds the same simulation at sim_shards = 1 and
// at higher counts and compares the serialized artifacts byte-for-byte —
// the strongest equivalence we can assert, and the one CI's TSan job runs
// to certify the barrier protocol. Every scenario also runs at
// sim_shards = 0 (one lane holding every core), and the artifacts at 0 and
// 1 are pinned to absolute digests, so neither decomposition can drift.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/shard_runtime.hpp"
#include "core/simulation.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"

namespace {

using nfv::core::PlatformConfig;
using nfv::core::SchedPolicy;
using nfv::core::Simulation;

struct RunArtifacts {
  std::string report;
  std::string trace;
};

/// FNV-1a-64 of report_json() and of the Chrome trace for one scenario at
/// one sim_shards setting.
struct Pin {
  const char* scenario;
  std::uint32_t shards;
  std::uint64_t report;
  std::uint64_t trace;
};

// Captured at commit 8bc88e2, before the one-group lane replaced the
// legacy single-engine path; a refactor of either runtime keeps these.
constexpr Pin kPins[] = {
    {"Fig07GridPoint", 0, 0x0282584644bdaa15, 0x9249a3924361ba10},
    {"Fig07GridPoint", 1, 0x9f1c2e342f475970, 0x32da6ca2246a4567},
    {"Tab03DropRatePoint", 0, 0x61c2a6a47f5410f3, 0x0e42d391a65fa02d},
    {"Tab03DropRatePoint", 1, 0xaeaa24e568bcdf4e, 0x3cebf1aa94649c81},
    {"MultiCoreCrossLaneChains", 0, 0xdc379736915f7258, 0x9bfc87d753174fef},
    {"MultiCoreCrossLaneChains", 1, 0xefb2dc39043230b2, 0x139733fe64701b5a},
    {"ChurnWorkload", 0, 0x7a567f324b76987e, 0x8a153406b88736b1},
    {"ChurnWorkload", 1, 0xc8743398e38df53d, 0x5e63751902e5223b},
    {"CrashAndDegradeFaultPlan", 0, 0xac4657df1ea7737d, 0xe90b452aaef39e33},
    {"CrashAndDegradeFaultPlan", 1, 0x7e919e51c41b0bf6, 0xe950a03dcee678c6},
    {"DeviceFaultWithAsyncIo", 0, 0x03a1457807881713, 0xe8f4b2a404f1f41d},
    {"DeviceFaultWithAsyncIo", 1, 0x486894c5152cccfd, 0x857e9690ea1a60ee},
    {"WorkerCountBeyondLanesIsClamped", 0, 0x882ce884d2585ca0,
     0xb2ebe561d930b386},
    {"WorkerCountBeyondLanesIsClamped", 1, 0x41d14b773a8a6e11,
     0x58ba492c76849b44},
    // Captured at commit 95cce11, before the Manager's controllers moved
    // into classes of their own.
    {"BoostPushAsideAdmissionAndCrash", 0, 0x34a2af85f4c08e04,
     0xb74c8ba7a580d30a},
    {"BoostPushAsideAdmissionAndCrash", 1, 0xae1bb39b30020c36,
     0x6b1b4b5039baf6b8},
    // Captured at commit 522a3fb, before fault plans were armed without an
    // injector and in injection-time order.
    {"TimeOrderedFaultsShareOneInstant", 0, 0xb9a64620f83fe0d3,
     0x10df3ab0aae78213},
    {"TimeOrderedFaultsShareOneInstant", 1, 0xe2272a2c8730ff86,
     0x071f6d12525be590},
    // Captured at commit c076496, while every cross-lane message was an
    // engine event of its own.
    {"CrossLaneRunsMeetThePoolCap", 0, 0x3a9c0afb7158790e,
     0x0863e4ed7a31b1e5},
    {"CrossLaneRunsMeetThePoolCap", 1, 0xbb8199c15632ccca,
     0x8753767c65066222},
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Compare the running test's artifacts at `shards` against its pin.
void expect_pinned(std::uint32_t shards, const RunArtifacts& got) {
  const std::string scenario =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::ostringstream actual;
  actual << "{\"" << scenario << "\", " << shards << std::hex
         << std::setfill('0') << ", 0x" << std::setw(16) << fnv1a(got.report)
         << ", 0x" << std::setw(16) << fnv1a(got.trace) << "}";
  for (const Pin& pin : kPins) {
    if (scenario != pin.scenario || shards != pin.shards) continue;
    EXPECT_EQ(fnv1a(got.report), pin.report)
        << "report bytes moved at shards=" << shards << "; now "
        << actual.str();
    EXPECT_EQ(fnv1a(got.trace), pin.trace)
        << "trace bytes moved at shards=" << shards << "; now "
        << actual.str();
    return;
  }
  ADD_FAILURE() << "no pin for " << actual.str();
}

/// Run `build` at sim_shards = 0 and at each shard count: the artifacts at
/// 0 and at the first count must match their pins, and every count must
/// reproduce the first count's artifacts byte-for-byte.
void expect_identical(
    const std::function<RunArtifacts(std::uint32_t)>& run_at,
    std::vector<std::uint32_t> shard_counts) {
  ASSERT_GE(shard_counts.size(), 2u);
  expect_pinned(0, run_at(0));
  const RunArtifacts base = run_at(shard_counts.front());
  ASSERT_FALSE(base.report.empty());
  expect_pinned(shard_counts.front(), base);
  for (std::size_t i = 1; i < shard_counts.size(); ++i) {
    const RunArtifacts other = run_at(shard_counts[i]);
    const auto diverge = [](const std::string& a, const std::string& b) {
      std::size_t p = 0;
      while (p < a.size() && p < b.size() && a[p] == b[p]) ++p;
      return p;
    };
    ASSERT_EQ(base.report == other.report, true)
        << "report diverges at shards=" << shard_counts[i] << " byte "
        << diverge(base.report, other.report) << ": ..."
        << base.report.substr(
               diverge(base.report, other.report) < 40
                   ? 0
                   : diverge(base.report, other.report) - 40,
               80)
        << "... vs ..."
        << other.report.substr(
               diverge(base.report, other.report) < 40
                   ? 0
                   : diverge(base.report, other.report) - 40,
               80);
    ASSERT_EQ(base.trace == other.trace, true)
        << "trace diverges at shards=" << shard_counts[i] << " byte "
        << diverge(base.trace, other.trace);
  }
}

RunArtifacts finish(Simulation& sim, nfv::obs::TraceRecorder& rec) {
  RunArtifacts out;
  out.report = sim.report_json();
  std::ostringstream tr;
  rec.write_chrome_json(tr);
  out.trace = tr.str();
  return out;
}

// Fig. 7 grid point: one core, the paper's 120/270/550 chain under
// overload. A single lane, so every worker count degenerates to one worker
// — the contract still demands byte-identity.
TEST(ShardDeterminism, Fig07GridPoint) {
  expect_identical(
      [](std::uint32_t shards) {
        PlatformConfig cfg;
        cfg.sim_shards = shards;
        Simulation sim(cfg);
        const auto core = sim.add_core(SchedPolicy::kCfsBatch);
        const auto a = sim.add_nf("low", core, nfv::nf::CostModel::fixed(120));
        const auto b = sim.add_nf("med", core, nfv::nf::CostModel::fixed(270));
        const auto c = sim.add_nf("high", core, nfv::nf::CostModel::fixed(550));
        const auto chain = sim.add_chain("c", {a, b, c});
        sim.add_udp_flow(chain, 6e6);
        nfv::obs::TraceRecorder rec;
        sim.attach_trace(rec);
        sim.run_for_seconds(0.03);
        return finish(sim, rec);
      },
      {1, 2, 4});
}

// Tab. 3 grid point: overloaded chain on the round-robin scheduler, where
// drop accounting (entry discards vs ring-full) must line up exactly.
TEST(ShardDeterminism, Tab03DropRatePoint) {
  expect_identical(
      [](std::uint32_t shards) {
        PlatformConfig cfg;
        cfg.sim_shards = shards;
        Simulation sim(cfg);
        const auto core = sim.add_core(SchedPolicy::kRoundRobin, 1.0);
        const auto a = sim.add_nf("a", core, nfv::nf::CostModel::fixed(550));
        const auto b = sim.add_nf("b", core, nfv::nf::CostModel::fixed(270));
        const auto chain = sim.add_chain("c", {a, b});
        sim.add_udp_flow(chain, 8e6);
        nfv::obs::TraceRecorder rec;
        sim.attach_trace(rec);
        sim.run_for_seconds(0.03);
        return finish(sim, rec);
      },
      {1, 2});
}

// Four lanes with chains crossing every lane boundary plus TCP: the full
// mailbox path (packets, ECN marks, backpressure state, TCP acks) under
// every worker count the CI matrix runs.
TEST(ShardDeterminism, MultiCoreCrossLaneChains) {
  expect_identical(
      [](std::uint32_t shards) {
        PlatformConfig cfg;
        cfg.sim_shards = shards;
        Simulation sim(cfg);
        std::vector<std::size_t> cores;
        std::vector<nfv::flow::NfId> nfs;
        for (int i = 0; i < 4; ++i) {
          cores.push_back(sim.add_core(SchedPolicy::kCfsBatch));
          nfs.push_back(sim.add_nf("nf" + std::to_string(i), cores[i],
                                   nfv::nf::CostModel::fixed(200 + 60 * i)));
        }
        const auto ring =
            sim.add_chain("ring", {nfs[0], nfs[1], nfs[2], nfs[3]});
        const auto pair = sim.add_chain("pair", {nfs[3], nfs[0]});
        sim.add_udp_flow(ring, 2.5e6);
        sim.add_udp_flow(pair, 2e6);
        sim.add_tcp_flow(ring);
        nfv::obs::TraceRecorder rec;
        sim.attach_trace(rec);
        sim.run_for_seconds(0.02);
        sim.run_for_seconds(0.01);  // multi-call: resume must not reset state
        return finish(sim, rec);
      },
      {1, 2, 4, 8});
}

// Churn: flows install/retire continuously, exercising the flow table and
// expiry sweeps that live on each chain's home lane.
TEST(ShardDeterminism, ChurnWorkload) {
  expect_identical(
      [](std::uint32_t shards) {
        PlatformConfig cfg;
        cfg.sim_shards = shards;
        cfg.flow_table.idle_timeout = 26'000'000;
        Simulation sim(cfg);
        const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
        const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
        const auto a = sim.add_nf("a", c0, nfv::nf::CostModel::fixed(200));
        const auto b = sim.add_nf("b", c1, nfv::nf::CostModel::fixed(400));
        const auto chain = sim.add_chain("churny", {a, b});
        sim.add_churn_workload(chain, 1.5e6);
        nfv::obs::TraceRecorder rec;
        sim.attach_trace(rec);
        sim.run_for_seconds(0.04);
        return finish(sim, rec);
      },
      {1, 2, 4});
}

// Faulted run: a crash (with restart) on one lane and a degrade on another.
// NF death must propagate across lanes as messages without perturbing any
// lane-local ordering.
TEST(ShardDeterminism, CrashAndDegradeFaultPlan) {
  expect_identical(
      [](std::uint32_t shards) {
        PlatformConfig cfg;
        cfg.sim_shards = shards;
        Simulation sim(cfg);
        const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
        const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
        const auto c2 = sim.add_core(SchedPolicy::kRoundRobin, 1.0);
        const auto a = sim.add_nf("a", c0, nfv::nf::CostModel::fixed(200));
        const auto b = sim.add_nf("b", c1, nfv::nf::CostModel::fixed(400));
        const auto c = sim.add_nf("c", c2, nfv::nf::CostModel::fixed(300));
        const auto chain = sim.add_chain("long", {a, b, c});
        const auto tail = sim.add_chain("tail", {b, c});
        sim.add_udp_flow(chain, 1.5e6);
        sim.add_udp_flow(tail, 1e6);
        nfv::fault::FaultPlan plan;
        plan.add_crash(b, 26'000'000,
                       sim.clock().from_seconds(0.005));
        plan.add_degrade(c, 52'000'000, 2.0, 26'000'000);
        sim.set_fault_plan(std::move(plan));
        nfv::obs::TraceRecorder rec;
        sim.attach_trace(rec);
        sim.run_for_seconds(0.04);
        return finish(sim, rec);
      },
      {1, 2, 4});
}

// Async I/O plus a device fault: the disk and its fault window live on the
// I/O NF's lane; lanes without I/O must not see device-fault events at all.
TEST(ShardDeterminism, DeviceFaultWithAsyncIo) {
  expect_identical(
      [](std::uint32_t shards) {
        PlatformConfig cfg;
        cfg.sim_shards = shards;
        Simulation sim(cfg);
        const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
        const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
        const auto logger =
            sim.add_nf("logger", c0, nfv::nf::CostModel::fixed(300));
        const auto fwd = sim.add_nf("fwd", c1, nfv::nf::CostModel::fixed(150));
        const auto chain = sim.add_chain("logged", {logger, fwd});
        nfv::io::AsyncIoEngine::Config io_cfg;
        io_cfg.mode = nfv::io::AsyncIoEngine::Mode::kDoubleBuffered;
        io_cfg.buffer_bytes = 64 * 1024;
        auto& io_engine = sim.attach_io(logger, io_cfg);
        sim.nf(logger).set_handler([&io_engine](nfv::pktio::Mbuf& pkt) {
          io_engine.write(pkt.size_bytes);
          return nfv::nf::NfAction::kForward;
        });
        sim.add_udp_flow(chain, 2e6);
        nfv::fault::FaultPlan plan;
        plan.add_device_slow(sim.clock().from_seconds(0.01), 4.0,
                             sim.clock().from_seconds(0.005));
        sim.set_fault_plan(std::move(plan));
        nfv::obs::TraceRecorder rec;
        sim.attach_trace(rec);
        sim.run_for_seconds(0.03);
        return finish(sim, rec);
      },
      {1, 2});
}

// A plan written in time order whose crash, device fault and degrade
// boundary (one window's end, the next one's start) share one instant, on
// three lanes. A lane arms its specs sorted by injection time; a plan
// already in that order keeps the order it was written in, and these bytes.
TEST(ShardDeterminism, TimeOrderedFaultsShareOneInstant) {
  expect_identical(
      [](std::uint32_t shards) {
        PlatformConfig cfg;
        cfg.sim_shards = shards;
        Simulation sim(cfg);
        const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
        const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
        const auto c2 = sim.add_core(SchedPolicy::kCfsBatch);
        const auto logger =
            sim.add_nf("logger", c0, nfv::nf::CostModel::fixed(300));
        const auto b = sim.add_nf("b", c1, nfv::nf::CostModel::fixed(250));
        const auto c = sim.add_nf("c", c2, nfv::nf::CostModel::fixed(200));
        const auto logged = sim.add_chain("logged", {logger, b, c});
        const auto tail = sim.add_chain("tail", {b, c});
        nfv::io::AsyncIoEngine::Config io_cfg;
        io_cfg.mode = nfv::io::AsyncIoEngine::Mode::kDoubleBuffered;
        io_cfg.buffer_bytes = 64 * 1024;
        auto& io_engine = sim.attach_io(logger, io_cfg);
        sim.nf(logger).set_handler([&io_engine](nfv::pktio::Mbuf& pkt) {
          io_engine.write(pkt.size_bytes);
          return nfv::nf::NfAction::kForward;
        });
        sim.add_udp_flow(logged, 1e6);
        sim.add_udp_flow(tail, 1.5e6);
        const nfv::Cycles t = sim.clock().from_seconds(0.01);
        const nfv::Cycles window = sim.clock().from_seconds(0.005);
        nfv::fault::FaultPlan plan;
        plan.add_degrade(c, t - window, 2.0, window);  // ends at t
        plan.add_crash(b, t, window);
        plan.add_device_slow(t, 3.0, window);
        plan.add_degrade(c, t, 1.5, window);  // starts at t
        sim.set_fault_plan(std::move(plan));
        nfv::obs::TraceRecorder rec;
        sim.attach_trace(rec);
        sim.run_for_seconds(0.03);
        return finish(sim, rec);
      },
      {1, 2, 4});
}

// Every share controller armed at once, on chains that cross lanes: the
// SLO boost and push-aside both on, two classed chains the admission gate
// sheds between, and a crash with a restart. The overload stops at 20 ms,
// so the grabs are given back before the end. The pins cover the bytes
// each controller writes: boosts, grabs and give-backs, sheds, lifecycle
// edges and the shares they all feed.
TEST(ShardDeterminism, BoostPushAsideAdmissionAndCrash) {
  expect_identical(
      [](std::uint32_t shards) {
        PlatformConfig cfg;
        cfg.sim_shards = shards;
        cfg.manager.slo.enabled = true;
        cfg.manager.push_aside.enabled = true;
        Simulation sim(cfg);
        const auto c0 = sim.add_core(SchedPolicy::kCfsNormal);
        const auto c1 = sim.add_core(SchedPolicy::kCfsNormal);
        nfv::core::NfOptions gold_opts;
        gold_opts.priority = 2.0;
        gold_opts.rx_capacity = 256;
        const auto gate = sim.add_nf("gate", c0, nfv::nf::CostModel::fixed(600));
        const auto gold_nf = sim.add_nf(
            "gold_nf", c1, nfv::nf::CostModel::fixed(1200), gold_opts);
        const auto bulk_nf =
            sim.add_nf("bulk_nf", c1, nfv::nf::CostModel::fixed(50));
        const auto hog = sim.add_nf("hog", c1, nfv::nf::CostModel::fixed(600));
        const auto gold = sim.add_chain("gold", {gate, gold_nf});
        const auto bulk = sim.add_chain("bulk", {gate, bulk_nf});
        const auto hog_chain = sim.add_chain("hog", {hog});
        sim.set_chain_slo(gold, 300.0);
        sim.set_chain_class(gold, /*priority=*/4.0, /*utility=*/10.0);
        sim.set_chain_class(bulk, /*priority=*/1.0, /*utility=*/2.0);
        nfv::core::UdpOptions overload;
        overload.stop_seconds = 0.02;
        sim.add_udp_flow(gold, 0.5e6);
        sim.add_udp_flow(bulk, 8e6, overload);
        sim.add_udp_flow(hog_chain, 5e6, overload);
        nfv::fault::FaultPlan plan;
        plan.add_crash(bulk_nf, sim.clock().from_seconds(0.005),
                       sim.clock().from_seconds(0.002));
        sim.set_fault_plan(std::move(plan));
        nfv::obs::TraceRecorder rec;
        sim.attach_trace(rec);
        sim.run_for_seconds(0.075);

        // Every controller acted, so every pinned path wrote bytes.
        bool boosted = false;
        std::uint64_t grabs = 0;
        std::uint64_t givebacks = 0;
        for (const auto& ev : rec.events()) {
          const auto d = rec.decode(ev);
          if (d.name == "chain_boost" && d.num_args.at(0).second > 1000) {
            boosted = true;
          }
          grabs += d.name == "grab" ? 1 : 0;
          givebacks += d.name == "give_back" ? 1 : 0;
        }
        EXPECT_TRUE(boosted) << "no SLO boost rose above 1";
        EXPECT_GT(grabs, 0u);
        EXPECT_GT(givebacks, 0u);
        EXPECT_GT(sim.chain_admission_report(bulk).engagements, 0u);
        EXPECT_EQ(sim.nf_lifecycle_stats(bulk_nf).crashes, 1u);
        EXPECT_EQ(sim.nf_lifecycle_stats(bulk_nf).recoveries, 1u);
        return finish(sim, rec);
      },
      {1, 2, 4});
}

/// A merged counter's value in a report_json() document; 0 when absent.
std::uint64_t report_counter(const std::string& report,
                             const std::string& name) {
  const std::size_t at = report.find("\"name\":\"" + name + "\"");
  if (at == std::string::npos) return 0;
  const std::string key = "\"value\":";
  const std::size_t value = report.find(key, at);
  return std::stoull(report.substr(value + key.size()));
}

// micro_shard's topology squeezed against a 96-descriptor pool: runs of
// packets for one NF arrive while the receiving lane's pool cannot take
// them whole, so the one-message fallback runs and drops at the cap.
TEST(ShardDeterminism, CrossLaneRunsMeetThePoolCap) {
  expect_identical(
      [](std::uint32_t shards) {
        PlatformConfig cfg;
        cfg.sim_shards = shards;
        cfg.rx_capacity = 128;
        cfg.mempool_capacity = 96;
        Simulation sim(cfg);
        std::vector<nfv::flow::NfId> front, back;
        for (int i = 0; i < 4; ++i) {
          const auto core = sim.add_core(SchedPolicy::kCfsBatch);
          front.push_back(sim.add_nf("f" + std::to_string(i), core,
                                     nfv::nf::CostModel::fixed(900)));
          back.push_back(sim.add_nf("b" + std::to_string(i), core,
                                    nfv::nf::CostModel::fixed(1400)));
        }
        const auto ring = sim.add_chain("ring", front);
        sim.add_udp_flow(ring, 4e6);
        sim.add_udp_flow(sim.add_chain("pair_a", {back[1], back[2]}), 3e6);
        sim.add_udp_flow(sim.add_chain("pair_b", {back[3], back[0]}), 3e6);
        sim.add_tcp_flow(ring);
        nfv::obs::TraceRecorder rec;
        sim.attach_trace(rec);
        sim.run_for_seconds(0.01);
        RunArtifacts out = finish(sim, rec);
        if (shards > 0) {
          EXPECT_GT(report_counter(out.report, "mgr.shard_alloc_drops"), 0u);
        }
        return out;
      },
      {1, 2, 4});
}

// A run of messages due at one instant is one engine dispatch, and still
// counts one event per message in the lane runtime's dispatched_events()
// and the lanes' sim.dispatched_events probes. A run may span mailboxes.
TEST(ShardRuntime, SameInstantRunIsOneEngineDispatch) {
  using nfv::mgr::ShardMsg;
  const nfv::mgr::ManagerConfig mgr_cfg;
  nfv::flow::ChainRegistry chains;
  nfv::core::ShardRuntime rt(3, mgr_cfg, {}, 64, chains);
  for (int i = 0; i < 3; ++i) rt.add_core();
  ASSERT_EQ(rt.lanes().size(), 3u);
  constexpr nfv::Cycles kL = nfv::mgr::kCrossLaneLatency;
  rt.run_until(kL);  // builds the mailboxes; no lane has an event yet
  ASSERT_EQ(rt.dispatched_events(), 0u);

  const auto post = [&rt](std::uint32_t src, nfv::flow::FlowId flow,
                          nfv::Cycles when) {
    ShardMsg msg;
    msg.kind = ShardMsg::Kind::kEcnMark;
    msg.when = when;
    msg.pkt.flow_id = flow;
    rt.post(src, 0, msg);
  };
  // Drained in source order: five messages due at 2L (three from lane 1,
  // two from lane 2), then one due at 2L + 1.
  for (const nfv::flow::FlowId flow : {0u, 1u, 0u}) post(1, flow, 2 * kL);
  for (const nfv::flow::FlowId flow : {1u, 0u}) post(2, flow, 2 * kL);
  post(2, 2, 2 * kL + 1);
  rt.run_until(4 * kL);

  nfv::core::Lane& lane = rt.lane(0);
  EXPECT_EQ(lane.engine.dispatched_events(), 2u);
  EXPECT_EQ(lane.dispatched_events(), 6u);
  EXPECT_EQ(rt.dispatched_events(), 6u);
  EXPECT_EQ(
      lane.obs.metrics().sample("sim.dispatched_events").value_or(0), 6.0);
  EXPECT_EQ(lane.manager->flow_counters(0).ecn_marked, 3u);
  EXPECT_EQ(lane.manager->flow_counters(1).ecn_marked, 2u);
  EXPECT_EQ(lane.manager->flow_counters(2).ecn_marked, 1u);
  // Both runs' slots are free again, for the next drain to reuse.
  EXPECT_EQ(lane.free_slots.size(), lane.pending.size());
}

// Requesting more workers than there are lanes clamps silently; the
// artifacts still match the one-worker run bit-for-bit.
TEST(ShardDeterminism, WorkerCountBeyondLanesIsClamped) {
  expect_identical(
      [](std::uint32_t shards) {
        PlatformConfig cfg;
        cfg.sim_shards = shards;
        Simulation sim(cfg);
        const auto c0 = sim.add_core(SchedPolicy::kCfsBatch);
        const auto c1 = sim.add_core(SchedPolicy::kCfsBatch);
        const auto a = sim.add_nf("a", c0, nfv::nf::CostModel::fixed(150));
        const auto b = sim.add_nf("b", c1, nfv::nf::CostModel::fixed(450));
        const auto chain = sim.add_chain("c", {a, b});
        sim.add_udp_flow(chain, 3e6);
        nfv::obs::TraceRecorder rec;
        sim.attach_trace(rec);
        sim.run_for_seconds(0.02);
        return finish(sim, rec);
      },
      {1, 16});  // 16 workers, 2 lanes: clamped to 2
}

// Slices off the epoch grid. The run advances in 13.7 us steps — not a
// multiple of the 10 us cross-lane latency — through the traffic and, once
// it stops, until every queue and mailbox has drained. Each
// run_for_seconds call ends inside an epoch, so messages delivered at its
// last barrier stay pending into the next call while freed pending slots
// are reused. At every step the lane pools hold exactly the queued and
// in-burst packets (a packet between lanes holds no mbuf); once drained,
// conservation is exact; and the report and the per-step pool occupancy
// match at 1 and 4 workers.
TEST(ShardDeterminism, OffGridSlicesDrainExactly) {
  struct Drained {
    std::string report;
    std::vector<std::uint64_t> in_use;  ///< mbufs in use after each step
  };
  const auto run_at = [](std::uint32_t shards) {
    PlatformConfig cfg;
    cfg.sim_shards = shards;
    Simulation sim(cfg);
    // bench/micro_shard's topology: every chain crosses lanes.
    std::vector<nfv::flow::NfId> front, back;
    for (int i = 0; i < 4; ++i) {
      const auto core = sim.add_core(SchedPolicy::kCfsBatch);
      front.push_back(sim.add_nf("f" + std::to_string(i), core,
                                 nfv::nf::CostModel::fixed(220)));
      back.push_back(sim.add_nf("b" + std::to_string(i), core,
                                nfv::nf::CostModel::fixed(340)));
    }
    const std::vector<nfv::flow::ChainId> chains = {
        sim.add_chain("ring", front),
        sim.add_chain("pair_a", {back[1], back[2]}),
        sim.add_chain("pair_b", {back[3], back[0]})};
    constexpr double kStop = 0.003;
    sim.add_udp_flow(chains[0], 2.5e6, {.stop_seconds = kStop});
    sim.add_udp_flow(chains[1], 2e6, {.stop_seconds = kStop});
    sim.add_udp_flow(chains[2], 2e6, {.stop_seconds = kStop});
    sim.add_tcp_flow(chains[0], {.stop_seconds = kStop});
    std::vector<nfv::flow::NfId> nfs = front;
    nfs.insert(nfs.end(), back.begin(), back.end());

    Drained out;
    for (int step = 1;; ++step) {
      sim.run_for_seconds(13.7e-6);
      std::uint64_t queued = 0;
      std::uint64_t sunk = 0;
      for (const auto nf : nfs) {
        const auto& task = sim.nf(nf);
        queued += task.rx_ring().size() + task.tx_ring().size() +
                  task.in_flight_packets();
        const auto m = sim.nf_metrics(nf);
        sunk += m.rx_full_drops + m.crash_drops + task.counters().handler_drops;
      }
      std::uint64_t admitted = 0;
      for (const auto chain : chains) {
        admitted += sim.chain_metrics(chain).entry_admitted;
        sunk += sim.chain_metrics(chain).egress_packets;
      }
      out.in_use.push_back(sim.mbufs_in_use());
      EXPECT_EQ(sim.mbufs_in_use(), queued) << "step " << step;
      // Admitted packets not yet egressed or dropped are queued, in a
      // burst, or between lanes.
      EXPECT_GE(admitted, sunk + queued) << "step " << step;
      if (sim.now_seconds() > kStop && queued == 0 && admitted == sunk) break;
      if (step == 5'000) {
        ADD_FAILURE() << "no drain after " << step << " off-grid steps";
        break;
      }
    }
    EXPECT_EQ(sim.mbufs_in_use(), 0u);
    out.report = sim.report_json();
    return out;
  };
  const Drained one = run_at(1);
  EXPECT_GT(one.in_use.size(), 220u);  // 3 ms of traffic, then the drain
  const Drained four = run_at(4);
  EXPECT_EQ(one.in_use, four.in_use);
  EXPECT_TRUE(one.report == four.report) << "report diverges at 4 workers";
}

/// Run `run_capped` uncapped and at each cap: the capped recorder must
/// store exactly the uncapped trace's first `cap` events and count every
/// other event as dropped.
void expect_capped_prefix(
    const std::function<std::unique_ptr<nfv::obs::TraceRecorder>(std::size_t)>&
        run_capped,
    const std::vector<std::size_t>& caps, const std::string& label) {
  const auto full = run_capped(std::numeric_limits<std::size_t>::max());
  const std::size_t total = full->events().size();
  ASSERT_EQ(full->dropped_events(), 0u);
  for (const std::size_t cap : caps) {
    ASSERT_LT(cap, total) << label;
    const auto capped = run_capped(cap);
    ASSERT_EQ(capped->events().size(), cap) << label;
    EXPECT_EQ(capped->events().size() + capped->dropped_events(), total)
        << label << " cap=" << cap;
    for (std::size_t i = 0; i < cap; ++i) {
      ASSERT_TRUE(capped->decode(capped->events()[i]) ==
                  full->decode(full->events()[i]))
          << label << " cap=" << cap << " event " << i;
    }
  }
}

// The trace cap when lanes buffer events: a capped recorder holds exactly
// the uncapped trace's first N events and counts every other one as
// dropped, whichever run window the cap falls in.
TEST(ShardDeterminism, TraceCapKeepsTheUncappedPrefix) {
  const auto run = [](std::uint32_t shards, std::size_t max_events) {
    PlatformConfig cfg;
    cfg.sim_shards = shards;
    Simulation sim(cfg);
    std::vector<nfv::flow::NfId> nfs;
    for (int i = 0; i < 4; ++i) {
      const auto core = sim.add_core(SchedPolicy::kCfsBatch);
      nfs.push_back(sim.add_nf("nf" + std::to_string(i), core,
                               nfv::nf::CostModel::fixed(300 + 90 * i)));
    }
    const auto ring = sim.add_chain("ring", {nfs[0], nfs[1], nfs[2], nfs[3]});
    const auto pair = sim.add_chain("pair", {nfs[3], nfs[1]});
    sim.add_udp_flow(ring, 6e6);
    sim.add_udp_flow(pair, 4e6);
    sim.add_tcp_flow(ring);
    nfv::obs::TraceRecorder::Config tc;
    tc.max_events = max_events;
    auto rec = std::make_unique<nfv::obs::TraceRecorder>(tc);
    sim.attach_trace(*rec);
    sim.run_for_seconds(0.003);
    sim.run_for_seconds(0.003);
    return rec;
  };
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    // 16,199 events, 427 of them in the first window: caps inside each
    // window and at the first one's edge (the second window then starts
    // with room 0 or 1).
    expect_capped_prefix(
        [&](std::size_t cap) { return run(shards, cap); },
        {1, 100, 427, 428, 8'000, 16'198}, "shards=" + std::to_string(shards));
  }
}

// A lane's stream is not timestamp-monotone: with backpressure on, the
// entry drops of a traffic burst carry their packets' earlier arrival
// times. One lane recording the whole trace makes every cap a lane cap,
// and a lane that kept its first N recorded events instead of its N
// earliest misses events at several of these caps (63-65 and 72-73, for
// instance).
TEST(ShardDeterminism, TraceCapIsExactWhenOneLaneRecordsEverything) {
  std::vector<std::size_t> caps;
  for (std::size_t cap = 1; cap <= 120; ++cap) caps.push_back(cap);
  expect_capped_prefix(
      [](std::size_t max_events) {
        PlatformConfig cfg;
        cfg.sim_shards = 1;
        cfg.set_nfvnice(true);
        Simulation sim(cfg);
        const auto core = sim.add_core(SchedPolicy::kCfsBatch);
        const auto a = sim.add_nf("low", core, nfv::nf::CostModel::fixed(120));
        const auto b = sim.add_nf("med", core, nfv::nf::CostModel::fixed(270));
        const auto c = sim.add_nf("high", core, nfv::nf::CostModel::fixed(550));
        sim.add_udp_flow(sim.add_chain("c", {a, b, c}), 6e6);
        nfv::obs::TraceRecorder::Config tc;
        tc.max_events = max_events;
        auto rec = std::make_unique<nfv::obs::TraceRecorder>(tc);
        sim.attach_trace(*rec);
        sim.run_for_seconds(0.003);
        sim.run_for_seconds(0.003);
        return rec;
      },
      caps, "one lane");
}

}  // namespace
