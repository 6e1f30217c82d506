#include "config/loader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

#include "obs/trace.hpp"

namespace nfv::config {
namespace {

using core::Simulation;

TEST(ConfigLoader, MinimalTopology) {
  Simulation sim;
  const auto topo = load_string(R"(
    # a one-NF deployment
    core batch
    nf fwd core=0 cost=120
    chain c fwd
    udp c rate=1e5
  )",
                                sim);
  EXPECT_EQ(topo.cores.size(), 1u);
  EXPECT_EQ(topo.nfs.size(), 1u);
  EXPECT_EQ(topo.chains.size(), 1u);
  EXPECT_EQ(topo.flows.size(), 1u);
  sim.run_for_seconds(0.05);
  EXPECT_GT(sim.chain_metrics(topo.chains.at("c")).egress_packets, 4000u);
}

TEST(ConfigLoader, FullFig7Topology) {
  Simulation sim;
  const auto topo = load_string(R"(
    mode nfvnice
    core batch
    nf low core=0 cost=120
    nf med core=0 cost=270
    nf high core=0 cost=550
    chain lmh low med high
    udp lmh rate=6e6 size=64
  )",
                                sim);
  sim.run_for_seconds(0.1);
  const auto cm = sim.chain_metrics(topo.chains.at("lmh"));
  EXPECT_GT(cm.egress_packets, 150'000u);     // ~2.7 Mpps under NFVnice
  EXPECT_GT(cm.entry_throttle_drops, 10'000u);  // backpressure active
}

TEST(ConfigLoader, ModeDirectiveTogglesFeatures) {
  Simulation sim;
  load_string("mode default\n", sim);
  EXPECT_FALSE(sim.manager().config().enable_cgroups);
  EXPECT_FALSE(sim.manager().config().enable_backpressure);
  load_string("mode cgroup\n", sim);
  EXPECT_TRUE(sim.manager().config().enable_cgroups);
  EXPECT_FALSE(sim.manager().config().enable_backpressure);
  load_string("mode backpressure\n", sim);
  EXPECT_TRUE(sim.manager().config().enable_backpressure);
  load_string("mode nfvnice\n", sim);
  EXPECT_TRUE(sim.manager().config().enable_ecn);
}

// `mode` reaches every lane's Manager wherever it sits in the file: before
// or after the cores, it reproduces the in-code PlatformConfig::set_nfvnice
// run byte-for-byte, with every core in one lane and with a lane per core.
TEST(ConfigLoader, ModeDirectiveReachesEveryLane) {
  const std::string topology = R"(
    core batch
    core batch
    nf a core=0 cost=300
    nf b core=1 cost=600
    chain ab a b
    udp ab rate=3e6
  )";
  for (const std::uint32_t shards : {0u, 2u}) {
    for (const bool nfvnice : {false, true}) {
      core::PlatformConfig cfg;
      cfg.sim_shards = shards;
      cfg.set_nfvnice(nfvnice);
      Simulation in_code(cfg);
      load_string(topology, in_code);
      in_code.run_for_seconds(0.02);
      const std::string expected = in_code.report_json();

      const std::string mode = nfvnice ? "mode nfvnice\n" : "mode default\n";
      for (const bool mode_first : {true, false}) {
        core::PlatformConfig opposite;
        opposite.sim_shards = shards;
        opposite.set_nfvnice(!nfvnice);
        Simulation sim(opposite);
        load_string(mode_first ? mode + topology : topology + mode, sim);
        sim.run_for_seconds(0.02);
        EXPECT_EQ(sim.report_json(), expected)
            << "shards=" << shards << " " << mode
            << (mode_first ? "before" : "after") << " the cores";
      }
    }
  }
}

TEST(ConfigLoader, RrCoreWithQuantum) {
  Simulation sim;
  const auto topo = load_string(R"(
    core rr 1
    nf a core=0 cost=100
    chain c a
  )",
                                sim);
  EXPECT_EQ(topo.cores.size(), 1u);
}

TEST(ConfigLoader, NfOptionsParsed) {
  Simulation sim;
  const auto topo = load_string(R"(
    core batch
    nf vip core=0 cost=500 priority=4.0 batch=16
  )",
                                sim);
  EXPECT_DOUBLE_EQ(sim.nf(topo.nfs.at("vip")).priority(), 4.0);
  EXPECT_EQ(sim.nf(topo.nfs.at("vip")).config().batch_size, 16u);
}

TEST(ConfigLoader, TcpFlowOptions) {
  Simulation sim;
  const auto topo = load_string(R"(
    core batch
    nf a core=0 cost=100
    chain c a
    tcp c size=1500 rtt_us=500 start=0.01
  )",
                                sim);
  EXPECT_EQ(topo.flows.count("tcp0"), 1u);
  sim.run_for_seconds(0.05);
  EXPECT_GT(sim.manager().flow_counters(topo.flows.at("tcp0")).egress_packets,
            100u);
}

TEST(ConfigLoader, CommentsAndBlankLinesIgnored) {
  Simulation sim;
  EXPECT_NO_THROW(load_string("\n  # just a comment\n\ncore batch # tail\n",
                              sim));
}

TEST(ConfigLoader, ErrorsCarryLineNumbers) {
  Simulation sim;
  try {
    load_string("core batch\nbogus directive\n", sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

// Non-finite and out-of-range numbers are refused with the offending line
// before they are narrowed into an integer field (converting a double
// outside the target type's range is undefined behaviour) or reach a
// component's preconditions (a source's rate must be positive). Every
// time value goes through one checked conversion to cycles, which refuses
// a negative time (it must not load as 0) and one whose cycle count
// overflows Cycles (that float-to-integer conversion is undefined).
TEST(ConfigLoader, OutOfRangeNumbersCarryLineNumbers) {
  const std::string prelude = "core batch\nnf a core=0 cost=1\nchain c a\n";
  struct Case {
    const char* lines;  ///< appended to the prelude
    int line;
    const char* key;  ///< the option the error must name
  };
  const Case cases[] = {
      {"udp c size=70000", 4, "size"},
      {"udp c size=-1", 4, "size"},
      {"udp c classes=300", 4, "classes"},
      {"udp c rate=0", 4, "rate"},
      {"udp c rate=-5", 4, "rate"},
      {"udp c rate=nan", 4, "rate"},
      {"nf b core=0 batch=-1", 4, "batch"},
      {"nf b core=0 cost=nan", 4, "cost"},
      {"nf b core=0 cost=1e30", 4, "cost"},
      {"io a buffer=-1", 4, "buffer"},
      {"io a mode=async\nio_retry a max=1e20 backoff_us=10", 5, "max"},
      {"slo c target_us=5abc", 4, "target_us"},
      {"udp c rate=1e6 start=1e20", 4, "start"},
      {"udp c rate=1e6 start=-5", 4, "start"},
      {"fault crash a at=1e300", 4, "at"},
      {"udp c rate=1e6 stop=-1", 4, "stop"},
      {"tcp c rtt_us=1e300", 4, "rtt_us"},
      {"core rr -1", 4, "rr quantum"},
      {"io a flush_us=-3", 4, "flush_us"},
      {"io a mode=async\nio_timeout a us=1e300", 5, "us"},
      {"io a mode=async\nio_retry a max=2 backoff_us=1e300", 5, "backoff_us"},
      {"fault crash a at=0.1 restart_after=-1", 4, "restart_after"},
      {"fault slow a at=0.1 factor=2 for=1e300", 4, "for"},
      {"device_fault wedge at=-0.5", 4, "at"},
      {"device_fault wedge at=0.1 for=-2", 4, "for"},
      {"slo c target_us=1e300", 4, "target_us"},
      {"udp c rate=1e6\nfault slow a at=0.001 factor=1e300 for=0.002", 5,
       "factor"},
      {"udp c rate=1e6\nio a mode=sync\ndevice_fault slow at=0.001 "
       "factor=1e300\nfault crash a at=0.002",
       6, "factor"},
  };
  for (const Case& c : cases) {
    Simulation sim;
    try {
      load_string(prelude + c.lines + "\n", sim);
      ADD_FAILURE() << "accepted: " << c.lines;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.line(), c.line) << c.lines;
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << c.lines << " -> " << e.what();
    }
  }
}

TEST(ConfigLoader, UnknownNfInChainFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nchain c ghost\n", sim), ConfigError);
}

TEST(ConfigLoader, UnknownCoreFails) {
  Simulation sim;
  EXPECT_THROW(load_string("nf a core=9 cost=1\n", sim), ConfigError);
}

TEST(ConfigLoader, DuplicateNfFails) {
  Simulation sim;
  EXPECT_THROW(
      load_string("core batch\nnf a core=0 cost=1\nnf a core=0 cost=2\n", sim),
      ConfigError);
}

TEST(ConfigLoader, BadNumberFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nnf a core=0 cost=abc\n", sim),
               ConfigError);
}

TEST(ConfigLoader, MissingCoreOptionFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nnf a cost=100\n", sim), ConfigError);
}

TEST(ConfigLoader, UnknownFlowChainFails) {
  Simulation sim;
  EXPECT_THROW(load_string("udp ghost rate=1\n", sim), ConfigError);
}

TEST(ConfigLoader, FaultDirectivesParsed) {
  Simulation sim;
  const auto topo = load_string(R"(
    mode nfvnice
    core batch
    nf a core=0 cost=120
    nf b core=0 cost=270
    chain ab a b
    udp ab rate=2e6
    fault crash b at=0.02 restart_after=0.01
    fault slow a at=0.05 factor=2 for=0.02
    on_dead ab backpressure
  )",
                                sim);
  sim.run_for_seconds(0.1);
  // Any fault directive arms the lifecycle subsystem.
  EXPECT_NE(sim.manager().lifecycle(), nullptr);
  const auto& ls = sim.nf_lifecycle_stats(topo.nfs.at("b"));
  EXPECT_EQ(ls.crashes, 1u);
  EXPECT_EQ(ls.recoveries, 1u);
  EXPECT_EQ(sim.nf_lifecycle(topo.nfs.at("b")), fault::NfLifecycle::kRunning);
}

TEST(ConfigLoader, FaultStallAndBypassParsed) {
  Simulation sim;
  const auto topo = load_string(R"(
    core batch
    nf a core=0 cost=120
    nf b core=0 cost=150
    chain ab a b
    udp ab rate=1e6
    fault stall b at=0.02 restart_after=0.01
    on_dead ab bypass
  )",
                                sim);
  sim.run_for_seconds(0.1);
  EXPECT_EQ(sim.nf_lifecycle_stats(topo.nfs.at("b")).forced_crashes, 1u);
  EXPECT_GT(sim.manager().chain_counters(topo.chains.at("ab")).bypassed_hops,
            0u);
}

TEST(ConfigLoader, NoFaultDirectiveLeavesLifecycleDisabled) {
  Simulation sim;
  load_string("core batch\nnf a core=0 cost=100\nchain c a\n", sim);
  sim.run_for_seconds(0.001);
  EXPECT_EQ(sim.manager().lifecycle(), nullptr);
}

TEST(ConfigLoader, FaultUnknownNfFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nfault crash ghost at=0.1\n", sim),
               ConfigError);
}

TEST(ConfigLoader, FaultMissingAtFails) {
  Simulation sim;
  EXPECT_THROW(
      load_string("core batch\nnf a core=0 cost=1\nfault crash a\n", sim),
      ConfigError);
}

TEST(ConfigLoader, FaultSlowWithoutFactorFails) {
  Simulation sim;
  EXPECT_THROW(
      load_string("core batch\nnf a core=0 cost=1\nfault slow a at=0.1\n", sim),
      ConfigError);
}

TEST(ConfigLoader, FaultUnknownKindFails) {
  Simulation sim;
  EXPECT_THROW(
      load_string("core batch\nnf a core=0 cost=1\nfault melt a at=0.1\n", sim),
      ConfigError);
}

TEST(ConfigLoader, FaultUnknownOptionFails) {
  Simulation sim;
  EXPECT_THROW(load_string(
                   "core batch\nnf a core=0 cost=1\nfault crash a at=0.1 x=2\n",
                   sim),
               ConfigError);
}

// Overlap validation happens in FaultPlan; the loader must rewrap the
// FaultError as a ConfigError that carries the offending line.
TEST(ConfigLoader, OverlappingFaultsCarryLineNumbers) {
  Simulation sim;
  try {
    load_string(
        "core batch\n"
        "nf a core=0 cost=1\n"
        "fault crash a at=0.1 restart_after=0.1\n"
        "fault stall a at=0.15\n",
        sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos);
  }
}

TEST(ConfigLoader, OnDeadUnknownChainFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\non_dead ghost bypass\n", sim),
               ConfigError);
}

TEST(ConfigLoader, OnDeadUnknownPolicyFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nnf a core=0 cost=1\nchain c a\n"
                           "on_dead c explode\n",
                           sim),
               ConfigError);
}

// -- storage fault domain directives (DESIGN.md §12) -------------------------

TEST(ConfigLoader, IoDirectivesParsed) {
  Simulation sim;
  const auto topo = load_string(R"(
    core batch
    nf a core=0 cost=120
    chain c a
    udp c rate=1e5
    io a mode=async buffer=4096 flush_us=500
    io_timeout a us=100
    io_retry a max=3 backoff_us=10 multiplier=1.5 jitter=0.2
    on_io_fail a shed
  )",
                                sim);
  ASSERT_EQ(topo.ios.count("a"), 1u);
  const auto& cfg = topo.ios.at("a")->config();
  EXPECT_EQ(cfg.mode, io::AsyncIoEngine::Mode::kDoubleBuffered);
  EXPECT_EQ(cfg.buffer_bytes, 4096u);
  EXPECT_EQ(cfg.flush_interval, sim.clock().from_micros(500));
  EXPECT_EQ(cfg.io_timeout, sim.clock().from_micros(100));
  EXPECT_EQ(cfg.max_attempts, 3u);
  EXPECT_EQ(cfg.retry_backoff, sim.clock().from_micros(10));
  EXPECT_DOUBLE_EQ(cfg.backoff_multiplier, 1.5);
  EXPECT_DOUBLE_EQ(cfg.jitter_fraction, 0.2);
  EXPECT_EQ(cfg.on_fail, io::AsyncIoEngine::OnIoFail::kShed);
  EXPECT_TRUE(topo.ios.at("a")->fault_domain_enabled());
}

TEST(ConfigLoader, DeviceFaultDirectiveArmsTheDevice) {
  Simulation sim;
  load_string(R"(
    core batch
    nf a core=0 cost=120
    chain c a
    udp c rate=1e5
    io a mode=sync
    device_fault wedge at=0.01
  )",
              sim);
  sim.run_for_seconds(0.02);
  EXPECT_TRUE(sim.disk().wedged());  // the plan reached the device
}

TEST(ConfigLoader, IoTimeoutWithoutIoLineFails) {
  Simulation sim;
  try {
    load_string("core batch\nnf a core=0 cost=1\nio_timeout a us=100\n", sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("no io engine"), std::string::npos);
  }
}

TEST(ConfigLoader, DuplicateIoLineFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nnf a core=0 cost=1\n"
                           "io a mode=async\nio a mode=sync\n",
                           sim),
               ConfigError);
}

TEST(ConfigLoader, IoRetryValidatesRanges) {
  Simulation sim;
  const std::string prelude =
      "core batch\nnf a core=0 cost=1\nio a mode=async\n";
  EXPECT_THROW(load_string(prelude + "io_retry a max=0 backoff_us=10\n", sim),
               ConfigError);
  EXPECT_THROW(load_string(prelude + "io_retry a max=2\n", sim), ConfigError);
  EXPECT_THROW(
      load_string(prelude + "io_retry a max=2 backoff_us=10 jitter=1.0\n", sim),
      ConfigError);
}

TEST(ConfigLoader, OnIoFailUnknownPolicyFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nnf a core=0 cost=1\n"
                           "io a mode=async\non_io_fail a explode\n",
                           sim),
               ConfigError);
}

TEST(ConfigLoader, DeviceFaultValidation) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\ndevice_fault slow at=0.1\n", sim),
               ConfigError);  // slow needs factor=
  EXPECT_THROW(load_string("core batch\ndevice_fault torn at=0.1\n", sim),
               ConfigError);  // torn needs fraction=
  EXPECT_THROW(load_string("core batch\ndevice_fault melt at=0.1\n", sim),
               ConfigError);  // unknown kind
  EXPECT_THROW(load_string("core batch\ndevice_fault wedge for=0.1\n", sim),
               ConfigError);  // missing at=
}

// Device-window overlap validation happens in FaultPlan; the loader must
// rewrap the FaultError with the offending line.
TEST(ConfigLoader, OverlappingDeviceFaultsCarryLineNumbers) {
  Simulation sim;
  try {
    load_string(
        "core batch\n"
        "device_fault wedge at=0.1 for=0.1\n"
        "device_fault error at=0.15 for=0.1\n",
        sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos);
  }
}

// -- slo directive (DESIGN.md §16) ------------------------------------------

TEST(ConfigLoader, SloDirectiveSetsChainTarget) {
  Simulation sim;
  const auto topo = load_string(R"(
    core batch
    nf fwd core=0 cost=120
    chain c fwd
    slo c target_us=150
    udp c rate=1e5
  )",
                                sim);
  sim.run_for_seconds(0.05);
  const auto report = sim.chain_slo_report(topo.chains.at("c"));
  EXPECT_EQ(report.target, sim.clock().from_micros(150.0));
  EXPECT_GT(report.tail.total_count, 0u);
}

TEST(ConfigLoader, SloZeroTargetClears) {
  Simulation sim;
  const auto topo = load_string(
      "core batch\nnf fwd core=0 cost=120\nchain c fwd\n"
      "slo c target_us=150\nslo c target_us=0\n",
      sim);
  EXPECT_EQ(sim.chain_slo_report(topo.chains.at("c")).target, 0u);
}

TEST(ConfigLoader, SloUnknownChainFails) {
  Simulation sim;
  EXPECT_THROW(load_string("core batch\nslo ghost target_us=10\n", sim),
               ConfigError);
}

TEST(ConfigLoader, SloBadOptionFails) {
  Simulation sim;
  EXPECT_THROW(
      load_string("core batch\nnf f core=0 cost=10\nchain c f\nslo c p99=5\n",
                  sim),
      ConfigError);
  Simulation sim2;
  EXPECT_THROW(
      load_string(
          "core batch\nnf f core=0 cost=10\nchain c f\nslo c target_us=-2\n",
          sim2),
      ConfigError);
  Simulation sim3;
  EXPECT_THROW(
      load_string(
          "core batch\nnf f core=0 cost=10\nchain c f\nslo c target_us=abc\n",
          sim3),
      ConfigError);
}

// -- class directive (DESIGN.md §17) ----------------------------------------

TEST(ConfigLoader, ClassDirectiveRegistersFlowClass) {
  Simulation sim;
  const auto topo = load_string(R"(
    mode nfvnice
    core batch
    nf fwd core=0 cost=120
    chain gold fwd
    chain bulk fwd
    class gold priority=4 utility=10
    class bulk utility=2
  )",
                                sim);
  const auto gr = sim.chain_admission_report(topo.chains.at("gold"));
  ASSERT_TRUE(gr.classed);
  EXPECT_DOUBLE_EQ(gr.priority, 4.0);
  EXPECT_DOUBLE_EQ(gr.utility, 10.0);
  const auto br = sim.chain_admission_report(topo.chains.at("bulk"));
  ASSERT_TRUE(br.classed);
  EXPECT_DOUBLE_EQ(br.priority, 1.0);  // omitted options keep defaults
  EXPECT_DOUBLE_EQ(br.utility, 2.0);
}

TEST(ConfigLoader, ClassUnknownChainFails) {
  Simulation sim;
  try {
    load_string("core batch\nclass ghost priority=1\n", sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
  }
}

TEST(ConfigLoader, DuplicateClassCarriesLineNumber) {
  Simulation sim;
  try {
    load_string(
        "core batch\n"
        "nf f core=0 cost=10\n"
        "chain c f\n"
        "class c utility=5\n"
        "class c utility=7\n",
        sim);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), 5);
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(ConfigLoader, ClassValidatesRanges) {
  const std::string prelude = "core batch\nnf f core=0 cost=10\nchain c f\n";
  Simulation sim;
  EXPECT_THROW(load_string(prelude + "class c priority=0\n", sim),
               ConfigError);
  Simulation sim2;
  EXPECT_THROW(load_string(prelude + "class c utility=-3\n", sim2),
               ConfigError);
  Simulation sim3;
  EXPECT_THROW(load_string(prelude + "class c priority=1001\n", sim3),
               ConfigError);
  Simulation sim4;
  EXPECT_THROW(load_string(prelude + "class c utility=nan\n", sim4),
               ConfigError);
}

TEST(ConfigLoader, ClassBadOptionFails) {
  const std::string prelude = "core batch\nnf f core=0 cost=10\nchain c f\n";
  Simulation sim;
  EXPECT_THROW(load_string(prelude + "class c weight=5\n", sim), ConfigError);
  Simulation sim2;
  EXPECT_THROW(load_string(prelude + "class c priority\n", sim2), ConfigError);
  Simulation sim3;
  EXPECT_THROW(load_string(prelude + "class c utility=abc\n", sim3),
               ConfigError);
  Simulation sim4;
  EXPECT_THROW(load_string(prelude + "class\n", sim4), ConfigError);
}


// -- input the loader must refuse, not ignore or misapply -------------------

/// Load `prelude + lines` and expect a ConfigError on `line` naming `key`.
void expect_refused(const std::string& lines, int line, const char* key) {
  const std::string prelude = "core batch\nnf a core=0 cost=1\nchain c a\n";
  Simulation sim;
  try {
    load_string(prelude + lines + "\n", sim);
    ADD_FAILURE() << "accepted: " << lines;
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.line(), line) << lines;
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << lines << " -> " << e.what();
  }
}

// io_retry multiplier has class priority's range, (0, 1000]: a 10 us
// backoff times 1e30 per attempt overflows any delay the engine can wait.
TEST(ConfigLoader, IoRetryMultiplierIsRanged) {
  const std::string io = "io a mode=async\nio_retry a max=3 backoff_us=10 ";
  expect_refused(io + "multiplier=1e30", 5, "multiplier");
  expect_refused(io + "multiplier=0", 5, "multiplier");
  expect_refused(io + "multiplier=-2", 5, "multiplier");
}

// A non-positive NF priority zeroes its core's total weight, and the share
// update then skips the whole core; nf priority has class priority's range.
TEST(ConfigLoader, NfPriorityIsRanged) {
  expect_refused("nf b core=0 cost=1 priority=-5", 4, "priority");
  expect_refused("nf b core=0 cost=1 priority=0", 4, "priority");
  expect_refused("nf b core=0 cost=1 priority=1001", 4, "priority");
}

// Each directive declares its positional arity: trailing tokens are an
// error, not silently dropped.
TEST(ConfigLoader, CoreRefusesTrailingTokens) {
  expect_refused("core batch junk", 4, "core");
  expect_refused("core normal 5", 4, "core");
}

TEST(ConfigLoader, RrCoreTakesOneQuantum) {
  expect_refused("core rr 5 6", 4, "core");
}

TEST(ConfigLoader, OnIoFailTakesOnePolicy) {
  expect_refused("io a mode=async\non_io_fail a shed extra", 5, "on_io_fail");
}

// udp and tcp have tables of their own: a tcp flow is paced by its window,
// so a rate or cost classes on a tcp line would be ignored.
TEST(ConfigLoader, TcpRefusesUdpOptions) {
  expect_refused("tcp c rate=1e6", 4, "rate");
  expect_refused("tcp c classes=2", 4, "classes");
}

// -- the bytes of a run built from a config ---------------------------------

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a-64 of report_json() and of the Chrome trace of a config run for
/// 20 ms at one sim_shards setting. The pins below were captured at commit
/// b7d1fa7, before every option was parsed through one table.
struct BytesPin {
  std::uint32_t shards;
  std::uint64_t report;
  std::uint64_t trace;
};

void expect_pinned_bytes(const std::string& text, const BytesPin (&pins)[2]) {
  for (const BytesPin& pin : pins) {
    core::PlatformConfig cfg;
    cfg.sim_shards = pin.shards;
    Simulation sim(cfg);
    load_string(text, sim);
    obs::TraceRecorder rec;
    sim.attach_trace(rec);
    sim.run_for_seconds(0.02);
    std::ostringstream trace;
    rec.write_chrome_json(trace);
    std::ostringstream now;
    now << std::hex << std::setfill('0') << "{" << pin.shards << ", 0x"
        << std::setw(16) << fnv1a(sim.report_json()) << ", 0x"
        << std::setw(16) << fnv1a(trace.str()) << "}";
    EXPECT_EQ(fnv1a(sim.report_json()), pin.report)
        << "report bytes moved; now " << now.str();
    EXPECT_EQ(fnv1a(trace.str()), pin.trace)
        << "trace bytes moved; now " << now.str();
  }
}

// Every directive, and every key=value option at least once, reaches the
// simulation with the bytes it had before the loader became table-driven.
TEST(ConfigLoader, EveryDirectiveAndOptionKeepsItsBytes) {
  // The trace digests moved once faults were armed in injection-time order
  // (after commit 522a3fb): this plan lists the crash of b at 7 ms before
  // the slow window on a that ends at 7 ms, so a's restore is now traced
  // before b's crash at that instant. The report digests are unchanged.
  const BytesPin pins[] = {{0, 0x25ecbf2dde9c2954, 0x299558901304f11b},
                           {2, 0x389466af3411b626, 0x706080de9295e383}};
  expect_pinned_bytes(R"(
    mode nfvnice
    core batch
    core normal
    core rr 2
    nf a core=0 cost=200 priority=2 batch=16
    nf b core=0 cost=300
    nf c core=1 cost=150
    nf d core=2 cost=100
    chain ab a b
    chain cd c d
    chain bd b d
    udp ab rate=2e6 size=128 start=0.001 stop=0.018 classes=2
    tcp cd size=1000 rtt_us=150 start=0.002 stop=0.019
    udp bd rate=5e5
    io b mode=async buffer=65536 flush_us=200
    io_timeout b us=500
    io_retry b max=3 backoff_us=20 multiplier=1.5 jitter=0.2
    on_io_fail b shed
    io d mode=sync
    on_io_fail d stuck
    device_fault slow at=0.003 factor=4 for=0.002
    device_fault error at=0.006 for=0.004
    device_fault torn at=0.011 fraction=0.5 for=0.001
    device_fault wedge at=0.013 for=0.001
    fault crash b at=0.007 restart_after=0.001
    fault stall c at=0.012 restart_after=0.001
    fault slow a at=0.004 factor=2 for=0.003
    on_dead ab bypass
    on_dead cd buffer
    on_dead bd backpressure
    slo ab target_us=300
    class ab priority=2 utility=5
    class bd utility=1
  )",
                      pins);
}

// A line that omits an option leaves the facade's default in place: tcp
// keeps its 200 us RTT, udp its 64 B packets and rate, io_retry the
// engine's attempt budget, multiplier and jitter, a crash the lifecycle's
// restart delay, and a device fault runs to the end.
TEST(ConfigLoader, OmittedOptionsKeepFacadeDefaults) {
  const BytesPin pins[] = {{0, 0x7d37e31867bd7b4c, 0x37e245be53df0253},
                           {2, 0xd99fac25acccea5a, 0xaf9af9c6c7d94c45}};
  expect_pinned_bytes(R"(
    core batch
    core rr
    nf a core=0
    nf b core=1
    chain ab a b
    udp ab
    tcp ab
    io a
    io_timeout a us=300
    io_retry a backoff_us=10
    slo ab target_us=400
    class ab
    device_fault error at=0.004
    fault crash a at=0.005
  )",
                      pins);
}

}  // namespace
}  // namespace nfv::config
