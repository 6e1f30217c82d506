// The workloads, the run of one Simulation in 1 ms slices, and the output
// checks (packet conservation, report digest).
#include <algorithm>
#include <cstdio>
#include <cmath>
#include <cstdlib>
#include <streambuf>
#include <thread>

#include "nfs/dpi.hpp"
#include "nfs/firewall.hpp"
#include "nfs/monitor.hpp"
#include "nfs/nat.hpp"
#include "perfbench.hpp"

namespace perfbench {

using nfv::core::SchedPolicy;
using nfv::flow::ChainId;
using nfv::flow::NfId;
using nfv::nf::CostModel;

namespace {

constexpr double kSliceSeconds = 0.001;

/// Discards what is written and counts the bytes: trace export is timed
/// without disk I/O in the measurement.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
};

/// Integer field `"key":N` from the report's text (first occurrence after
/// `from`); 0 when absent.
std::uint64_t report_uint(const std::string& report, const std::string& key,
                          std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = report.find(needle, from);
  if (pos == std::string::npos) return 0;
  return std::strtoull(report.c_str() + pos + needle.size(), nullptr, 10);
}

/// A registry counter from the report's merged "metrics" dump.
std::uint64_t report_counter(const std::string& report, const std::string& name) {
  const auto pos = report.find("{\"name\":\"" + name + "\"");
  if (pos == std::string::npos) return 0;
  return report_uint(report, "value", pos);
}

/// Packet conservation, computed the way tests/integration/conservation_test
/// does: every packet on the wire is admitted or dropped at entry, and every
/// admitted packet is egressed, dropped in one named place, or still queued.
std::string check_conservation(Simulation& sim, const Built& b,
                               const std::string& report, Counts& c) {
  const std::uint64_t wire = report_uint(report, "wire_ingress");
  std::uint64_t admitted = 0, entry = 0, shed = 0, egress = 0;
  for (const ChainId ch : b.chains) {
    const auto m = sim.chain_metrics(ch);
    admitted += m.entry_admitted;
    entry += m.entry_throttle_drops;
    shed += m.admission_discards;
    egress += m.egress_packets;
  }
  std::uint64_t rx_full = 0, handler = 0, crash = 0, queued = 0;
  for (const NfId nf : b.nfs) {
    const auto m = sim.nf_metrics(nf);
    auto& task = sim.nf(nf);
    rx_full += m.rx_full_drops;
    crash += m.crash_drops;
    handler += task.counters().handler_drops;
    queued += task.rx_ring().size() + task.tx_ring().size() +
              task.in_flight_packets();
    c.rx_enqueues += m.arrivals;
    c.tx_enqueues += m.forwarded;
    c.processed += m.processed;
    c.downstream_drops += m.downstream_drops;
    c.cswitches += m.voluntary_switches + m.involuntary_switches;
    if (std::find(b.stateful.begin(), b.stateful.end(), nf) != b.stateful.end()) {
      c.stateful_ops += m.processed;
    }
  }
  const std::uint64_t unmatched = report_counter(report, "mgr.unmatched_drops");
  c.offered = wire;
  c.egress = egress;
  c.rx_full_drops = rx_full;
  c.entry_drops = entry;
  c.events = report_uint(report, "dispatched_events");
  if (sim.config().manager.enable_ecn) c.ecn_hops = c.rx_enqueues;

  std::string why;
  if (wire == 0 || egress == 0) why = "no traffic reached egress";
  if (wire != admitted + entry + shed + unmatched) {
    why = "wire " + std::to_string(wire) + " != admitted " +
          std::to_string(admitted) + " + entry drops " + std::to_string(entry) +
          " + shed " + std::to_string(shed) + " + unmatched " +
          std::to_string(unmatched);
  }
  const std::uint64_t accounted = egress + rx_full + handler + crash + queued;
  if (admitted != accounted) {
    why = "admitted " + std::to_string(admitted) + " != egress+drops+queued " +
          std::to_string(accounted);
  }
  if (!sim.sharded() && sim.pool().in_use() != queued) {
    why = "mbuf pool holds " + std::to_string(sim.pool().in_use()) +
          " but queues hold " + std::to_string(queued);
  }
  return why;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

nfv::core::UdpOptions udp(double stop, std::uint64_t seed) {
  nfv::core::UdpOptions o;
  o.stop_seconds = stop;
  o.seed = seed;
  return o;
}

// -- workload topologies -----------------------------------------------------------

/// Fig. 7: Low/Med/High (120/270/550 cycles) on one core, one 6 Mpps flow.
void build_fig7(Simulation& sim, Built& b, SchedPolicy policy, double rr_ms,
                double stop, std::uint64_t seed) {
  const auto core = sim.add_core(policy, rr_ms);
  b.nfs = {sim.add_nf("low", core, CostModel::fixed(120)),
           sim.add_nf("med", core, CostModel::fixed(270)),
           sim.add_nf("high", core, CostModel::fixed(550))};
  b.chains = {sim.add_chain("fig7", b.nfs)};
  sim.add_udp_flow(b.chains[0], 6e6, udp(stop, seed));
}

Plan chain_1core(std::uint64_t seed, Length len) {
  Plan p;
  p.label = "chain_1core";
  p.cfg.set_nfvnice(true);
  p.traffic_s = len == Length::kMeasure ? 0.3 : 0.05;
  p.drain_s = 0.03;
  const double stop = p.traffic_s;
  p.build = [seed, stop](Simulation& sim, Built& b) {
    build_fig7(sim, b, SchedPolicy::kCfsBatch, 100.0, stop, derive_seed(seed, 1));
  };
  return p;
}

/// Stateful chain firewall(c0) -> NAT(c1) -> monitor(c2) under a churning
/// population of 32,768 flows, plus firewall -> DPI(c3) carrying one ECN
/// TCP flow and a 0.5 Mpps UDP flow.
Plan churn_4core(std::uint64_t seed, Length len) {
  Plan p;
  p.label = "churn_4core";
  p.cfg.set_nfvnice(true);
  // 32,768 flows at 3 Mpps see a packet every ~11 ms on average; the idle
  // timeout sits well above that so live flows rarely lose their rule, and
  // retired flows keep the table at several times the live population.
  p.cfg.flow_table.idle_timeout = nfv::CpuClock().from_millis(60.0);
  p.traffic_s = len == Length::kMeasure ? 0.25 : 0.03;
  p.drain_s = 0.03;
  p.record_trace = true;
  const double stop = p.traffic_s;
  p.build = [seed, stop](Simulation& sim, Built& b) {
    std::vector<std::size_t> cores;
    for (int i = 0; i < 4; ++i) cores.push_back(sim.add_core(SchedPolicy::kCfsBatch));
    const NfId fw = sim.add_nf("firewall", cores[0], CostModel::fixed(180));
    const NfId nat = sim.add_nf("nat", cores[1], CostModel::fixed(150));
    const NfId mon = sim.add_nf("monitor", cores[2], CostModel::fixed(120));
    const NfId dpi = sim.add_nf("dpi", cores[3], CostModel::fixed(600));

    auto firewall = std::make_shared<nfv::nfs::Firewall>(
        nfv::nfs::Verdict::kAllow, 1u << 16);
    firewall->install(sim.nf(fw), nfv::nfs::Firewall::PathCosts{});
    auto napt = std::make_shared<nfv::nfs::Nat>(
        nfv::nfs::Nat::Config{.port_base = 20000, .port_count = 40000});
    napt->install(sim.nf(nat), nfv::nfs::Nat::PathCosts{150, 400, 600});
    auto monitor = std::make_shared<nfv::nfs::FlowMonitor>(1u << 16);
    monitor->install(sim.nf(mon), nfv::nfs::FlowMonitor::PathCosts{});
    auto ids = std::make_shared<nfv::nfs::Dpi>();
    ids->add_signature("planted", derive_seed(seed, 9));
    ids->install(sim.nf(dpi));
    b.keep = {firewall, napt, monitor, ids};
    b.nfs = {fw, nat, mon, dpi};
    b.stateful = {fw, nat, mon};

    const ChainId stateful = sim.add_chain("stateful", {fw, nat, mon});
    const ChainId inspect = sim.add_chain("inspect", {fw, dpi});
    b.chains = {stateful, inspect};
    nfv::core::ChurnOptions churn;
    churn.concurrent_flows = 32'768;
    churn.stop_seconds = stop;
    churn.seed = derive_seed(seed, 1);
    sim.add_churn_workload(stateful, 3e6, churn);
    nfv::core::TcpOptions tcp;
    tcp.stop_seconds = stop;
    sim.add_tcp_flow(inspect, tcp);
    sim.add_udp_flow(inspect, 0.5e6, udp(stop, derive_seed(seed, 2)));
  };
  return p;
}

/// micro_shard's topology: two NFs per core on four cores, every chain
/// crossing lanes, three UDP flows and one TCP flow.
Plan shard_4lane(std::uint64_t seed, Length len, std::uint32_t shards) {
  Plan p;
  p.label = "shard_4lane";
  p.cfg.sim_shards = shards;
  p.traffic_s = len == Length::kCheck ? 0.03 : len == Length::kScaling ? 0.25 : 0.1;
  p.drain_s = 0.01;
  const double stop = p.traffic_s;
  p.build = [seed, stop](Simulation& sim, Built& b) {
    std::vector<NfId> front, back;
    for (int i = 0; i < 4; ++i) {
      const auto core = sim.add_core(SchedPolicy::kCfsBatch);
      front.push_back(sim.add_nf("f" + std::to_string(i), core, CostModel::fixed(220)));
      back.push_back(sim.add_nf("b" + std::to_string(i), core, CostModel::fixed(340)));
    }
    b.nfs = front;
    b.nfs.insert(b.nfs.end(), back.begin(), back.end());
    const ChainId ring = sim.add_chain("ring", front);
    b.chains = {ring, sim.add_chain("pair_a", {back[1], back[2]}),
                sim.add_chain("pair_b", {back[3], back[0]})};
    sim.add_udp_flow(ring, 2.5e6, udp(stop, derive_seed(seed, 1)));
    sim.add_udp_flow(b.chains[1], 2.0e6, udp(stop, derive_seed(seed, 2)));
    sim.add_udp_flow(b.chains[2], 2.0e6, udp(stop, derive_seed(seed, 3)));
    nfv::core::TcpOptions tcp;
    tcp.stop_seconds = stop;
    sim.add_tcp_flow(ring, tcp);
  };
  return p;
}

}  // namespace

void Counts::add(const Counts& o) {
  offered += o.offered;
  egress += o.egress;
  events += o.events;
  rx_enqueues += o.rx_enqueues;
  tx_enqueues += o.tx_enqueues;
  processed += o.processed;
  downstream_drops += o.downstream_drops;
  rx_full_drops += o.rx_full_drops;
  entry_drops += o.entry_drops;
  cswitches += o.cswitches;
  stateful_ops += o.stateful_ops;
  flow_installs += o.flow_installs;
  flow_expirations += o.flow_expirations;
  trace_events += o.trace_events;
  artifact_bytes += o.artifact_bytes;
  ecn_hops += o.ecn_hops;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint32_t parallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::uint32_t>(hw, 1, 4);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"chain_1core", "churn_4core",
                                                 "shard_4lane"};
  return names;
}

Plan make_plan(const std::string& workload, std::uint64_t seed, Length length,
               std::uint32_t shards) {
  if (workload == "churn_4core") return churn_4core(seed, length);
  if (workload == "shard_4lane") return shard_4lane(seed, length, shards);
  return chain_1core(seed, length);
}

SimOutcome run_plan(const Plan& plan, bool sliced) {
  Span job_span("bench.job");
  SimOutcome out;
  out.label = plan.label;
  // Declared before the simulation so they outlive it.
  Built built;
  std::unique_ptr<nfv::obs::TraceRecorder> recorder;
  std::unique_ptr<Simulation> sim;

  const double t0 = wall_now();
  {
    Span span("core.ctor");
    sim = std::make_unique<Simulation>(plan.cfg);
  }
  const double t1 = wall_now();
  {
    Span span("core.topology");
    plan.build(*sim, built);
    if (plan.record_trace) {
      recorder = std::make_unique<nfv::obs::TraceRecorder>();
      sim->attach_trace(*recorder);
    }
  }
  const double t2 = wall_now();
  out.ctor_s = t1 - t0;
  out.topology_s = t2 - t1;

  const auto slices = static_cast<std::size_t>(
      std::llround((plan.traffic_s + plan.drain_s) / kSliceSeconds));
  if (sliced) {
    out.slice_ms.reserve(slices);
    out.pending.reserve(slices);
    for (std::size_t i = 0; i < slices; ++i) {
      Span span("core.run_slice");
      const double a = wall_now();
      sim->run_for_seconds(kSliceSeconds);
      out.slice_ms.push_back(static_cast<float>((wall_now() - a) * 1e3));
      out.pending.push_back(static_cast<std::uint32_t>(sim->engine().pending_events()));
      out.pool_peak = std::max(out.pool_peak, sim->pool().in_use());
      out.flow_peak = std::max<std::uint64_t>(out.flow_peak, sim->flow_table().size());
    }
  } else {
    sim->run_for_seconds(static_cast<double>(slices) * kSliceSeconds);
  }
  out.run_s = wall_now() - t2;
  out.sim_ms = static_cast<double>(slices);

  // report_json() is sub-millisecond for most workloads: time the best of
  // three calls, which must also serialize identically.
  std::string report;
  for (int rep = 0; rep < 3; ++rep) {
    Span span("obs.report_json");
    const double a = wall_now();
    std::string again = sim->report_json();
    const double took = wall_now() - a;
    if (rep == 0 || took < out.report_s) out.report_s = took;
    if (rep == 0) {
      report = std::move(again);
    } else if (again != report) {
      out.failure = "report_json() is not stable across calls";
    }
  }
  out.counts.artifact_bytes = report.size();
  if (recorder) {
    Span span("obs.trace_write");
    CountingBuf sink;
    std::ostream os(&sink);
    const double a = wall_now();
    recorder->write_chrome_json(os);
    out.trace_write_s = wall_now() - a;
    out.counts.artifact_bytes += sink.bytes;
    out.counts.trace_events = recorder->events().size();
  }
  out.nf_count = built.nfs.size();
  const std::string conservation = check_conservation(*sim, built, report, out.counts);
  if (out.failure.empty()) out.failure = conservation;
  out.counts.flow_installs = sim->flow_table().installs();
  out.counts.flow_expirations = sim->flow_table().expirations();
  out.digest = fnv1a(report);
  out.wall_s = wall_now() - t0;
  return out;
}

}  // namespace perfbench
