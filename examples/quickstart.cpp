// Quickstart: the paper's headline scenario (§4.2.1).
//
// Three NFs with heterogeneous costs (Low 120 / Med 270 / High 550 cycles)
// chained on ONE shared core, overloaded with 64-byte packets. Run once
// with the stock scheduler ("Default") and once with NFVnice (cgroup-based
// rate-cost proportional shares + chain backpressure) and compare
// throughput and wasted work.
//
// Build & run:  ./build/examples/quickstart
//
// The NFVnice run also demonstrates the observability layer: it attaches a
// TraceRecorder before the run and writes trace.json (load it into
// chrome://tracing or https://ui.perfetto.dev) plus report.json (the
// machine-readable counterpart of the printed report).

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "core/simulation.hpp"

namespace {

struct Result {
  double egress_mpps;
  std::uint64_t wasted_drops;
};

/// NFV_SIM_SHARDS=N (a positive integer) runs the simulation on the
/// sharded engine, one lane per core, with N workers (DESIGN.md §14).
std::uint32_t shards_from_env() {
  const char* env = std::getenv("NFV_SIM_SHARDS");
  const long v = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
  return v > 0 ? static_cast<std::uint32_t>(v) : 0;
}

Result run(bool nfvnice_on, nfv::obs::TraceRecorder* trace) {
  nfvnice::PlatformConfig cfg;
  cfg.set_nfvnice(nfvnice_on);
  cfg.sim_shards = shards_from_env();

  nfvnice::Simulation sim(cfg);
  const auto core = sim.add_core(nfvnice::SchedPolicy::kCfsBatch);
  const auto low = sim.add_nf("NF1-low", core, nfv::nf::CostModel::fixed(120));
  const auto med = sim.add_nf("NF2-med", core, nfv::nf::CostModel::fixed(270));
  const auto high = sim.add_nf("NF3-high", core, nfv::nf::CostModel::fixed(550));
  const auto chain = sim.add_chain("low-med-high", {low, med, high});

  sim.add_udp_flow(chain, /*rate_pps=*/6e6);
  if (trace != nullptr) sim.attach_trace(*trace);
  sim.run_for_seconds(0.5);

  sim.print_report(std::cout);

  if (trace != nullptr) {
    std::ofstream trace_out("trace.json");
    trace->write_chrome_json(trace_out);
    std::ofstream report_out("report.json");
    sim.report_json(report_out);
  }

  const auto cm = sim.chain_metrics(chain);
  std::uint64_t wasted = 0;
  for (nfv::flow::NfId id = 0; id < sim.nf_count(); ++id) {
    wasted += sim.nf_metrics(id).wasted_drops_here;
  }
  return {static_cast<double>(cm.egress_packets) / sim.now_seconds() / 1e6,
          wasted};
}

}  // namespace

int main() {
  std::cout << "--- Default (stock SCHED_BATCH, no NFVnice) ---\n";
  const Result base = run(false, nullptr);
  std::cout << "\n--- NFVnice (cgroups + backpressure + ECN) ---\n";
  nfv::obs::TraceRecorder trace;
  const Result nice = run(true, &trace);

  std::cout << "\nThroughput: default " << base.egress_mpps << " Mpps vs NFVnice "
            << nice.egress_mpps << " Mpps\n";
  std::cout << "Wasted-work drops: default " << base.wasted_drops
            << " vs NFVnice " << nice.wasted_drops << "\n";
  std::cout << "Wrote trace.json (" << trace.events().size()
            << " events; open in chrome://tracing) and report.json\n";
  return 0;
}
