// Sharded-engine scaling microbench (DESIGN.md §14).
//
// Builds a 4-core topology whose chains all cross lane boundaries — the
// worst case for the conservative-lookahead barrier, since every epoch
// moves packets through the cross-lane mailboxes — and runs the identical
// workload at shards=1 and shards=4. Reported:
//
//   * shard_speedup_4w     — wall-clock(shards=1) / wall-clock(shards=4).
//     Meaningful only when the host has >= 4 usable cores; the JSON carries
//     host_cores so the baseline checker can gate on it.
//   * shard_events_per_sec — report events (dispatched_events) per wall
//     second at shards=4 (the sharded substrate's absolute throughput).
//     Each delivered cross-lane message counts as one event, though a run
//     of them due at one instant is one engine dispatch.
//
// The bench also *asserts* the sharded determinism contract on every run:
// the shards=1 and shards=4 reports must be byte-identical, and a mismatch
// exits non-zero so CI fails even where the speedup gate is skipped.
// Timing is wall-clock (min-of-3), not CPU time: parallel speedup is the
// quantity under test.

#include <ctime>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "core/simulation.hpp"
#include "obs/json.hpp"

namespace {

double wall_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double sim_seconds() {
  if (const char* env = std::getenv("NFV_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return 0.2 * v;
  }
  return 0.2;
}

struct RunResult {
  double wall = 0.0;
  std::uint64_t events = 0;
  std::string report;
};

RunResult run_once(std::uint32_t shards) {
  nfv::core::PlatformConfig cfg;
  cfg.sim_shards = shards;
  nfv::core::Simulation sim(cfg);

  // Two NFs per core; every chain hops across lanes so the mailbox path —
  // not lane-local work — is what scaling has to survive.
  std::vector<std::size_t> cores;
  std::vector<nfv::flow::NfId> front, back;
  for (int i = 0; i < 4; ++i) {
    cores.push_back(sim.add_core(nfv::core::SchedPolicy::kCfsBatch));
    front.push_back(sim.add_nf("f" + std::to_string(i), cores[i],
                               nfv::nf::CostModel::fixed(220)));
    back.push_back(sim.add_nf("b" + std::to_string(i), cores[i],
                              nfv::nf::CostModel::fixed(340)));
  }
  const auto long_chain =
      sim.add_chain("ring", {front[0], front[1], front[2], front[3]});
  const auto pair_a = sim.add_chain("pair_a", {back[1], back[2]});
  const auto pair_b = sim.add_chain("pair_b", {back[3], back[0]});
  sim.add_udp_flow(long_chain, 2.5e6);
  sim.add_udp_flow(pair_a, 2.0e6);
  sim.add_udp_flow(pair_b, 2.0e6);
  sim.add_tcp_flow(long_chain);

  const double secs = sim_seconds();
  const double t0 = wall_seconds();
  sim.run_for_seconds(secs);
  RunResult out;
  out.wall = wall_seconds() - t0;
  out.report = sim.report_json();
  // dispatched_events across all lanes, straight out of the report's meta.
  const std::string key = "\"dispatched_events\":";
  const auto pos = out.report.find(key);
  if (pos != std::string::npos) {
    out.events = std::strtoull(out.report.c_str() + pos + key.size(),
                               nullptr, 10);
  }
  return out;
}

RunResult best_of(int reps, std::uint32_t shards) {
  RunResult best = run_once(shards);
  for (int i = 1; i < reps; ++i) {
    RunResult r = run_once(shards);
    if (r.wall < best.wall) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") json = true;
  }

  constexpr int kReps = 3;
  const RunResult r1 = best_of(kReps, 1);
  const RunResult r4 = best_of(kReps, 4);

  const bool identical = r1.report == r4.report;
  const double speedup = r4.wall > 0.0 ? r1.wall / r4.wall : 0.0;
  const double events_per_sec =
      r4.wall > 0.0 ? static_cast<double>(r4.events) / r4.wall : 0.0;
  const unsigned host_cores = std::thread::hardware_concurrency();

  if (json) {
    std::ostringstream out;
    nfv::obs::JsonWriter writer(out);
    writer.begin_object();
    writer.field("bench", "micro_shard");
    writer.field("host_cores", static_cast<std::uint64_t>(host_cores));
    writer.key("rows");
    writer.begin_array();
    for (const auto* r : {&r1, &r4}) {
      writer.begin_object();
      writer.field("shards", static_cast<std::uint64_t>(r == &r1 ? 1 : 4));
      writer.field("wall_seconds", r->wall);
      writer.field("events", r->events);
      writer.field("events_per_sec",
                   r->wall > 0.0
                       ? static_cast<double>(r->events) / r->wall
                       : 0.0);
      writer.end_object();
    }
    writer.end_array();
    writer.field("identical", identical);
    writer.field("shard_speedup_4w", speedup);
    writer.field("shard_events_per_sec", events_per_sec);
    writer.end_object();
    std::printf("%s\n", out.str().c_str());
  } else {
    std::printf("Sharded-engine scaling (4 lanes, cross-lane chains)\n\n");
    std::printf("%-10s %14s %14s %16s\n", "shards", "wall (s)", "events",
                "events/sec");
    for (const auto* r : {&r1, &r4}) {
      std::printf("%-10d %14.3f %14llu %16.0f\n", r == &r1 ? 1 : 4, r->wall,
                  static_cast<unsigned long long>(r->events),
                  r->wall > 0.0 ? static_cast<double>(r->events) / r->wall
                                : 0.0);
    }
    std::printf("\nspeedup(4w): %.2fx on %u host cores; reports %s\n",
                speedup, host_cores,
                identical ? "byte-identical" : "DIFFER");
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: shards=1 and shards=4 reports differ — the sharded "
                 "determinism contract is broken\n");
    return 1;
  }
  return 0;
}
