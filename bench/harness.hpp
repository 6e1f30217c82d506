// Shared experiment harness for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure from the NFVnice
// paper's evaluation (§4): it builds the experiment's topology through the
// public Simulation API, runs each configuration, and prints rows in the
// same shape the paper reports. Durations are simulated seconds; set
// NFV_BENCH_SCALE (e.g. 4) to lengthen every run for tighter statistics.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/simulation.hpp"
#include "obs/json.hpp"

namespace bench {

using nfv::Cycles;
using nfv::core::PlatformConfig;
using nfv::core::SchedPolicy;
using nfv::core::Simulation;

/// The paper's four system configurations (Fig. 7, Fig. 10, ...).
struct Mode {
  const char* name;
  bool cgroups;
  bool backpressure;
  bool ecn;
};

inline constexpr Mode kModeDefault{"Default", false, false, false};
inline constexpr Mode kModeCgroup{"CGroup", true, false, false};
inline constexpr Mode kModeBkpr{"OnlyBKPR", false, true, false};
inline constexpr Mode kModeNfvnice{"NFVnice", true, true, true};
inline constexpr Mode kAllModes[] = {kModeDefault, kModeCgroup, kModeBkpr,
                                     kModeNfvnice};
inline constexpr Mode kDefaultVsNfvnice[] = {kModeDefault, kModeNfvnice};

/// The kernel schedulers the paper evaluates (§4.1).
struct Sched {
  const char* name;
  SchedPolicy policy;
  double rr_quantum_ms;
};

inline constexpr Sched kNormal{"NORMAL", SchedPolicy::kCfsNormal, 100.0};
inline constexpr Sched kBatch{"BATCH", SchedPolicy::kCfsBatch, 100.0};
inline constexpr Sched kRr1{"RR(1ms)", SchedPolicy::kRoundRobin, 1.0};
inline constexpr Sched kRr100{"RR(100ms)", SchedPolicy::kRoundRobin, 100.0};
inline constexpr Sched kAllScheds[] = {kNormal, kBatch, kRr1, kRr100};

/// Worker count for the sharded engine (DESIGN.md §14), stamped into every
/// PlatformConfig make_config() builds. Set by --shards; 0 (the default)
/// runs one lane holding every core.
inline std::uint32_t& cli_shards() {
  static std::uint32_t shards = 0;
  return shards;
}

/// Parse `--shards N` / `--shards=N`.
inline void parse_shards(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    long v = -1;
    if (arg == "--shards" && i + 1 < argc) {
      v = std::atol(argv[i + 1]);
    } else if (arg.rfind("--shards=", 0) == 0) {
      v = std::atol(arg.c_str() + 9);
    }
    if (v > 0) cli_shards() = static_cast<std::uint32_t>(v);
  }
}

/// True when --slo was passed: benches that honour it run with the SLO
/// feedback controller enabled (DESIGN.md §16) on top of the mode's
/// cgroup path. Telemetry for targeted chains is on either way; this flag
/// only turns the share-boost loop on.
inline bool& cli_slo() {
  static bool slo = false;
  return slo;
}

/// Parse `--slo` (alongside --shards / --json in the shared flag set).
inline void parse_slo(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--slo") cli_slo() = true;
  }
}

/// One-stop parsing of the shared bench flags (--shards, --slo).
inline void parse_cli(int argc, char** argv) {
  parse_shards(argc, argv);
  parse_slo(argc, argv);
}

inline PlatformConfig make_config(const Mode& mode) {
  PlatformConfig cfg;
  cfg.manager.enable_cgroups = mode.cgroups;
  cfg.manager.enable_backpressure = mode.backpressure;
  cfg.manager.enable_ecn = mode.ecn;
  cfg.manager.slo.enabled = cli_slo();
  cfg.sim_shards = cli_shards();
  return cfg;
}

/// Scale factor for all simulated durations (NFV_BENCH_SCALE, default 1).
inline double time_scale() {
  static const double scale = [] {
    const char* env = std::getenv("NFV_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return scale;
}

inline double seconds(double base) { return base * time_scale(); }

/// Mpps over a window.
inline double mpps(std::uint64_t packets, double secs) {
  return static_cast<double>(packets) / secs / 1e6;
}

/// One service chain of fixed-cost NFs driven by a single UDP flow — the
/// workhorse setup behind Fig. 7, Tables 3-5, Fig. 10, Fig. 11 and Fig. 16.
struct ChainResult {
  double egress_mpps = 0.0;
  std::uint64_t entry_drops = 0;
  /// Per-NF (in chain order):
  std::vector<double> svc_rate_mpps;     ///< packets processed per second
  std::vector<double> drop_rate_pps;     ///< RX-full drops per second at this NF
  std::vector<double> wasted_by_pps;     ///< this NF's processed pkts later dropped
  std::vector<double> cpu_share;
  std::vector<double> avg_sched_latency_ms;
  std::vector<double> runtime_ms;
  std::vector<std::uint64_t> cswch;
  std::vector<std::uint64_t> nvcswch;
};

struct ChainSpec {
  std::vector<Cycles> costs;
  double rate_pps = 6e6;
  double secs = 0.25;
  bool multicore = false;          ///< each NF on its own core
  /// When non-empty: variable per-packet costs, uniform over these values
  /// (overrides `costs` entries with the same mixed model per NF).
  std::vector<Cycles> variable_choices;
};

/// `report_json` (optional): receives the full Simulation::report_json()
/// document for this run — the machine-readable path benches expose
/// behind --json.
inline ChainResult run_chain(const Mode& mode, const Sched& sched,
                             const ChainSpec& spec,
                             std::string* report_json = nullptr) {
  Simulation sim(make_config(mode));
  std::vector<nfv::flow::NfId> nfs;
  std::size_t core_id = sim.add_core(sched.policy, sched.rr_quantum_ms);
  for (std::size_t i = 0; i < spec.costs.size(); ++i) {
    if (spec.multicore && i > 0) {
      core_id = sim.add_core(sched.policy, sched.rr_quantum_ms);
    }
    auto cost = spec.variable_choices.empty()
                    ? nfv::nf::CostModel::fixed(spec.costs[i])
                    : nfv::nf::CostModel::uniform_choice(
                          spec.variable_choices, 0x5eed + i);
    nfs.push_back(
        sim.add_nf("NF" + std::to_string(i + 1), core_id, std::move(cost)));
  }
  const auto chain = sim.add_chain("chain", nfs);
  sim.add_udp_flow(chain, spec.rate_pps);
  sim.run_for_seconds(spec.secs);

  ChainResult out;
  const auto cm = sim.chain_metrics(chain);
  out.egress_mpps = static_cast<double>(cm.egress_packets) / spec.secs / 1e6;
  out.entry_drops = cm.entry_throttle_drops;
  for (std::size_t i = 0; i < nfs.size(); ++i) {
    const auto m = sim.nf_metrics(nfs[i]);
    out.svc_rate_mpps.push_back(static_cast<double>(m.processed) / spec.secs /
                                1e6);
    out.drop_rate_pps.push_back(static_cast<double>(m.rx_full_drops) /
                                spec.secs);
    out.wasted_by_pps.push_back(static_cast<double>(m.downstream_drops) /
                                spec.secs);
    out.cpu_share.push_back(sim.nf_cpu_share(nfs[i]));
    out.avg_sched_latency_ms.push_back(m.avg_sched_latency_ms);
    out.runtime_ms.push_back(sim.clock().to_millis(m.runtime));
    out.cswch.push_back(m.voluntary_switches);
    out.nvcswch.push_back(m.involuntary_switches);
  }
  if (report_json != nullptr) *report_json = sim.report_json();
  return out;
}

/// Worker count for ParallelRunner: NFV_BENCH_WORKERS when set (>=1),
/// otherwise the machine's hardware concurrency.
inline std::size_t bench_workers() {
  static const std::size_t n = [] {
    if (const char* env = std::getenv("NFV_BENCH_WORKERS")) {
      const long v = std::atol(env);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(hw > 0 ? hw : 1);
  }();
  return n;
}

/// The process-lifetime worker pool every default-sized ParallelRunner
/// executes on. A bench with several scenario groups used to spawn and join
/// a fresh pool per run() call; sharing one amortises thread start-up
/// across the whole binary and keeps the workers warm between groups.
inline nfv::common::ThreadPool& shared_pool() {
  static nfv::common::ThreadPool pool(bench_workers());
  return pool;
}

/// Runs independent experiment configurations across a worker pool and
/// hands the results back in submission order.
///
/// Each submitted job builds and runs its own Simulation, so runs share
/// nothing; the determinism contract is that run() returns results ordered
/// by submission index and all printing happens serially afterwards, which
/// makes bench output (human tables and --json alike) byte-identical
/// whatever NFV_BENCH_WORKERS is — parallelism only changes wall-clock.
///
/// Default-constructed runners share one process-wide pool (shared_pool());
/// a runner with an explicit non-default worker count gets a dedicated pool
/// for that run() only. Benches drive runners serially, so the shared
/// pool's idle barrier always refers to this runner's jobs.
template <typename R>
class ParallelRunner {
 public:
  ParallelRunner() : workers_(bench_workers()) {}
  explicit ParallelRunner(std::size_t workers)
      : workers_(workers > 0 ? workers : 1) {}

  /// Queue one experiment; returns its index in run()'s result vector.
  std::size_t submit(std::function<R()> job) {
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
  }

  /// Execute every queued job (at most `workers` at a time) and return the
  /// results in submission order. The runner is reusable afterwards.
  std::vector<R> run() {
    std::vector<R> results(jobs_.size());
    std::unique_ptr<nfv::common::ThreadPool> dedicated;
    nfv::common::ThreadPool* pool;
    if (workers_ == bench_workers()) {
      pool = &shared_pool();
    } else {
      dedicated = std::make_unique<nfv::common::ThreadPool>(workers_);
      pool = dedicated.get();
    }
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      pool->submit([&results, &jobs = jobs_, i] { results[i] = jobs[i](); });
    }
    pool->wait_idle();
    jobs_.clear();
    return results;
  }

 private:
  std::size_t workers_;
  std::vector<std::function<R()>> jobs_;
};

/// One (mode, scheduler) cell of an experiment grid.
struct GridRow {
  const Mode* mode = nullptr;
  const Sched* sched = nullptr;
  ChainResult result;
  std::string report;  ///< Simulation::report_json() when requested
};

/// Runs the (sched × mode) grid behind most tables/figures across the
/// worker pool. Rows come back scheduler-major (the order the tables
/// print: one row block per scheduler, one entry per mode), so printing
/// them in sequence reproduces the serial output exactly.
template <typename SchedRange, typename ModeRange>
std::vector<GridRow> run_grid(const SchedRange& scheds, const ModeRange& modes,
                              const ChainSpec& spec, bool with_report = false) {
  ParallelRunner<GridRow> runner;
  for (const Sched& sched : scheds) {
    for (const Mode& mode : modes) {
      runner.submit([&mode, &sched, spec, with_report] {
        GridRow row;
        row.mode = &mode;
        row.sched = &sched;
        row.result = run_chain(mode, sched, spec,
                               with_report ? &row.report : nullptr);
        return row;
      });
    }
  }
  return runner.run();
}

/// True when the bench binary was invoked with --json: emit one
/// machine-readable JSON document on stdout instead of the human tables.
inline bool json_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") return true;
  }
  return false;
}

/// Builds the --json document: {"bench":...,"rows":[{...},...]}. Each row
/// is one (mode, scheduler) configuration's ChainResult, optionally with
/// the run's full Simulation report spliced under "report".
class JsonReport {
 public:
  explicit JsonReport(const std::string& bench_name) : writer_(out_) {
    writer_.begin_object();
    writer_.field("bench", std::string_view(bench_name));
    writer_.key("rows");
    writer_.begin_array();
  }

  void add_row(const Mode& mode, const Sched& sched, const ChainResult& r,
               const std::string& report_json = {}) {
    writer_.begin_object();
    writer_.field("mode", mode.name);
    writer_.field("scheduler", sched.name);
    writer_.field("egress_mpps", r.egress_mpps);
    writer_.field("entry_drops", r.entry_drops);
    write_array("svc_rate_mpps", r.svc_rate_mpps);
    write_array("drop_rate_pps", r.drop_rate_pps);
    write_array("wasted_by_pps", r.wasted_by_pps);
    write_array("cpu_share", r.cpu_share);
    if (!report_json.empty()) {
      writer_.key("report");
      writer_.raw(report_json);
    }
    writer_.end_object();
  }

  /// Close the document and print it to stdout. Call exactly once.
  void finish() {
    writer_.end_array();
    writer_.end_object();
    std::printf("%s\n", out_.str().c_str());
  }

 private:
  void write_array(std::string_view key, const std::vector<double>& values) {
    writer_.key(key);
    writer_.begin_array();
    for (const double v : values) writer_.value(v);
    writer_.end_array();
  }

  std::ostringstream out_;
  nfv::obs::JsonWriter writer_;
};

inline void print_title(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Simple fixed-width row printing: benches pass pre-formatted cells.
inline void print_row(const std::vector<std::string>& cells, int width = 12) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf("%-*s", i == 0 ? 22 : width, cells[i].c_str());
  }
  std::printf("\n");
}

inline std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

inline std::string fmt_count(std::uint64_t value) {
  char buf[64];
  if (value >= 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fM", static_cast<double>(value) / 1e6);
  } else if (value >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(value) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
  }
  return buf;
}

}  // namespace bench
