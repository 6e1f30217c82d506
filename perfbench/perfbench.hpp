// Shared declarations of the simulator benchmark (see README.md).
//
// The benchmark drives the simulator only through public calls: it builds
// each workload with core::Simulation, advances it in 1 ms simulated slices,
// exports the report, and times every one of those calls from outside.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace perfbench {

using nfv::core::PlatformConfig;
using nfv::core::Simulation;

// -- clocks -------------------------------------------------------------------
double wall_now();    ///< Monotonic wall clock, seconds.
double thread_cpu();  ///< CPU time of the calling thread, seconds.

// -- spans (spans.cpp) ----------------------------------------------------------
/// In-memory span log of the benchmark's own calls into the simulator. Off
/// unless enabled; a span records name, start, end and parent. Spans are
/// recorded only by the one thread that drives the simulator.
class SpanLog {
 public:
  static SpanLog& get();
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  int begin(const char* name);
  void end(int index);
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  /// Chrome trace_event JSON ("X" events; args carry the parent index).
  void write_chrome_json(std::ostream& out) const;
  /// Per span name: count, total and self time (duration minus the part of
  /// it covered by child spans), sorted by self time.
  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  [[nodiscard]] std::vector<SelfTime> self_times() const;
  /// Mean duration in ms of the spans named `name` (0 if none).
  [[nodiscard]] double mean_ms(const std::string& name) const;

 private:
  struct Record {
    const char* name;
    double start;
    double end;
    int parent;
  };
  bool enabled_ = false;
  int current_ = -1;  ///< innermost open span
  std::vector<Record> records_;
};

/// RAII span; free when the log is disabled.
class Span {
 public:
  explicit Span(const char* name)
      : index_(SpanLog::get().enabled() ? SpanLog::get().begin(name) : -1) {}
  ~Span() {
    if (index_ >= 0) SpanLog::get().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// -- seeds ----------------------------------------------------------------------
/// The one benchmark seed every simulator seed is derived from.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// splitmix64 of (seed, stream): independent per-source seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// -- workloads (workloads.cpp) ----------------------------------------------------
/// What one topology build hands back: the ids to account over, and the
/// stateful NF objects that must outlive the simulation's activity.
struct Built {
  std::vector<nfv::flow::NfId> nfs;
  std::vector<nfv::flow::ChainId> chains;
  std::vector<std::shared_ptr<void>> keep;
  /// NFs whose cost probe does one flow-store operation per packet.
  std::vector<nfv::flow::NfId> stateful;
};

/// Recipe for one Simulation: config, topology, and how long it runs. Traffic
/// stops at traffic_s; the drain_s after it empties every queue so packet
/// conservation can be checked exactly.
struct Plan {
  std::string label;
  PlatformConfig cfg;
  std::function<void(Simulation&, Built&)> build;
  double traffic_s = 0.0;
  double drain_s = 0.0;
  bool record_trace = false;
};

/// Counts read from one finished simulation (all exact, seed-determined).
struct Counts {
  std::uint64_t offered = 0;  ///< wire ingress
  std::uint64_t egress = 0;
  std::uint64_t events = 0;
  std::uint64_t rx_enqueues = 0;  ///< NF arrivals = packet-hops
  std::uint64_t tx_enqueues = 0;  ///< NF forwards
  std::uint64_t processed = 0;
  std::uint64_t downstream_drops = 0;
  std::uint64_t rx_full_drops = 0;
  std::uint64_t entry_drops = 0;
  std::uint64_t cswitches = 0;
  std::uint64_t stateful_ops = 0;
  std::uint64_t flow_installs = 0;
  std::uint64_t flow_expirations = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t artifact_bytes = 0;
  std::uint64_t ecn_hops = 0;  ///< packet-hops seen by an EcnMarker
  void add(const Counts& o);
};

/// Timings and checks of one Simulation.
struct SimOutcome {
  std::string label;
  double ctor_s = 0.0;
  double topology_s = 0.0;
  double run_s = 0.0;
  double report_s = 0.0;
  double trace_write_s = 0.0;
  double wall_s = 0.0;  ///< construction through the output checks
  double sim_ms = 0.0;
  std::vector<float> slice_ms;
  std::vector<std::uint32_t> pending;  ///< legacy-engine pending per slice
  std::uint32_t pool_peak = 0;
  std::uint64_t flow_peak = 0;
  std::size_t nf_count = 0;
  Counts counts;
  std::uint64_t digest = 0;  ///< FNV-1a 64 of report_json()
  std::string failure;       ///< empty when every output check passed
};

/// kScaling is shard_4lane's speed-up run: long enough that the shard
/// threads' fixed cost per run does not decide the ratio.
enum class Length { kMeasure, kCheck, kScaling };

[[nodiscard]] const std::vector<std::string>& workload_names();
/// The Simulation a workload repeats. `shards` is shard_4lane's sim_shards;
/// the measured passes use 1, so every run is on one (pinned) CPU and its
/// time does not depend on the busiest neighbour.
[[nodiscard]] Plan make_plan(const std::string& workload, std::uint64_t seed,
                             Length length, std::uint32_t shards = 1);
/// Shard count of the parallel check and speed-up: min(4, nproc).
[[nodiscard]] std::uint32_t parallelism();

/// Build, run (in 1 ms slices unless `sliced` is false), export and check.
SimOutcome run_plan(const Plan& plan, bool sliced = true);

std::string hex64(std::uint64_t v);

// -- probes (probes.cpp) ----------------------------------------------------------
/// Sizes the probes replay, taken from what the workload produced.
struct ProbeSizes {
  std::size_t pending = 8;           ///< engine events pending
  std::uint32_t pool_in_use = 0;     ///< mbufs held out of the pool
  std::uint64_t flow_table = 1;      ///< live flow-table entries
  std::size_t nf_count = 3;          ///< EcnMarker width
};

/// One isolated replay of a layer's public calls, timed as the minimum over
/// repetitions of thread CPU time. `noise` is (median - min) / min.
struct ProbeResult {
  std::string name;  ///< metric name, e.g. "flow.lookup_ns"
  double value = 0.0;
  double noise = 0.0;
  const char* unit = "ns";
};

std::vector<ProbeResult> run_probes(const ProbeSizes& sizes);

}  // namespace perfbench
