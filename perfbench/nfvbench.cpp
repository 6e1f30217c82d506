// nfvbench: the simulator's benchmark binary (driven by perfbench/run.py).
//
//   nfvbench --workload W --seed N --seconds S --trace 0|1
//            [--expect-digest HEX] [--spans-out FILE]
//   nfvbench --self-test
//
// One caller in a closed loop: the workload's Simulation is built, advanced
// in 1 ms simulated slices as fast as it goes, exported and checked, then
// built again, until S wall seconds are used.
// The last stdout line is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 a second,
// traced pass and the layer probes give the per-layer set instead.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string expect_digest;
  std::string spans_out;
  bool self_test = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--self-test") {
      a.self_test = true;
    } else if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::atof(argv[++i]);
    } else if (k == "--trace" && has_value) {
      a.trace = std::atoi(argv[++i]);
    } else if (k == "--expect-digest" && has_value) {
      a.expect_digest = argv[++i];
    } else if (k == "--spans-out" && has_value) {
      a.spans_out = argv[++i];
    } else {
      std::fprintf(stderr, "nfvbench: unknown or incomplete argument '%s'\n",
                   k.c_str());
      return false;
    }
  }
  return true;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// CPUs this process may run on, and pinning the calling thread to one of
/// them (-1 restores the full set, so worker threads spread out again).
cpu_set_t g_allowed;
std::vector<int> g_cpus;

void init_cpus() {
  sched_getaffinity(0, sizeof(g_allowed), &g_allowed);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &g_allowed)) g_cpus.push_back(c);
  }
}

void pin(int cpu) {
  cpu_set_t set = g_allowed;
  if (cpu >= 0) {
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Shard count of the 1-vs-N report check; the check needs no free CPUs.
constexpr std::uint32_t kCheckShards = 4;

/// Tallies attempted simulations and those that failed an output check,
/// either their own or a comparison with another run's report.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts `s` once; a non-empty `mismatch` fails it as well.
  void sim(const SimOutcome& s, const char* phase, const std::string& mismatch = {}) {
    ++attempted;
    const std::string& why = s.failure.empty() ? mismatch : s.failure;
    if (why.empty()) return;
    ++failed;
    std::printf("FAIL [%s] %s: %s\n", phase, s.label.c_str(), why.c_str());
  }
};

/// `why` when the two runs' reports differ, else empty.
std::string differs(const SimOutcome& a, const SimOutcome& b, const std::string& why) {
  return a.digest == b.digest ? std::string() : why;
}

/// A measured pass: the same Simulation built, run and checked again and
/// again until its wall time is used. Every repetition does identical work,
/// and interference on a shared host only ever slows a repetition down, so a
/// timing is the best whole repetition (min-of-N).
struct Phase {
  std::vector<SimOutcome> runs;
  double seconds = 0.0;

  /// Each slice's best time (ms): slice k simulates the same thing in every
  /// repetition, so a stall the program causes shows in all of them and a
  /// neighbour's burst in one. Used for the slice tail only.
  [[nodiscard]] std::vector<double> best_slices() const {
    std::vector<double> best(runs.front().slice_ms.begin(), runs.front().slice_ms.end());
    for (const SimOutcome& r : runs) {
      for (std::size_t k = 0; k < best.size(); ++k) {
        best[k] = std::min<double>(best[k], r.slice_ms[k]);
      }
    }
    return best;
  }
  /// Best run phase of a repetition (seconds).
  [[nodiscard]] double run_s() const {
    return best([](const SimOutcome& r) { return r.run_s; });
  }
  [[nodiscard]] double sim_ms_per_wall_ms() const {
    return runs.front().sim_ms / (run_s() * 1e3);
  }
  template <typename F>
  [[nodiscard]] double best(F f) const {
    double b = f(runs.front());
    for (const SimOutcome& r : runs) b = std::min(b, f(r));
    return b;
  }
  template <typename F>
  [[nodiscard]] double median_of(F f) const {
    std::vector<double> v;
    for (const SimOutcome& r : runs) v.push_back(f(r));
    return median(v);
  }
  [[nodiscard]] Counts totals() const {
    Counts c;
    for (const SimOutcome& r : runs) c.add(r.counts);
    return c;
  }
};

/// Repeats `plan` (single-threaded) for `seconds`, pinned to the allowed
/// CPUs in turn so every pass samples every CPU: a shared host's vCPUs
/// differ in speed from moment to moment.
Phase measure(const Plan& plan, double seconds) {
  Phase p;
  const double t0 = wall_now();
  std::size_t k = 0;
  do {
    pin(g_cpus[k++ % g_cpus.size()]);
    p.runs.push_back(run_plan(plan));
  } while (wall_now() - t0 < seconds);
  pin(-1);
  p.seconds = wall_now() - t0;
  return p;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  void print_table(const char* title) const {
    std::printf("\n%s\n", title);
    for (const Item& i : items_) {
      std::printf("  %-34s %16.6g %s\n", i.name.c_str(), i.value, i.unit);
    }
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t k = 0; k < items_.size(); ++k) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    k == 0 ? "" : ", ", items_[k].name.c_str(), items_[k].value,
                    items_[k].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool sanitized() { return kSanitized || PERFBENCH_SANITIZED != 0; }

void print_host() {
  std::printf("host: nproc=%ld compiler=\"%s\" build_type=%s lto=%s sanitizer=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              PERFBENCH_LTO ? "on" : "off", sanitized() ? "yes" : "no");
}

/// Correctness checks that run before any timing: the default seed's check
/// run against its pinned digest and, for shard_4lane, 1 vs 4 shards.
void run_checks(const Args& a, Checks& checks) {
  const SimOutcome golden =
      run_plan(make_plan(a.workload, kDefaultSeed, Length::kCheck, kCheckShards));
  const std::string got = hex64(golden.digest);
  std::printf("check: default-seed report digest %s (pinned %s)\n", got.c_str(),
              a.expect_digest.empty() ? "none" : a.expect_digest.c_str());
  checks.sim(golden, "golden",
             a.expect_digest.empty() || a.expect_digest == got
                 ? std::string()
                 : "pinned digest mismatch: got " + got + ", pinned " + a.expect_digest);
  if (a.workload == "shard_4lane") {
    const SimOutcome one = run_plan(make_plan(a.workload, a.seed, Length::kCheck));
    const SimOutcome many =
        run_plan(make_plan(a.workload, a.seed, Length::kCheck, kCheckShards));
    checks.sim(one, "shards=1");
    checks.sim(many, "shards=4", differs(many, one, "report differs from the 1-shard report"));
  }
}

/// shard_4lane's run phase at one shard over its run phase at min(4, nproc)
/// shards, each the best of three whole runs, interleaved and unpinned.
double shard_speedup(const Args& a, Checks& checks) {
  const Plan one = make_plan(a.workload, a.seed, Length::kScaling);
  const Plan many = make_plan(a.workload, a.seed, Length::kScaling, parallelism());
  const SimOutcome reference = run_plan(one);
  checks.sim(reference, "speedup shards=1");
  double best_one = 0.0, best_many = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const SimOutcome r1 = run_plan(one);
    const SimOutcome rn = run_plan(many);
    checks.sim(r1, "speedup shards=1", differs(r1, reference, "report differs between repetitions"));
    checks.sim(rn, "speedup shards=N", differs(rn, reference, "report differs between 1 and N shards"));
    best_one = rep == 0 ? r1.run_s : std::min(best_one, r1.run_s);
    best_many = rep == 0 ? rn.run_s : std::min(best_many, rn.run_s);
  }
  return ratio(best_one, best_many);
}

/// End-to-end metrics: timings are the best whole repetition of the pass;
/// set-up alone is the median over every Simulation built.
void end_to_end(const Phase& p, Metrics& m) {
  const std::vector<double> best = p.best_slices();
  std::vector<double> all;
  for (const SimOutcome& r : p.runs) all.insert(all.end(), r.slice_ms.begin(), r.slice_ms.end());
  const auto setup = [](const SimOutcome& r) { return r.ctor_s + r.topology_s; };
  const auto exported = [](const SimOutcome& r) { return r.report_s + r.trace_write_s; };
  const auto wall = [&](const SimOutcome& r) { return setup(r) + r.run_s + exported(r); };
  m.add("sim_ms_per_wall_ms", p.sim_ms_per_wall_ms(), "ms/ms");
  m.add("setup_s", p.median_of(setup), "s");
  m.add("export_s", p.best(exported), "s");
  m.add("wall_s", p.best(wall), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("%zu repetitions in %.2f s\n", p.runs.size(), p.seconds);
  std::printf("slice ms, best per slice: p50 %.4f, p99 %.4f over %zu slices\n",
              quantile(best, 0.5), quantile(best, 0.99), best.size());
  std::printf("slice ms, every sample:   p50 %.4f, p99 %.4f over %zu samples\n",
              quantile(all, 0.5), quantile(all, 0.99), all.size());
  std::printf("run phase s: best %.4f, median %.4f\n", p.run_s(),
              p.median_of([](const SimOutcome& r) { return r.run_s; }));
}

void per_layer(const Phase& plain, const Phase& traced, double shard_speedup,
               Metrics& m) {
  const Counts c = plain.totals();
  const double runs = static_cast<double>(plain.runs.size());
  const double offered = static_cast<double>(c.offered);
  std::vector<double> pending;
  std::uint32_t pool_peak = 0;
  std::uint64_t flow_peak = 0;
  for (const SimOutcome& r : plain.runs) {
    pending.insert(pending.end(), r.pending.begin(), r.pending.end());
    pool_peak = std::max(pool_peak, r.pool_peak);
    flow_peak = std::max(flow_peak, r.flow_peak);
  }
  ProbeSizes sizes;
  sizes.pending = static_cast<std::size_t>(median(pending));
  sizes.pool_in_use = pool_peak;
  sizes.flow_table = flow_peak;
  sizes.nf_count = plain.runs.front().nf_count;
  const std::vector<ProbeResult> probes = run_probes(sizes);
  std::map<std::string, ProbeResult> probe;
  for (const ProbeResult& r : probes) probe[r.name] = r;
  const auto per_pkt = [&](std::uint64_t n) { return ratio(static_cast<double>(n), offered); };
  const std::vector<double> best = plain.best_slices();

  m.add("sim.events_per_pkt", per_pkt(c.events), "ev/pkt");
  m.add("sim.pending_p50", median(pending), "count");
  m.add("sim.event_ns", probe["sim.event_ns"].value, "ns");
  m.add("pktio.ring_burst_ns", probe["pktio.ring_burst_ns"].value, "ns");
  m.add("pktio.pool_burst_ns", probe["pktio.pool_burst_ns"].value, "ns");
  m.add("pktio.pool_ctor_ms", probe["pktio.pool_ctor_ms"].value, "ms");
  m.add("pktio.pool_peak_in_use", pool_peak, "count");
  m.add("pktio.rx_full_drops_per_kpkt", 1e3 * per_pkt(c.rx_full_drops), "1/kpkt");
  m.add("flow.table_peak", static_cast<double>(flow_peak), "count");
  m.add("flow.lookup_ns", probe["flow.lookup_ns"].value, "ns");
  m.add("flow.install_ns", probe["flow.install_ns"].value, "ns");
  m.add("flow.expire_ns", probe["flow.expire_ns"].value, "ns");
  m.add("bp.ecn_enqueue_ns", probe["bp.ecn_enqueue_ns"].value, "ns");
  m.add("sched.cswitch_per_kpkt", 1e3 * per_pkt(c.cswitches), "1/kpkt");
  m.add("nf.wasted_ratio", ratio(static_cast<double>(c.downstream_drops), static_cast<double>(c.processed)), "ratio");
  m.add("mgr.entry_drop_ratio", per_pkt(c.entry_drops), "ratio");
  m.add("mgr.egress_ratio", per_pkt(c.egress), "ratio");
  m.add("obs.trace_events", static_cast<double>(c.trace_events) / runs, "count");
  m.add("obs.artifact_mb", static_cast<double>(c.artifact_bytes) / runs / 1e6, "MB");
  m.add("obs.report_json_ms", 1e3 * plain.best([](const SimOutcome& r) { return r.report_s; }), "ms");
  m.add("obs.trace_write_ms", 1e3 * plain.best([](const SimOutcome& r) { return r.trace_write_s; }), "ms");
  m.add("obs.latency_record_ns", probe["obs.latency_record_ns"].value, "ns");
  m.add("core.ctor_ms", 1e3 * plain.median_of([](const SimOutcome& r) { return r.ctor_s; }), "ms");
  m.add("core.topology_ms", 1e3 * plain.median_of([](const SimOutcome& r) { return r.topology_s; }), "ms");
  m.add("core.run_slice_ms", SpanLog::get().mean_ms("core.run_slice"), "ms");
  m.add("core.slice_ms_p99", quantile(best, 0.99), "ms");
  m.add("core.slice_ms_p50", quantile(best, 0.5), "ms");
  m.add("core.slice_samples", static_cast<double>(best.size()), "count");
  m.add("core.shard_speedup", shard_speedup, "x");

  // Ledger: probe ns/op x that layer's ops per offered packet, against the
  // best single-threaded run phase per offered packet.
  const double run_ns = ratio(plain.run_s() * 1e9, offered / runs);
  const double hops = per_pkt(c.rx_enqueues + c.tx_enqueues);
  struct Share {
    const char* layer;
    const char* probe;
    double ns;
  };
  const std::vector<Share> shares = {
      {"pktio", "pktio.ring_burst_ns",
       probe["pktio.ring_burst_ns"].value * hops + probe["pktio.pool_burst_ns"].value},
      {"flow", "flow.lookup_ns",
       probe["flow.lookup_ns"].value * (1.0 + per_pkt(c.stateful_ops)) +
           probe["flow.install_ns"].value * per_pkt(c.flow_installs) +
           probe["flow.expire_ns"].value * per_pkt(c.flow_expirations)},
      {"sim", "sim.event_ns", probe["sim.event_ns"].value * per_pkt(c.events)},
      {"bp", "bp.ecn_enqueue_ns", probe["bp.ecn_enqueue_ns"].value * per_pkt(c.ecn_hops)},
      {"obs", "obs.latency_record_ns", probe["obs.latency_record_ns"].value * per_pkt(c.egress)},
  };
  double attributed = 0.0, noise = 0.0;
  const Share* largest = &shares.front();
  for (const Share& s : shares) {
    m.add(std::string("ledger.") + s.layer + ".ns_per_pkt", s.ns, "ns/pkt");
    attributed += s.ns;
    noise = std::max(noise, probe[s.probe].noise);
    if (s.ns > largest->ns) largest = &s;
  }
  m.add("ledger.unattributed.ns_per_pkt", run_ns - attributed, "ns/pkt");
  m.add("ledger.run.ns_per_pkt", run_ns, "ns/pkt");
  const bool flagged = attributed > run_ns * (1.0 + noise);
  m.add("ledger.flagged_probes", flagged ? 1.0 : 0.0, "count");
  if (flagged) {
    std::printf("ledger: layer sum %.2f ns/pkt exceeds the measured %.2f ns/pkt "
                "beyond probe noise %.1f%%; suspect probe %s\n",
                attributed, run_ns, 100.0 * noise, largest->probe);
  }
  const double untraced = plain.sim_ms_per_wall_ms();
  const double with_spans = traced.sim_ms_per_wall_ms();
  m.add("trace.overhead_ratio", ratio(untraced, with_spans), "x");
  m.add("trace.spans", static_cast<double>(SpanLog::get().size()), "count");

  std::printf("\nprobes (min of reps, thread CPU time; noise = median/min - 1)\n");
  for (const ProbeResult& r : probes) {
    std::printf("  %-26s %12.4f %-3s noise %5.1f%%\n", r.name.c_str(), r.value,
                r.unit, 100.0 * r.noise);
  }
  std::printf("\nspan self time (traced pass + probes)\n");
  std::printf("  %-22s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const SpanLog::SelfTime& s : SpanLog::get().self_times()) {
    std::printf("  %-22s %10llu %12.3f %12.3f\n", s.name.c_str(),
                static_cast<unsigned long long>(s.count), s.total_ms, s.self_ms);
  }
  std::printf("tracing overhead: untraced %.4f vs traced %.4f sim-ms/wall-ms (x%.4f)\n",
              untraced, with_spans, ratio(untraced, with_spans));
}

/// Self-tests of the benchmark's own machinery (run.py --self-test).
int self_test() {
  Checks checks;
  // Slicing must not change results: sliced and one-shot reports are equal,
  // on the legacy engine and on the sharded one at 1 and 4 shards.
  const auto sliced_equals_whole = [&checks](const Plan& plan, const std::string& what) {
    const SimOutcome sliced = run_plan(plan, true);
    const SimOutcome whole = run_plan(plan, false);
    checks.sim(whole, what.c_str());
    checks.sim(sliced, what.c_str(), differs(sliced, whole, "sliced != one-shot report"));
    std::printf("self-test: %s sliced == one-shot: %s\n", what.c_str(),
                sliced.digest == whole.digest ? "ok" : "DIFFER");
  };
  sliced_equals_whole(make_plan("chain_1core", kDefaultSeed, Length::kCheck), "chain_1core");
  sliced_equals_whole(make_plan("churn_4core", kDefaultSeed, Length::kCheck), "churn_4core");
  for (const std::uint32_t shards : {0u, 1u, 4u}) {
    sliced_equals_whole(make_plan("shard_4lane", kDefaultSeed, Length::kCheck, shards),
                        "shard_4lane sim_shards=" + std::to_string(shards));
  }
  // The seed must reach the traffic sources.
  const SimOutcome a = run_plan(make_plan("chain_1core", 1, Length::kCheck));
  const SimOutcome b = run_plan(make_plan("chain_1core", 2, Length::kCheck));
  checks.sim(a, "seed 1");
  checks.sim(b, "seed 2",
             a.digest != b.digest ? std::string() : "seed does not reach the traffic sources");
  // Pinned digests of the default seed (golden.json).
  for (const std::string& w : workload_names()) {
    const SimOutcome g = run_plan(make_plan(w, kDefaultSeed, Length::kCheck, kCheckShards));
    checks.sim(g, "golden");
    std::printf("golden %s %s\n", w.c_str(), hex64(g.digest).c_str());
  }
  std::printf("self-test: %llu checks failed\n",
              static_cast<unsigned long long>(checks.failed));
  return checks.failed == 0 ? 0 : 1;
}

int run(const Args& a) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    std::fprintf(stderr, "nfvbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  Checks checks;
  run_checks(a, checks);
  if (sanitized()) {
    std::printf("refusing to report timings from a sanitizer build; checks %s\n",
                checks.failed == 0 ? "passed" : "FAILED");
    return 3;
  }

  // A traced run splits its time between the untraced and the traced pass.
  const Plan plan = make_plan(a.workload, a.seed, Length::kMeasure);
  const double pass_s = a.trace == 0 ? a.seconds : a.seconds / 2;
  const Phase plain = measure(plan, pass_s);
  const SimOutcome& first = plain.runs.front();
  for (const SimOutcome& r : plain.runs) {
    checks.sim(r, "measure", differs(r, first, "report differs between repetitions"));
  }
  Metrics m;
  if (a.trace == 0) {
    end_to_end(plain, m);
    m.print_table("end-to-end metrics");
  } else {
    const double speedup = a.workload == "shard_4lane" ? shard_speedup(a, checks) : 0.0;
    SpanLog::get().enable(true);
    const Phase traced = measure(plan, pass_s);
    for (const SimOutcome& r : traced.runs) {
      checks.sim(r, "traced", differs(r, first, "traced report differs from the untraced report"));
    }
    per_layer(plain, traced, speedup, m);
    SpanLog::get().enable(false);
    m.print_table("per-layer metrics");
    if (!a.spans_out.empty()) {
      std::ofstream out(a.spans_out);
      SpanLog::get().write_chrome_json(out);
      std::printf("spans: %zu written to %s (Chrome trace_event JSON)\n",
                  SpanLog::get().size(), a.spans_out.c_str());
    }
  }
  std::printf("fail_ratio %.6f (%llu of %llu simulations failed an output check)\n",
              ratio(static_cast<double>(checks.failed), static_cast<double>(checks.attempted)),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed), m.json().c_str());
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The benchmark fixes engine, shard and worker counts itself.
  for (const char* var : {"NFV_SIM_SHARDS", "NFV_ENGINE_BACKEND", "NFV_BENCH_WORKERS",
                          "NFV_BENCH_SCALE"}) {
    unsetenv(var);
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) return 2;
  perfbench::init_cpus();
  perfbench::print_host();
  if (args.self_test) return perfbench::self_test();
  return perfbench::run(args);
}
