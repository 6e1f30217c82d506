// Cross-chain overload control: the goodput/latency frontier of ingress
// admission gating and PAM-style push-aside under mixed criticality
// (DESIGN.md §17).
//
// Two cores. Core0 hosts a shared classifier NF `gate` (cost 600, so the
// core saturates near 4.3 Mpps) that heads two chains: `gold`
// (gate->gold_nf, high priority, tight 300 us SLO, 0.5 Mpps — a few
// percent of the gate) and `bulk` (gate->bulk_nf, low utility, 8 Mpps —
// the overloader; offered load on the gate is ~2x its capacity). Core1
// hosts the downstream NFs plus a saturating background hog chain, so the
// gold chain's tail latency is squeezed from below even when its packets
// survive the gate.
//
// Four arms, all on the full NFVnice mode (cgroups+backpressure+ECN):
//   Baseline   — hysteresis backpressure only. The gate's ring is shared,
//                so the ~2x overload taxes gold and bulk alike: gold keeps
//                roughly its arrival fraction of gate capacity.
//   Admission  — flow classes registered (gold utility 10, bulk utility
//                2). Pressure at the gate sheds bulk at ingress *before*
//                it costs gate CPU; gold rides through.
//   PushAside  — push-aside enabled. When gold_nf's queue crosses the
//                high watermark it confiscates a bounded share slice from
//                the lower-priority hog on its core; latency drops, the
//                gate bottleneck stays.
//   Combined   — both; best goodput *and* best tail.
//
// Headline keys for tools/check_bench_baseline.py:
//   overload_priority_goodput_ratio  gold goodput combined/baseline
//                                    (higher is better, must stay > 1)
//   overload_gold_p99_ratio          gold whole-run p99 combined/baseline
//                                    (lower is better)
//
// Self-checks by exit code (micro_shard precedent): the combined arm's
// report must be byte-identical across a rerun and across sim_shards=1
// vs 4.

#include "harness.hpp"

#include <cstring>

using namespace bench;

namespace {

constexpr double kRunSecs = 1.0;
constexpr double kTargetUs = 300.0;  ///< gold's p99 target.
constexpr Cycles kGateCost = 600;
constexpr Cycles kGoldCost = 1200;  ///< under-provisioned next to the hog.
constexpr Cycles kBulkCost = 50;
constexpr Cycles kHogCost = 600;
constexpr double kGoldRate = 0.5e6;
constexpr double kBulkRate = 8e6;  ///< gate offered ~2x capacity.
constexpr double kHogRate = 5e6;   ///< saturates core1 on its own.

struct Arm {
  const char* name;
  bool admission;
  bool push_aside;
};

constexpr Arm kArmsSpec[] = {
    {"Baseline", false, false},
    {"Admission", true, false},
    {"PushAside", false, true},
    {"Combined", true, true},
};

struct OverloadResult {
  double gold_mpps = 0.0;
  double bulk_mpps = 0.0;
  double hog_mpps = 0.0;
  double gold_p99_us = 0.0;  ///< Whole-run histogram p99.
  double violation_s = 0.0;
  std::uint64_t gold_discards = 0;  ///< Admission trickle discards (gold).
  std::uint64_t bulk_discards = 0;
  std::uint64_t engagements = 0;  ///< Ladder engage events, all classes.
  std::uint64_t grabs = 0;        ///< Push-aside grabs, all NFs.
  std::string report;
};

OverloadResult run_overload(const Arm& arm, bool with_report,
                            int shards_override = -1) {
  PlatformConfig cfg = make_config(kModeNfvnice);
  cfg.manager.push_aside.enabled = arm.push_aside;
  if (shards_override >= 0) {
    cfg.sim_shards = static_cast<std::uint32_t>(shards_override);
  }
  Simulation sim(cfg);
  const auto core0 = sim.add_core(kNormal.policy, kNormal.rr_quantum_ms);
  const auto core1 = sim.add_core(kNormal.policy, kNormal.rr_quantum_ms);

  // NF priorities are fixed across arms; only the two overload-control
  // mechanisms vary, so the frontier deltas are attributable to them.
  // The latency-sensitive NF keeps a short ring (a deep buffer would just
  // hide its tail); with the hog stretching scheduling intervals the ring
  // latches the high watermark, which is what push-aside keys on.
  nfv::core::NfOptions gold_opts;
  gold_opts.priority = 2.0;
  gold_opts.rx_capacity = 256;
  const auto gate =
      sim.add_nf("gate", core0, nfv::nf::CostModel::fixed(kGateCost));
  const auto gold_nf = sim.add_nf(
      "gold_nf", core1, nfv::nf::CostModel::fixed(kGoldCost), gold_opts);
  const auto bulk_nf =
      sim.add_nf("bulk_nf", core1, nfv::nf::CostModel::fixed(kBulkCost));
  const auto hog_nf =
      sim.add_nf("hog", core1, nfv::nf::CostModel::fixed(kHogCost));

  const auto gold = sim.add_chain("gold", {gate, gold_nf});
  const auto bulk = sim.add_chain("bulk", {gate, bulk_nf});
  const auto hog = sim.add_chain("hog", {hog_nf});

  // Tail telemetry (and the violation clock the admission gate uses as an
  // engage trigger) runs in every arm; the boost controller stays off.
  sim.set_chain_slo(gold, kTargetUs);
  if (arm.admission) {
    sim.set_chain_class(gold, /*priority=*/4.0, /*utility=*/10.0);
    sim.set_chain_class(bulk, /*priority=*/1.0, /*utility=*/2.0);
  }

  sim.add_udp_flow(gold, kGoldRate);
  sim.add_udp_flow(bulk, kBulkRate);
  sim.add_udp_flow(hog, kHogRate);

  const double secs = seconds(kRunSecs);
  sim.run_for_seconds(secs);

  OverloadResult out;
  out.gold_mpps = mpps(sim.chain_metrics(gold).egress_packets, secs);
  out.bulk_mpps = mpps(sim.chain_metrics(bulk).egress_packets, secs);
  out.hog_mpps = mpps(sim.chain_metrics(hog).egress_packets, secs);
  out.gold_p99_us = sim.clock().to_micros(
      static_cast<Cycles>(sim.chain_latency_quantile(gold, 0.99)));
  out.violation_s =
      sim.clock().to_seconds(sim.chain_slo_report(gold).violation_cycles);
  const auto gr = sim.chain_admission_report(gold);
  const auto br = sim.chain_admission_report(bulk);
  out.gold_discards = gr.discards;
  out.bulk_discards = br.discards;
  out.engagements = gr.engagements + br.engagements;
  if (const auto* pam = sim.manager().push_aside()) {
    for (const auto id : {gate, gold_nf, bulk_nf, hog_nf}) {
      out.grabs += pam->grabs(id);
    }
  }
  if (with_report) out.report = sim.report_json();
  return out;
}

/// Byte-identity self-checks on the combined arm (everything armed at
/// once): a rerun and an explicit sim_shards 1-vs-4 pair must each
/// produce identical reports.
int self_check() {
  const Arm& combined = kArmsSpec[3];
  const auto a = run_overload(combined, true);
  const auto b = run_overload(combined, true);
  if (a.report != b.report) {
    std::fprintf(stderr, "FAIL: combined arm report differs across reruns\n");
    return 1;
  }
  const auto s1 = run_overload(combined, true, 1);
  const auto s4 = run_overload(combined, true, 4);
  if (s1.report != s4.report) {
    std::fprintf(
        stderr,
        "FAIL: combined arm report differs between sim_shards=1 and 4\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  parse_cli(argc, argv);
  const bool json = json_mode(argc, argv);

  ParallelRunner<OverloadResult> runner;
  for (const Arm& arm : kArmsSpec) {
    runner.submit([&arm, json] { return run_overload(arm, json); });
  }
  const auto results = runner.run();

  const OverloadResult& base = results[0];
  const OverloadResult& comb = results[3];
  const double goodput_ratio =
      base.gold_mpps > 0.0 ? comb.gold_mpps / base.gold_mpps : 0.0;
  const double p99_ratio =
      base.gold_p99_us > 0.0 ? comb.gold_p99_us / base.gold_p99_us : 1.0;

  if (json) {
    std::ostringstream out;
    nfv::obs::JsonWriter w(out);
    w.begin_object();
    w.field("bench", "fig_overload");
    w.field("target_us", kTargetUs);
    w.key("rows");
    w.begin_array();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const OverloadResult& r = results[i];
      w.begin_object();
      w.field("arm", kArmsSpec[i].name);
      w.field("gold_mpps", r.gold_mpps);
      w.field("bulk_mpps", r.bulk_mpps);
      w.field("hog_mpps", r.hog_mpps);
      w.field("gold_p99_us", r.gold_p99_us);
      w.field("violation_seconds", r.violation_s);
      w.field("gold_discards", r.gold_discards);
      w.field("bulk_discards", r.bulk_discards);
      w.field("engagements", r.engagements);
      w.field("push_grabs", r.grabs);
      if (!r.report.empty()) {
        w.key("report");
        w.raw(r.report);
      }
      w.end_object();
    }
    w.end_array();
    w.field("baseline_gold_mpps", base.gold_mpps);
    w.field("combined_gold_mpps", comb.gold_mpps);
    // Headlines for tools/check_bench_baseline.py: the priority class must
    // retain strictly more goodput under ~2x overload with both controls
    // on than under plain backpressure, and its tail must not regress.
    w.field("overload_priority_goodput_ratio", goodput_ratio);
    w.field("overload_gold_p99_ratio", p99_ratio);
    w.end_object();
    std::printf("%s\n", out.str().c_str());
    return self_check();
  }

  std::printf(
      "Cross-chain overload control: a high-priority chain (%.1f Mpps, p99 "
      "target %.0f us) and a bulk\nchain (%.1f Mpps) share one classifier "
      "NF offered ~2x its capacity; a background hog saturates\nthe "
      "downstream core. Admission sheds the low-utility class at ingress; "
      "PushAside confiscates a\nbounded share slice from lower-priority "
      "core neighbors. %.2fs per arm.\n",
      kGoldRate / 1e6, kTargetUs, kBulkRate / 1e6, seconds(kRunSecs));
  print_title("Goodput/latency frontier (NORMAL)");
  print_row({"Arm", "gold Mpps", "bulk Mpps", "hog Mpps", "p99 us", "viol s",
             "shed", "grabs"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const OverloadResult& r = results[i];
    print_row({kArmsSpec[i].name, fmt("%.3f", r.gold_mpps),
               fmt("%.3f", r.bulk_mpps), fmt("%.3f", r.hog_mpps),
               fmt("%.1f", r.gold_p99_us), fmt("%.3f", r.violation_s),
               fmt_count(r.bulk_discards), fmt_count(r.grabs)});
  }
  std::printf(
      "\nHeadline: gold goodput %.3f -> %.3f Mpps (ratio %.3f), gold p99 "
      "ratio %.3f\n",
      base.gold_mpps, comb.gold_mpps, goodput_ratio, p99_ratio);
  return self_check();
}
