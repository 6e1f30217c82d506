// Facts the report states twice — once in its topology blocks, once as a
// registry series — are one count read twice: on a one-lane run where every
// such event happens, both readings agree and neither is zero.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace nfv::core {
namespace {

/// The unsigned number after `"key":`, first found at or after `from`.
std::uint64_t number_after(const std::string& json, const std::string& key,
                           std::size_t from) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + needle.size()));
}

/// Start of the report object whose first field is `"name":<name>` and
/// whose second field is `next_key` (picks a block: nfs, chains or cores).
std::size_t block(const std::string& json, const std::string& name,
                  const std::string& next_key) {
  const std::size_t at =
      json.find("{\"name\":\"" + name + "\",\"" + next_key + "\":");
  EXPECT_NE(at, std::string::npos) << name;
  return at;
}

/// Value of the registry counter `name` with one label, or none ({}).
std::uint64_t series(const std::string& json, const std::string& name,
                     const std::string& label_key = "",
                     const std::string& label_value = "") {
  const std::string labels =
      label_key.empty() ? "{}"
                        : "{\"" + label_key + "\":\"" + label_value + "\"}";
  const std::string head = "{\"name\":\"" + name + "\",\"labels\":" + labels +
                           ",\"type\":\"counter\",";
  const std::size_t at = json.find(head);
  EXPECT_NE(at, std::string::npos) << name << " " << labels;
  if (at == std::string::npos) return 0;
  return number_after(json, "value", at);
}

TEST(ReportSeries, FactsReportedTwiceAgree) {
  PlatformConfig cfg;
  cfg.set_nfvnice(true);
  Simulation sim(cfg);
  // One core, so every NF competes for it: context switches. The shared
  // first hop `gate` is offered about twice what it serves until the bulk
  // flow stops: its queue crosses the watermarks (backpressure watch,
  // throttle and clear), the admission gate sheds the low-utility bulk
  // class, and the TCP flow on the gold chain sees ECN marks.
  const auto core = sim.add_core(SchedPolicy::kCfsNormal);
  const std::vector<std::string> names = {"gate", "gold_nf", "bulk_nf"};
  const auto gate = sim.add_nf(names[0], core, nf::CostModel::fixed(600));
  const auto gold_nf = sim.add_nf(names[1], core, nf::CostModel::fixed(300));
  const auto bulk_nf = sim.add_nf(names[2], core, nf::CostModel::fixed(50));
  const auto gold = sim.add_chain("gold", {gate, gold_nf});
  const auto bulk = sim.add_chain("bulk", {gate, bulk_nf});
  sim.set_chain_class(gold, /*priority=*/4.0, /*utility=*/10.0);
  sim.set_chain_class(bulk, /*priority=*/1.0, /*utility=*/2.0);
  std::vector<flow::FlowId> flows;
  flows.push_back(sim.add_udp_flow(gold, 0.3e6));
  flows.push_back(sim.add_udp_flow(bulk, 6e6, {.stop_seconds = 0.15}));
  flows.push_back(sim.add_tcp_flow(gold).first);
  sim.run_for_seconds(0.25);
  ASSERT_FALSE(sim.sharded());
  const std::string report = sim.report_json();

  const std::string core_name = sim.core(core).name();
  const std::uint64_t switch_cycles = number_after(
      report, "switch_overhead_cycles", block(report, core_name, "numa_node"));
  EXPECT_GT(switch_cycles, 0u);
  EXPECT_EQ(switch_cycles, series(report, "sched.switch_overhead_cycles",
                                  "core", core_name));

  for (const std::string& name : names) {
    const std::uint64_t arrivals =
        number_after(report, "arrivals", block(report, name, "core"));
    EXPECT_GT(arrivals, 0u) << name;
    EXPECT_EQ(arrivals, series(report, "mgr.rx_enqueued", "nf", name)) << name;
  }

  std::uint64_t discards = 0;
  for (const flow::ChainId chain : {gold, bulk}) {
    const std::string name = sim.chains().get(chain).name;
    const std::uint64_t chain_discards = number_after(
        report, "admission_discards", block(report, name, "entry_admitted"));
    EXPECT_EQ(chain_discards, series(report, "adm.discards", "chain",
                                     std::to_string(chain)))
        << name;
    discards += chain_discards;
  }
  EXPECT_GT(discards, 0u);
  EXPECT_EQ(discards, series(report, "mgr.admission_discards"));

  const bp::BpStats bp = sim.manager().backpressure()->stats();
  bp::BpStats per_nf;
  std::uint64_t nf_marks = 0;
  for (const std::string& name : names) {
    per_nf.watch_entries += series(report, "bp.watch_entries", "nf", name);
    per_nf.throttle_entries +=
        series(report, "bp.throttle_entries", "nf", name);
    per_nf.throttle_clears += series(report, "bp.throttle_clears", "nf", name);
    nf_marks += series(report, "mgr.ecn_marks", "nf", name);
  }
  EXPECT_GT(bp.watch_entries, 0u);
  EXPECT_GT(bp.throttle_entries, 0u);
  EXPECT_GT(bp.throttle_clears, 0u);
  EXPECT_EQ(per_nf.watch_entries, bp.watch_entries);
  EXPECT_EQ(per_nf.throttle_entries, bp.throttle_entries);
  EXPECT_EQ(per_nf.throttle_clears, bp.throttle_clears);

  std::uint64_t flow_marks = 0;
  for (const flow::FlowId flow : flows) {
    flow_marks += sim.manager().flow_counters(flow).ecn_marked;
  }
  EXPECT_GT(flow_marks, 0u);
  EXPECT_EQ(nf_marks, flow_marks);
}

}  // namespace
}  // namespace nfv::core
