// MetricsRegistry: probe registration, label scoping, sampling, and the
// deterministic JSON export.

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/json.hpp"
#include "obs/observability.hpp"

namespace nfv::obs {
namespace {

TEST(MetricsRegistry, CounterGetOrCreateIsIdempotent) {
  MetricsRegistry reg;
  std::uint64_t first = 3;
  std::uint64_t second = 4;
  reg.counter_fn("mgr.drops", {{"nf", "NF1"}}, [&first] { return first; });
  reg.counter_fn("mgr.drops", {{"nf", "NF1"}}, [&second] { return second; });
  EXPECT_EQ(reg.size(), 1u);
  // The later registration replaced the probe of the one series.
  EXPECT_EQ(reg.sample("mgr.drops", {{"nf", "NF1"}}), 4.0);
}

TEST(MetricsRegistry, LabelOrderDoesNotMatter) {
  MetricsRegistry reg;
  reg.counter_fn("x", {{"a", "1"}, {"b", "2"}}, [] { return 1ull; });
  reg.counter_fn("x", {{"b", "2"}, {"a", "1"}}, [] { return 2ull; });
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.sample("x", {{"a", "1"}, {"b", "2"}}), 2.0);
  EXPECT_EQ(reg.sample("x", {{"b", "2"}, {"a", "1"}}), 2.0);
}

TEST(MetricsRegistry, DifferentLabelsAreDifferentSeries) {
  MetricsRegistry reg;
  reg.counter_fn("nf.processed", {{"nf", "NF1"}}, [] { return 1ull; });
  reg.counter_fn("nf.processed", {{"nf", "NF2"}}, [] { return 2ull; });
  reg.counter_fn("nf.processed", {}, [] { return 3ull; });
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.sample("nf.processed", {{"nf", "NF1"}}), 1.0);
  EXPECT_EQ(reg.sample("nf.processed", {{"nf", "NF2"}}), 2.0);
  EXPECT_EQ(reg.sample("nf.processed"), 3.0);
}

TEST(MetricsRegistry, FindWithoutCreating) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.sample("absent").has_value());
  reg.counter_fn("present", {{"nf", "NF1"}}, [] { return 7ull; });
  EXPECT_FALSE(reg.sample("present").has_value());  // unlabeled != labeled
  const auto c = reg.sample("present", {{"nf", "NF1"}});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, 7.0);
  EXPECT_EQ(reg.size(), 1u);  // sampling never creates
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  MetricsRegistry reg;
  double runnable = 0.0;
  reg.gauge_fn("sched.runnable", {}, [&runnable] { return runnable; });
  runnable = 4.0;
  runnable += -1.5;
  const auto found = reg.sample("sched.runnable");
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(*found, 2.5);
}

TEST(MetricsRegistry, SampledCounterFnEvaluatedAtExport) {
  MetricsRegistry reg;
  std::uint64_t source = 0;
  reg.counter_fn("live.value", {}, [&source] { return source; });
  source = 41;
  EXPECT_EQ(reg.sample("live.value"), 41.0);
  source = 42;
  EXPECT_EQ(reg.sample("live.value"), 42.0);
  EXPECT_FALSE(reg.sample("no.such.probe").has_value());
}

TEST(MetricsRegistry, ScopeAppendsLabels) {
  MetricsRegistry reg;
  Scope scope(&reg, {{"nf", "NF2"}});
  ASSERT_TRUE(scope.attached());
  scope.counter_fn("bp.throttles", [] { return 5ull; });
  EXPECT_EQ(reg.sample("bp.throttles", {{"nf", "NF2"}}), 5.0);
  EXPECT_FALSE(reg.sample("bp.throttles").has_value());
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, ObservabilityScopeConventions) {
  Observability obs;
  obs.nf_scope("NF1").counter_fn("a", [] { return 1ull; });
  obs.core_scope("core0").counter_fn("a", [] { return 2ull; });
  obs.chain_scope("0").counter_fn("a", [] { return 3ull; });
  obs.global_scope().counter_fn("a", [] { return 4ull; });
  EXPECT_EQ(obs.metrics().size(), 4u);
  EXPECT_EQ(obs.metrics().sample("a", {{"nf", "NF1"}}), 1.0);
  EXPECT_EQ(obs.metrics().sample("a", {{"core", "core0"}}), 2.0);
  EXPECT_EQ(obs.metrics().sample("a", {{"chain", "0"}}), 3.0);
  EXPECT_EQ(obs.metrics().sample("a"), 4.0);
  EXPECT_EQ(trace_of(nullptr), nullptr);
  EXPECT_EQ(trace_of(&obs), nullptr);  // none attached yet
  TraceRecorder rec;
  obs.attach_trace(&rec);
  EXPECT_EQ(trace_of(&obs), &rec);
}

TEST(MetricsRegistry, WriteJsonIsSortedAndStable) {
  MetricsRegistry reg;
  // Register intentionally out of order.
  reg.counter_fn("z.last", {}, [] { return 1ull; });
  reg.counter_fn("a.first", {{"nf", "NF2"}}, [] { return 2ull; });
  reg.counter_fn("a.first", {{"nf", "NF1"}}, [] { return 3ull; });
  reg.gauge_fn("m.middle", {}, [] { return 1.5; });

  std::ostringstream out;
  reg.write_json(out);
  const std::string json = out.str();

  // Sorted by (name, labels): a.first/NF1 < a.first/NF2 < m.middle < z.last.
  const auto p1 = json.find("NF1");
  const auto p2 = json.find("NF2");
  const auto p3 = json.find("m.middle");
  const auto p4 = json.find("z.last");
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  ASSERT_NE(p3, std::string::npos);
  ASSERT_NE(p4, std::string::npos);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  EXPECT_LT(p3, p4);

  // Byte-stable across exports.
  std::ostringstream again;
  reg.write_json(again);
  EXPECT_EQ(json, again.str());

  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
}

TEST(MetricsRegistry, MergedExportSumsSharedSeries) {
  MetricsRegistry lane0;
  MetricsRegistry lane1;
  lane0.counter_fn("c", {{"nf", "a"}}, [] { return 2ull; });
  lane1.counter_fn("c", {{"nf", "a"}}, [] { return 5ull; });
  lane0.gauge_fn("g", {}, [] { return 0.25; });
  lane1.gauge_fn("g", {}, [] { return 0.5; });
  lane1.counter_fn("only1", {}, [] { return 9ull; });

  std::ostringstream out;
  {
    JsonWriter json(out);
    const MetricsRegistry* parts[] = {&lane0, &lane1};
    MetricsRegistry::write_json_merged(parts, json);
  }
  EXPECT_EQ(out.str(),
            "[{\"name\":\"c\",\"labels\":{\"nf\":\"a\"},\"type\":\"counter\","
            "\"value\":7},"
            "{\"name\":\"g\",\"labels\":{},\"type\":\"gauge\",\"value\":0.75},"
            "{\"name\":\"only1\",\"labels\":{},\"type\":\"counter\","
            "\"value\":9}]");
}

}  // namespace
}  // namespace nfv::obs
