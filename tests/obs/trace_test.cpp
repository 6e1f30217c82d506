// TraceRecorder: event recording, the max_events cap, and the Chrome
// trace_event JSON encoding.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace nfv::obs {
namespace {

TEST(TraceRecorder, RecordsInstantAndCounterEvents) {
  TraceRecorder rec;
  rec.instant(100, 0, "sched", "wakeup", {{"task", "NF1"}});
  rec.counter(200, kManagerLane, "mgr", "cpu_shares", "NF1", 512);

  ASSERT_EQ(rec.events().size(), 2u);
  const DecodedEvent a = rec.decode(rec.events()[0]);
  EXPECT_EQ(a.ts, 100);
  EXPECT_EQ(a.phase, 'i');
  EXPECT_EQ(a.lane, 0u);
  EXPECT_EQ(a.cat, "sched");
  EXPECT_EQ(a.name, "wakeup");
  ASSERT_EQ(a.args.size(), 1u);
  EXPECT_EQ(a.args[0].first, "task");
  EXPECT_EQ(a.args[0].second, "NF1");

  const DecodedEvent b = rec.decode(rec.events()[1]);
  EXPECT_EQ(b.phase, 'C');
  EXPECT_EQ(b.lane, kManagerLane);
  ASSERT_EQ(b.num_args.size(), 1u);
  EXPECT_EQ(b.num_args[0].first, "NF1");
  EXPECT_EQ(b.num_args[0].second, 512);
}

TEST(TraceRecorder, CapCountsDroppedEvents) {
  TraceRecorder::Config cfg;
  cfg.max_events = 3;
  TraceRecorder rec(cfg);
  for (int i = 0; i < 10; ++i) rec.instant(i, 0, "c", "e");
  EXPECT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.dropped_events(), 7u);
  // What *is* stored is the deterministic prefix.
  EXPECT_EQ(rec.events()[2].ts, 2);
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST(TraceRecorder, InterningReturnsStableIds) {
  TraceRecorder rec;
  const StrId sched = rec.intern("sched");
  const StrId wakeup = rec.intern("wakeup");
  EXPECT_NE(sched, wakeup);
  EXPECT_EQ(rec.intern(std::string("sched")), sched);
  EXPECT_EQ(rec.str(sched), "sched");
  EXPECT_EQ(rec.string_count(), 2u);

  // Recording reuses the interned ids and adds only unseen strings.
  rec.instant(1, 0, "sched", "wakeup", {{"task", "NF1"}});
  EXPECT_EQ(rec.events()[0].cat, sched);
  EXPECT_EQ(rec.events()[0].name, wakeup);
  EXPECT_EQ(rec.string_count(), 4u);  // + "task", "NF1"
  const StrId task = rec.intern("task");

  // Ids survive clear(); strings interned later get fresh ids.
  rec.clear();
  EXPECT_EQ(rec.intern("sched"), sched);
  EXPECT_EQ(rec.intern("task"), task);
  EXPECT_EQ(rec.intern("yield"), 4u);
  EXPECT_EQ(rec.str(task), "task");
}

TEST(TraceRecorder, DecodedEventEqualsWhatWasRecorded) {
  TraceRecorder rec;
  const std::string nf = "NF2-med";
  rec.instant(2600, kBackpressureLane, "bp", "bp_transition",
              {{"nf", nf}, {"from", "CLEAR"}, {"to", "WATCH"}},
              {{"qlen", -52}});
  rec.instant(2700, 3, "mgr", "ecn_mark", {},
              {{"flow", INT64_MIN}, {"qlen", INT64_MAX}});
  rec.counter(2800, kSloLane, "slo", "chain_boost", "lmh", 1250);

  DecodedEvent bp;
  bp.ts = 2600;
  bp.lane = kBackpressureLane;
  bp.cat = "bp";
  bp.name = "bp_transition";
  bp.args = {{"nf", "NF2-med"}, {"from", "CLEAR"}, {"to", "WATCH"}};
  bp.num_args = {{"qlen", -52}};
  EXPECT_EQ(rec.decode(rec.events()[0]), bp);

  DecodedEvent ecn;
  ecn.ts = 2700;
  ecn.lane = 3;
  ecn.cat = "mgr";
  ecn.name = "ecn_mark";
  ecn.num_args = {{"flow", INT64_MIN}, {"qlen", INT64_MAX}};
  EXPECT_EQ(rec.decode(rec.events()[1]), ecn);

  DecodedEvent boost;
  boost.ts = 2800;
  boost.phase = 'C';
  boost.lane = kSloLane;
  boost.cat = "slo";
  boost.name = "chain_boost";
  boost.num_args = {{"lmh", 1250}};
  EXPECT_EQ(rec.decode(rec.events()[2]), boost);
}

TEST(TraceRecorder, MoreArgumentsThanAnEventHoldsAreRefused) {
  TraceRecorder rec;
  EXPECT_THROW(rec.instant(0, 0, "c", "e",
                           {{"a", "1"}, {"b", "2"}, {"c", "3"}},
                           {{"d", 4}, {"e", 5}}),
               std::invalid_argument);
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.dropped_events(), 0u);
}

TEST(TraceRecorder, KeepEarliestKeepsTheEarliestByTimestampThenOrder) {
  TraceRecorder::Config cfg;
  cfg.max_events = 3;
  cfg.keep_earliest = true;
  TraceRecorder rec(cfg);
  const std::pair<Cycles, const char*> stream[] = {
      {5, "a"}, {1, "b"}, {4, "c"}, {1, "d"}, {9, "e"}, {2, "f"}, {1, "g"}};
  for (const auto& [ts, name] : stream) rec.instant(ts, 0, "c", name);
  ASSERT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.dropped_events(), 4u);
  // (1,b) (1,d) (1,g) beat every later timestamp; equal stamps keep their
  // recording order.
  EXPECT_EQ(rec.decode(rec.events()[0]).name, "b");
  EXPECT_EQ(rec.decode(rec.events()[1]).name, "d");
  EXPECT_EQ(rec.decode(rec.events()[2]).name, "g");

  // The default keeps the first events recorded.
  TraceRecorder::Config first_cfg;
  first_cfg.max_events = 3;
  TraceRecorder first(first_cfg);
  for (const auto& [ts, name] : stream) first.instant(ts, 0, "c", name);
  EXPECT_EQ(first.decode(first.events()[2]).name, "c");
  EXPECT_EQ(first.dropped_events(), 4u);
}

TEST(TraceRecorder, MapStringsCarriesEventsBetweenRecorders) {
  TraceRecorder lane;
  TraceRecorder merged;
  merged.intern("unrelated");  // the two id spaces differ
  std::vector<StrId> ids;
  lane.instant(10, 1, "sched", "ctx_switch", {{"from", "a"}, {"to", "b"}},
               {{"cost_cycles", 7}});
  merged.map_strings(lane, ids);
  EXPECT_EQ(ids.size(), lane.string_count());
  merged.record(lane.events()[0], ids);

  lane.instant(11, 1, "sched", "wakeup", {{"task", "a"}});
  merged.map_strings(lane, ids);  // maps only "wakeup" and "task"
  EXPECT_EQ(ids.size(), lane.string_count());
  merged.record(lane.events()[1], ids);

  ASSERT_EQ(merged.events().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(merged.decode(merged.events()[i]), lane.decode(lane.events()[i]));
  }
}

TEST(TraceRecorder, ChromeJsonEncoding) {
  TraceRecorder::Config cfg;
  cfg.cpu_hz = 2.6e9;  // 2600 cycles per microsecond
  TraceRecorder rec(cfg);
  rec.set_lane_name(0, "core0");
  rec.set_lane_name(kBackpressureLane, "backpressure");
  rec.instant(2600, 0, "sched", "ctx_switch", {{"from", "NF1"}, {"to", "NF2"}},
              {{"cost_cycles", 3900}});
  rec.counter(5200, kBackpressureLane, "bp", "qlen", "NF1", 42);

  std::ostringstream out;
  rec.write_chrome_json(out);
  const std::string json = out.str();

  // Document shell.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);

  // Thread-name metadata precedes the first real event.
  const auto meta = json.find("thread_name");
  const auto first_event = json.find("ctx_switch");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(first_event, std::string::npos);
  EXPECT_LT(meta, first_event);
  EXPECT_NE(json.find("\"args\":{\"name\":\"core0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"backpressure\"}"),
            std::string::npos);

  // 2600 cycles at 2.6 GHz = 1 us.
  EXPECT_NE(json.find("\"ts\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(
      json.find("\"args\":{\"from\":\"NF1\",\"to\":\"NF2\",\"cost_cycles\":3900}"),
      std::string::npos);
  EXPECT_NE(json.find("\"tid\":901"), std::string::npos);

  // Byte-stable across exports.
  std::ostringstream again;
  rec.write_chrome_json(again);
  EXPECT_EQ(json, again.str());
}

TEST(TraceRecorder, JsonEscapesStrings) {
  TraceRecorder rec;
  rec.instant(0, 0, "cat", "quote\"back\\slash", {{"k", "line\nbreak"}});
  std::ostringstream out;
  rec.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

}  // namespace
}  // namespace nfv::obs
