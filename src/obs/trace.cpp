#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace nfv::obs {

StrId TraceRecorder::intern(std::string_view s) {
  if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
  const auto id = static_cast<StrId>(strings_.size());
  ids_.emplace(strings_.emplace_back(s), id);
  return id;
}

bool TraceRecorder::admit(Cycles ts) {
  if (events_.size() < config_.max_events) return true;
  ++dropped_;
  if (!config_.keep_earliest || events_.empty()) return false;
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.ts < b.ts;
                     });
    sorted_ = true;
  }
  // Later-recorded events rank after every stored one with the same ts.
  if (ts >= events_.back().ts) return false;
  events_.pop_back();  // the latest stored event is the one dropped
  return true;
}

void TraceRecorder::store(const TraceEvent& ev) {
  if (!sorted_) {
    events_.push_back(ev);
    return;
  }
  const auto at = std::upper_bound(
      events_.begin(), events_.end(), ev.ts,
      [](Cycles ts, const TraceEvent& e) { return ts < e.ts; });
  events_.insert(at, ev);
}

void TraceRecorder::emit(char phase, Cycles ts, std::uint32_t lane,
                         std::string_view cat, std::string_view name,
                         std::initializer_list<StrArg> args,
                         std::initializer_list<NumArg> num_args) {
  if (args.size() + num_args.size() > TraceEvent::kMaxArgs) {
    throw std::invalid_argument("trace event has more than " +
                                std::to_string(TraceEvent::kMaxArgs) +
                                " arguments");
  }
  if (!admit(ts)) return;
  TraceEvent ev;
  ev.ts = ts;
  ev.phase = phase;
  ev.lane = lane;
  ev.cat = intern(cat);
  ev.name = intern(name);
  for (const auto& [k, v] : args) {
    ev.arg_key[ev.arg_count] = intern(k);
    ev.arg_value[ev.arg_count++] = intern(v);
  }
  ev.str_arg_count = ev.arg_count;
  for (const auto& [k, v] : num_args) {
    ev.arg_key[ev.arg_count] = intern(k);
    ev.arg_value[ev.arg_count++] = v;
  }
  store(ev);
}

void TraceRecorder::record(TraceEvent ev, std::span<const StrId> ids) {
  if (!admit(ev.ts)) return;
  ev.cat = ids[ev.cat];
  ev.name = ids[ev.name];
  for (std::uint8_t i = 0; i < ev.arg_count; ++i) {
    ev.arg_key[i] = ids[ev.arg_key[i]];
    if (i < ev.str_arg_count) {
      ev.arg_value[i] = ids[static_cast<StrId>(ev.arg_value[i])];
    }
  }
  store(ev);
}

void TraceRecorder::map_strings(const TraceRecorder& from,
                                std::vector<StrId>& ids) {
  for (std::size_t i = ids.size(); i < from.strings_.size(); ++i) {
    ids.push_back(intern(from.strings_[i]));
  }
}

DecodedEvent TraceRecorder::decode(const TraceEvent& ev) const {
  DecodedEvent out;
  out.ts = ev.ts;
  out.phase = ev.phase;
  out.lane = ev.lane;
  out.cat = str(ev.cat);
  out.name = str(ev.name);
  for (std::uint8_t i = 0; i < ev.arg_count; ++i) {
    if (i < ev.str_arg_count) {
      out.args.emplace_back(str(ev.arg_key[i]),
                            str(static_cast<StrId>(ev.arg_value[i])));
    } else {
      out.num_args.emplace_back(str(ev.arg_key[i]), ev.arg_value[i]);
    }
  }
  return out;
}

void TraceRecorder::write_chrome_json(std::ostream& out) const {
  const double cycles_per_us = config_.cpu_hz / 1e6;
  std::vector<std::string> quoted;
  quoted.reserve(strings_.size());
  for (const std::string& s : strings_) quoted.push_back(JsonWriter::quote(s));

  JsonWriter json(out);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  // Thread-name metadata first (Chrome reads 'M' events in any position,
  // but a fixed position keeps the stream canonical for diffing).
  for (const auto& [lane, name] : lane_names_) {
    json.begin_object();
    json.field("name", "thread_name");
    json.field("ph", "M");
    json.field("pid", std::uint64_t{0});
    json.field("tid", std::uint64_t{lane});
    json.key("args");
    json.begin_object();
    json.field("name", std::string_view(name));
    json.end_object();
    json.end_object();
  }
  for (const TraceEvent& ev : events_) {
    json.begin_object();
    json.key("name");
    json.raw(quoted[ev.name]);
    json.key("cat");
    json.raw(quoted[ev.cat]);
    json.key("ph");
    json.value(std::string_view(&ev.phase, 1));
    json.field("ts", static_cast<double>(ev.ts) / cycles_per_us);
    json.field("pid", std::uint64_t{0});
    json.field("tid", std::uint64_t{ev.lane});
    if (ev.phase == 'i') json.field("s", "t");  // instant scope: thread
    if (ev.arg_count > 0) {
      json.key("args");
      json.begin_object();
      for (std::uint8_t i = 0; i < ev.arg_count; ++i) {
        json.quoted_key(quoted[ev.arg_key[i]]);
        if (i < ev.str_arg_count) {
          json.raw(quoted[static_cast<StrId>(ev.arg_value[i])]);
        } else {
          json.value(ev.arg_value[i]);
        }
      }
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
  json.field("displayTimeUnit", "ns");
  json.key("otherData");
  json.begin_object();
  json.field("dropped_events", dropped_);
  json.field("cpu_hz", config_.cpu_hz);
  json.end_object();
  json.end_object();
}

}  // namespace nfv::obs
