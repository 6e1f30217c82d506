#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "obs/json.hpp"

namespace nfv::obs {

std::string MetricsRegistry::make_key(const std::string& name,
                                      const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\0';
    key += k;
    key += '\0';
    key += v;
  }
  return key;
}

MetricsRegistry::Entry& MetricsRegistry::get_or_create(const std::string& name,
                                                       Labels labels) {
  std::sort(labels.begin(), labels.end());
  const std::string key = make_key(name, labels);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.name = name;
    entry.labels = std::move(labels);
    it = entries_.emplace(key, std::move(entry)).first;
  }
  return it->second;
}

void MetricsRegistry::counter_fn(const std::string& name, Labels labels,
                                 std::function<std::uint64_t()> fn) {
  assert(fn && "a probe needs a function");
  Entry& entry = get_or_create(name, std::move(labels));
  assert(!entry.gauge && "metric re-registered as another kind");
  entry.counter = std::move(fn);
}

void MetricsRegistry::gauge_fn(const std::string& name, Labels labels,
                               std::function<double()> fn) {
  assert(fn && "a probe needs a function");
  Entry& entry = get_or_create(name, std::move(labels));
  assert(!entry.counter && "metric re-registered as another kind");
  entry.gauge = std::move(fn);
}

std::optional<double> MetricsRegistry::sample(const std::string& name,
                                              const Labels& labels) const {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  const auto it = entries_.find(make_key(name, sorted));
  if (it == entries_.end()) return std::nullopt;
  const Entry& entry = it->second;
  return entry.counter ? static_cast<double>(entry.counter()) : entry.gauge();
}

void MetricsRegistry::write_json(std::ostream& out) const {
  JsonWriter json(out);
  const MetricsRegistry* self = this;
  write_json_merged({&self, 1}, json);
}

void MetricsRegistry::write_json_merged(
    std::span<const MetricsRegistry* const> parts, JsonWriter& json) {
  // Every registry's entries_ is sorted by the same key, so one pass over
  // all of them in key order (a k-way merge) visits each series once, in
  // exactly the order a single registry's export would.
  using Cursor = std::pair<std::map<std::string, Entry>::const_iterator,
                           std::map<std::string, Entry>::const_iterator>;
  std::vector<Cursor> cursors;
  for (const MetricsRegistry* part : parts) {
    if (part != nullptr) {
      cursors.emplace_back(part->entries_.begin(), part->entries_.end());
    }
  }
  json.begin_array();
  for (;;) {
    const std::string* key = nullptr;
    for (const auto& [it, end] : cursors) {
      if (it != end && (key == nullptr || it->first < *key)) key = &it->first;
    }
    if (key == nullptr) break;

    const Entry* first = nullptr;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    for (auto& [it, end] : cursors) {
      // `key` lives in a map node, so it stays valid as cursors advance.
      if (it == end || it->first != *key) continue;
      const Entry& entry = it->second;
      if (first == nullptr) first = &entry;
      assert(static_cast<bool>(entry.counter) ==
                 static_cast<bool>(first->counter) &&
             "series registered as counter in one registry, gauge in another");
      if (entry.counter) {
        counter += entry.counter();
      } else {
        gauge += entry.gauge();
      }
      ++it;
    }

    json.begin_object();
    json.field("name", std::string_view(first->name));
    json.key("labels");
    json.begin_object();
    for (const auto& [k, v] : first->labels) {
      json.field(std::string_view(k), std::string_view(v));
    }
    json.end_object();
    if (first->counter) {
      json.field("type", "counter");
      json.field("value", counter);
    } else {
      json.field("type", "gauge");
      json.field("value", gauge);
    }
    json.end_object();
  }
  json.end_array();
}

}  // namespace nfv::obs
