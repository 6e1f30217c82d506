#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
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
                                                       Labels labels,
                                                       Kind kind) {
  std::sort(labels.begin(), labels.end());
  const std::string key = make_key(name, labels);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry entry;
    entry.name = name;
    entry.labels = std::move(labels);
    entry.kind = kind;
    it = entries_.emplace(key, std::move(entry)).first;
  }
  assert(it->second.kind == kind && "metric re-registered as another kind");
  return it->second;
}

const MetricsRegistry::Entry* MetricsRegistry::find(
    const std::string& name, const Labels& labels) const {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  const auto it = entries_.find(make_key(name, sorted));
  return it == entries_.end() ? nullptr : &it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  Entry& entry = get_or_create(name, std::move(labels), Kind::kCounter);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  Entry& entry = get_or_create(name, std::move(labels), Kind::kGauge);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, Labels labels,
                                      std::uint64_t max_value,
                                      unsigned buckets_per_octave) {
  Entry& entry = get_or_create(name, std::move(labels), Kind::kHistogram);
  if (!entry.histogram) {
    entry.histogram = std::make_unique<Histogram>(max_value, buckets_per_octave);
  }
  return *entry.histogram;
}

void MetricsRegistry::counter_fn(const std::string& name, Labels labels,
                                 std::function<std::uint64_t()> fn) {
  Entry& entry = get_or_create(name, std::move(labels), Kind::kCounterFn);
  entry.counter_fn = std::move(fn);
}

void MetricsRegistry::gauge_fn(const std::string& name, Labels labels,
                               std::function<double()> fn) {
  Entry& entry = get_or_create(name, std::move(labels), Kind::kGaugeFn);
  entry.gauge_fn = std::move(fn);
}

const Counter* MetricsRegistry::find_counter(const std::string& name,
                                             const Labels& labels) const {
  const Entry* entry = find(name, labels);
  return entry != nullptr && entry->kind == Kind::kCounter
             ? entry->counter.get()
             : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name,
                                         const Labels& labels) const {
  const Entry* entry = find(name, labels);
  return entry != nullptr && entry->kind == Kind::kGauge ? entry->gauge.get()
                                                         : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                 const Labels& labels) const {
  const Entry* entry = find(name, labels);
  return entry != nullptr && entry->kind == Kind::kHistogram
             ? entry->histogram.get()
             : nullptr;
}

std::uint64_t MetricsRegistry::sample_counter(const std::string& name,
                                              const Labels& labels) const {
  const Entry* entry = find(name, labels);
  return entry != nullptr && entry->kind == Kind::kCounterFn && entry->counter_fn
             ? entry->counter_fn()
             : 0;
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
    bool is_counter = false;
    bool is_gauge = false;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    const Histogram* hist = nullptr;
    std::optional<Histogram> merged;  // only when several parts hold one
    for (auto& [it, end] : cursors) {
      // `key` lives in a map node, so it stays valid as cursors advance.
      if (it == end || it->first != *key) continue;
      const Entry& entry = it->second;
      if (first == nullptr) first = &entry;
      switch (entry.kind) {
        case Kind::kCounter:
          is_counter = true;
          counter += entry.counter->value();
          break;
        case Kind::kCounterFn:
          is_counter = true;
          counter += entry.counter_fn ? entry.counter_fn() : 0;
          break;
        case Kind::kGauge:
          is_gauge = true;
          gauge += entry.gauge->value();
          break;
        case Kind::kGaugeFn:
          is_gauge = true;
          gauge += entry.gauge_fn ? entry.gauge_fn() : 0.0;
          break;
        case Kind::kHistogram:
          if (hist == nullptr) {
            hist = entry.histogram.get();
          } else {
            if (!merged) merged.emplace(*hist);
            merged->merge(*entry.histogram);
            hist = &*merged;
          }
          break;
      }
      assert(!(is_counter && is_gauge) &&
             "series registered as counter in one registry, gauge in another");
      assert((hist == nullptr || (!is_counter && !is_gauge)) &&
             "series registered as histogram in one registry, scalar in another");
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
    if (is_counter) {
      json.field("type", "counter");
      json.field("value", counter);
    } else if (is_gauge) {
      json.field("type", "gauge");
      json.field("value", gauge);
    } else {
      json.field("type", "histogram");
      json.field("count", hist->count());
      json.field("sum", hist->sum());
      json.field("min", hist->min());
      json.field("max", hist->max());
      json.field("p50", hist->value_at_quantile(0.50));
      json.field("p90", hist->value_at_quantile(0.90));
      json.field("p99", hist->value_at_quantile(0.99));
      json.field("p999", hist->value_at_quantile(0.999));
    }
    json.end_object();
  }
  json.end_array();
}

}  // namespace nfv::obs
