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

void MetricsRegistry::write_json_merged(
    const std::vector<const MetricsRegistry*>& parts, std::ostream& out) {
  if (parts.size() == 1 && parts.front() != nullptr) {
    parts.front()->write_json(out);
    return;
  }
  struct Merged {
    const Entry* first = nullptr;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    std::vector<const Histogram*> histograms;
    bool is_counter = false;
    bool is_gauge = false;
  };
  // std::map keyed identically to entries_, so the merged export iterates in
  // exactly the order write_json would.
  std::map<std::string, Merged> merged;
  for (const MetricsRegistry* part : parts) {
    if (part == nullptr) continue;
    for (const auto& [key, entry] : part->entries_) {
      Merged& m = merged[key];
      if (m.first == nullptr) m.first = &entry;
      switch (entry.kind) {
        case Kind::kCounter:
          m.is_counter = true;
          m.counter += entry.counter->value();
          break;
        case Kind::kCounterFn:
          m.is_counter = true;
          m.counter += entry.counter_fn ? entry.counter_fn() : 0;
          break;
        case Kind::kGauge:
          m.is_gauge = true;
          m.gauge += entry.gauge->value();
          break;
        case Kind::kGaugeFn:
          m.is_gauge = true;
          m.gauge += entry.gauge_fn ? entry.gauge_fn() : 0.0;
          break;
        case Kind::kHistogram:
          m.histograms.push_back(entry.histogram.get());
          break;
      }
      assert(!(m.is_counter && m.is_gauge) &&
             "series registered as counter in one registry, gauge in another");
      assert((m.histograms.empty() || (!m.is_counter && !m.is_gauge)) &&
             "series registered as histogram in one registry, scalar in another");
    }
  }

  JsonWriter json(out);
  json.begin_array();
  for (const auto& [key, m] : merged) {
    (void)key;
    const Entry& entry = *m.first;
    json.begin_object();
    json.field("name", std::string_view(entry.name));
    json.key("labels");
    json.begin_object();
    for (const auto& [k, v] : entry.labels) {
      json.field(std::string_view(k), std::string_view(v));
    }
    json.end_object();
    if (m.is_counter) {
      json.field("type", "counter");
      json.field("value", m.counter);
    } else if (m.is_gauge) {
      json.field("type", "gauge");
      json.field("value", m.gauge);
    } else {
      Histogram h = *m.histograms.front();
      for (std::size_t i = 1; i < m.histograms.size(); ++i) {
        h.merge(*m.histograms[i]);
      }
      json.field("type", "histogram");
      json.field("count", h.count());
      json.field("sum", h.sum());
      json.field("min", h.min());
      json.field("max", h.max());
      json.field("p50", h.value_at_quantile(0.50));
      json.field("p90", h.value_at_quantile(0.90));
      json.field("p99", h.value_at_quantile(0.99));
      json.field("p999", h.value_at_quantile(0.999));
    }
    json.end_object();
  }
  json.end_array();
}

void MetricsRegistry::write_json(std::ostream& out) const {
  JsonWriter json(out);
  json.begin_array();
  for (const auto& [key, entry] : entries_) {
    (void)key;
    json.begin_object();
    json.field("name", std::string_view(entry.name));
    json.key("labels");
    json.begin_object();
    for (const auto& [k, v] : entry.labels) {
      json.field(std::string_view(k), std::string_view(v));
    }
    json.end_object();
    switch (entry.kind) {
      case Kind::kCounter:
        json.field("type", "counter");
        json.field("value", entry.counter->value());
        break;
      case Kind::kCounterFn:
        json.field("type", "counter");
        json.field("value", entry.counter_fn ? entry.counter_fn() : 0);
        break;
      case Kind::kGauge:
        json.field("type", "gauge");
        json.field("value", entry.gauge->value());
        break;
      case Kind::kGaugeFn:
        json.field("type", "gauge");
        json.field("value", entry.gauge_fn ? entry.gauge_fn() : 0.0);
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        json.field("type", "histogram");
        json.field("count", h.count());
        json.field("sum", h.sum());
        json.field("min", h.min());
        json.field("max", h.max());
        json.field("p50", h.value_at_quantile(0.50));
        json.field("p90", h.value_at_quantile(0.90));
        json.field("p99", h.value_at_quantile(0.99));
        json.field("p999", h.value_at_quantile(0.999));
        break;
      }
    }
    json.end_object();
  }
  json.end_array();
}

}  // namespace nfv::obs
