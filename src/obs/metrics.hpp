// Metrics registry: named counters/gauges/histograms with label scopes.
//
// Every layer of the platform (manager, cores, backpressure, libnf, async
// I/O) registers its telemetry here so that benches, the report_json()
// export and future dashboards read one uniform namespace instead of
// reaching into component structs. Conventions:
//
//   * names are dotted lowercase paths: "sched.context_switches",
//     "bp.throttle_entries", "mgr.rx_full_drops";
//   * scopes are labels: {"nf","NF1-low"}, {"core","core0"},
//     {"chain","lmh"} — one metric name can exist once per label set;
//   * registration is idempotent: asking for the same (name, labels) pair
//     returns the same instrument, so components can re-register freely.
//
// Two instrument families cover the hot-path/cold-path split:
//   * owned Counter/Gauge/Histogram instruments are incremented at the
//     event site (O(1), no allocation after registration);
//   * counter_fn/gauge_fn register a *sampled* probe evaluated only at
//     export time — zero added cost on the data path, used to project
//     long-standing component counters (NfCounters, ChainCounters, ...)
//     into the registry without double bookkeeping.
//
// Export order is deterministic (std::map over name + serialized labels),
// which the determinism regression suite relies on.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hpp"

namespace nfv::obs {

class JsonWriter;

/// Label set: (key, value) pairs. Sorted by key at registration so that
/// {"a","1"},{"b","2"} and {"b","2"},{"a","1"} name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Null-safe increment helpers: instrumented components hold Counter*
/// pointers that stay nullptr until an Observability context is attached.
inline void inc(Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) c->inc(n);
}
inline void set(Gauge* g, double v) {
  if (g != nullptr) g->set(v);
}

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create instruments. The returned reference is stable for the
  /// registry's lifetime. A (name, labels) pair registered as one kind
  /// must not be re-registered as another (asserted).
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {},
                       std::uint64_t max_value = (1ULL << 40),
                       unsigned buckets_per_octave = 8);

  /// Sampled probes: `fn` is evaluated at export time only.
  void counter_fn(const std::string& name, Labels labels,
                  std::function<std::uint64_t()> fn);
  void gauge_fn(const std::string& name, Labels labels,
                std::function<double()> fn);

  /// Lookup without creating; nullptr when the series does not exist.
  [[nodiscard]] const Counter* find_counter(const std::string& name,
                                            const Labels& labels = {}) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name,
                                        const Labels& labels = {}) const;
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& name, const Labels& labels = {}) const;
  /// Value of a sampled (counter_fn) probe; 0 when absent.
  [[nodiscard]] std::uint64_t sample_counter(const std::string& name,
                                             const Labels& labels = {}) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Dump every series as a JSON array, sorted by (name, labels):
  ///   [{"name":...,"labels":{...},"type":"counter","value":N}, ...]
  /// Histograms export count/sum/min/max plus p50/p90/p99/p999.
  void write_json(std::ostream& out) const;

  /// Union of several registries as one such array, written as the next
  /// value of `json`. Series that appear in more than one registry are
  /// combined: counters (owned and sampled) sum, gauges sum, histograms
  /// merge (identical bucketing required, as with Histogram::merge); a
  /// series held by one registry is written from it, with no copy. The
  /// simulation uses this to present its per-lane registries as one
  /// namespace.
  static void write_json_merged(std::span<const MetricsRegistry* const> parts,
                                JsonWriter& json);

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCounterFn, kGaugeFn };

  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<std::uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
  };

  /// Map key: name + '\0' + serialized sorted labels (unambiguous because
  /// '\0' cannot appear in names or labels).
  static std::string make_key(const std::string& name, const Labels& labels);
  Entry& get_or_create(const std::string& name, Labels labels, Kind kind);
  [[nodiscard]] const Entry* find(const std::string& name,
                                  const Labels& labels) const;

  std::map<std::string, Entry> entries_;
};

/// A registry view that appends a fixed label set to every registration —
/// the per-NF / per-core / per-chain scopes components hand out internally.
class Scope {
 public:
  Scope() = default;
  Scope(MetricsRegistry* registry, Labels labels)
      : registry_(registry), labels_(std::move(labels)) {}

  [[nodiscard]] bool attached() const { return registry_ != nullptr; }

  Counter* counter(const std::string& name) {
    return attached() ? &registry_->counter(name, labels_) : nullptr;
  }
  Gauge* gauge(const std::string& name) {
    return attached() ? &registry_->gauge(name, labels_) : nullptr;
  }
  Histogram* histogram(const std::string& name,
                       std::uint64_t max_value = (1ULL << 40),
                       unsigned buckets_per_octave = 8) {
    return attached() ? &registry_->histogram(name, labels_, max_value,
                                              buckets_per_octave)
                      : nullptr;
  }
  void counter_fn(const std::string& name, std::function<std::uint64_t()> fn) {
    if (attached()) registry_->counter_fn(name, labels_, std::move(fn));
  }
  void gauge_fn(const std::string& name, std::function<double()> fn) {
    if (attached()) registry_->gauge_fn(name, labels_, std::move(fn));
  }

  [[nodiscard]] const Labels& labels() const { return labels_; }

 private:
  MetricsRegistry* registry_ = nullptr;
  Labels labels_;
};

}  // namespace nfv::obs
