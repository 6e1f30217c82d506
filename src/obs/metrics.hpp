// Metrics registry: named, labelled series sampled from the components
// that keep the counts.
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
//   * registration is idempotent: registering the same (name, labels) pair
//     again replaces its probe.
//
// Every series is a probe: counter_fn/gauge_fn register a function that
// reads a field its component already keeps, evaluated only when the
// registry is sampled (at export, or through sample()). A component counts
// each event once, in a plain field, and the data path does nothing for
// the registry.
//
// Export order is deterministic (std::map over name + serialized labels),
// which the determinism regression suite relies on.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace nfv::obs {

class JsonWriter;

/// Label set: (key, value) pairs. Sorted by key at registration so that
/// {"a","1"},{"b","2"} and {"b","2"},{"a","1"} name the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register a probe, evaluated whenever the registry is sampled. A
  /// (name, labels) pair registered as a counter must not be re-registered
  /// as a gauge, nor the reverse (asserted).
  void counter_fn(const std::string& name, Labels labels,
                  std::function<std::uint64_t()> fn);
  void gauge_fn(const std::string& name, Labels labels,
                std::function<double()> fn);

  /// The series' current value (a counter's count or a gauge's reading);
  /// nullopt when no such series is registered. Never creates one.
  [[nodiscard]] std::optional<double> sample(const std::string& name,
                                             const Labels& labels = {}) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Dump every series as a JSON array, sorted by (name, labels):
  ///   [{"name":...,"labels":{...},"type":"counter","value":N}, ...]
  void write_json(std::ostream& out) const;

  /// Union of several registries as one such array, written as the next
  /// value of `json`. Series that appear in more than one registry are
  /// summed. The simulation uses this to present its per-lane registries
  /// as one namespace.
  static void write_json_merged(std::span<const MetricsRegistry* const> parts,
                                JsonWriter& json);

 private:
  /// Exactly one of `counter` and `gauge` is set.
  struct Entry {
    std::string name;
    Labels labels;
    std::function<std::uint64_t()> counter;
    std::function<double()> gauge;
  };

  /// Map key: name + '\0' + serialized sorted labels (unambiguous because
  /// '\0' cannot appear in names or labels).
  static std::string make_key(const std::string& name, const Labels& labels);
  Entry& get_or_create(const std::string& name, Labels labels);

  std::map<std::string, Entry> entries_;
};

/// A registry view that appends a fixed label set to every registration —
/// the per-NF / per-core / per-chain scopes components hand out internally.
/// A detached scope registers nothing.
class Scope {
 public:
  Scope() = default;
  Scope(MetricsRegistry* registry, Labels labels)
      : registry_(registry), labels_(std::move(labels)) {}

  [[nodiscard]] bool attached() const { return registry_ != nullptr; }

  void counter_fn(const std::string& name, std::function<std::uint64_t()> fn) {
    if (attached()) registry_->counter_fn(name, labels_, std::move(fn));
  }
  void gauge_fn(const std::string& name, std::function<double()> fn) {
    if (attached()) registry_->gauge_fn(name, labels_, std::move(fn));
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  Labels labels_;
};

}  // namespace nfv::obs
