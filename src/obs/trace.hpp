// Structured event tracing on the simulation's deterministic clock.
//
// A TraceRecorder captures the control-plane events the paper's figures
// are built from — context switches, wakeups, yields, backpressure
// CLEAR→WATCH→THROTTLE transitions, cpu.shares writes, ECN marks, drops —
// as timestamped records, and exports them in the Chrome trace_event JSON
// format (open chrome://tracing or https://ui.perfetto.dev and load the
// file). Timestamps come from the event engine, so two same-seed runs
// produce byte-identical streams: the determinism suite diffs them.
//
// Recording is opt-in. Components hold a nullable recorder pointer (via
// obs::Observability) and skip all event construction when none is
// attached — the null-sink fast path; an unattached simulation pays one
// pointer test per would-be event.
//
// Storage is compact: every category, name, argument key and string
// argument value is interned once per recorder, and an event is a fixed
// 72-byte record holding string ids and inline integers, so recording
// allocates only when the event vector grows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace nfv::obs {

/// Trace lanes ("tid" in the Chrome format). Cores use their index; the
/// manager's actor threads get fixed high lanes so they never collide.
inline constexpr std::uint32_t kManagerLane = 900;
inline constexpr std::uint32_t kBackpressureLane = 901;
inline constexpr std::uint32_t kLifecycleLane = 902;
/// Storage fault domain: device fault windows, I/O timeouts/retries,
/// degraded-mode entry/exit (DESIGN.md §12).
inline constexpr std::uint32_t kIoLane = 903;
/// Latency-SLO controller (DESIGN.md §16): per-chain p99 samples,
/// violation begin/end edges, share-boost counter series.
inline constexpr std::uint32_t kSloLane = 904;
/// Overload control (DESIGN.md §17): admission-gate engage/release
/// instants, ingress-discard drops, push-aside grab/give-back edges.
inline constexpr std::uint32_t kAdmissionLane = 905;

/// Index of a string in one recorder's intern table.
using StrId = std::uint32_t;

/// Event arguments as call sites write them: {{"task", name}} and
/// {{"qlen", 12}}. Views need only outlive the recording call.
using StrArg = std::pair<std::string_view, std::string_view>;
using NumArg = std::pair<std::string_view, std::int64_t>;

/// One stored event. String fields are ids into the recording
/// TraceRecorder's table (TraceRecorder::str, decode). String arguments
/// come first and export before the numeric ones, in call order.
struct TraceEvent {
  static constexpr std::size_t kMaxArgs = 4;

  Cycles ts = 0;           ///< Engine time the event fired.
  std::uint32_t lane = 0;  ///< Rendered as the Chrome thread id.
  StrId cat = 0;           ///< Category, e.g. "sched", "bp", "mgr".
  StrId name = 0;          ///< Event name, e.g. "ctx_switch".
  char phase = 'i';        ///< Chrome phase: 'i' instant, 'C' counter.
  std::uint8_t str_arg_count = 0;  ///< Leading args valued by a StrId.
  std::uint8_t arg_count = 0;      ///< Arguments in use.
  StrId arg_key[kMaxArgs] = {};
  std::int64_t arg_value[kMaxArgs] = {};
};
static_assert(std::is_trivially_copyable_v<TraceEvent> &&
              sizeof(TraceEvent) <= 72);

/// A TraceEvent with its strings resolved: what the call site recorded.
struct DecodedEvent {
  Cycles ts = 0;
  char phase = 'i';
  std::uint32_t lane = 0;
  std::string cat;
  std::string name;
  std::vector<std::pair<std::string, std::string>> args;
  std::vector<std::pair<std::string, std::int64_t>> num_args;

  friend bool operator==(const DecodedEvent&, const DecodedEvent&) = default;
};

class TraceRecorder {
 public:
  struct Config {
    /// Ring-less cap: events past the cap are counted, not stored. Keeps a
    /// pathological run (millions of drops) from exhausting memory while
    /// preserving determinism of what *is* stored.
    std::size_t max_events = 1'000'000;
    /// Used only to convert cycle timestamps to the microseconds Chrome
    /// expects on export.
    double cpu_hz = kDefaultCpuHz;
    /// What a full recorder keeps: the first max_events recorded (false),
    /// or the max_events earliest by (ts, recording order) (true). A
    /// buffer that is later merged in timestamp order needs the latter,
    /// because a stream is not timestamp-monotone: a traffic burst stamps
    /// its packets' drops with their earlier arrival times.
    bool keep_earliest = false;
  };

  TraceRecorder() = default;
  explicit TraceRecorder(Config config) : config_(config) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Record an instant event. More than TraceEvent::kMaxArgs arguments in
  /// all throw std::invalid_argument.
  void instant(Cycles ts, std::uint32_t lane, std::string_view cat,
               std::string_view name, std::initializer_list<StrArg> args = {},
               std::initializer_list<NumArg> num_args = {}) {
    emit('i', ts, lane, cat, name, args, num_args);
  }

  /// Record a Chrome counter event (renders as a stacked time series).
  void counter(Cycles ts, std::uint32_t lane, std::string_view cat,
               std::string_view name, std::string_view series,
               std::int64_t value) {
    emit('C', ts, lane, cat, name, {}, {{series, value}});
  }

  /// Record `ev`, whose string ids belong to another recorder, through
  /// `ids` (filled by map_strings).
  void record(TraceEvent ev, std::span<const StrId> ids);

  /// Extend `ids` so that ids[i] is this recorder's id for `from`'s string
  /// i. Only strings `from` interned since the last call are looked up.
  void map_strings(const TraceRecorder& from, std::vector<StrId>& ids);

  /// The id of `s`, interning it on first sight. Ids are dense, stable for
  /// the recorder's lifetime, and survive clear().
  StrId intern(std::string_view s);
  [[nodiscard]] std::string_view str(StrId id) const { return strings_[id]; }
  [[nodiscard]] std::size_t string_count() const { return strings_.size(); }

  [[nodiscard]] DecodedEvent decode(const TraceEvent& ev) const;

  /// Human-readable lane name, exported as Chrome thread_name metadata.
  void set_lane_name(std::uint32_t lane, std::string name) {
    lane_names_[lane] = std::move(name);
  }

  /// Full export: {"traceEvents":[...]} with thread metadata first.
  void write_chrome_json(std::ostream& out) const;

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_; }
  /// Count events dropped before they reached this recorder.
  void add_dropped(std::uint64_t n) { dropped_ += n; }
  [[nodiscard]] const Config& config() const { return config_; }
  /// Re-cap the recorder; applies to events recorded from now on.
  void set_max_events(std::size_t max_events) {
    config_.max_events = max_events;
  }

  /// Drop every event and the drop count, releasing the event storage.
  /// Interned strings stay.
  void clear() {
    std::vector<TraceEvent>().swap(events_);
    dropped_ = 0;
    sorted_ = false;
  }

 private:
  void emit(char phase, Cycles ts, std::uint32_t lane, std::string_view cat,
            std::string_view name, std::initializer_list<StrArg> args,
            std::initializer_list<NumArg> num_args);
  /// Make room for an event stamped `ts`; false when it is to be dropped.
  bool admit(Cycles ts);
  void store(const TraceEvent& ev);

  Config config_;
  std::vector<TraceEvent> events_;
  /// keep_earliest: events_ is sorted by (ts, recording order).
  bool sorted_ = false;
  std::deque<std::string> strings_;  // deque: views into it stay valid
  std::unordered_map<std::string_view, StrId> ids_;
  std::map<std::uint32_t, std::string> lane_names_;
  std::uint64_t dropped_ = 0;
};

}  // namespace nfv::obs
