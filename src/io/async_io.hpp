// libnf's storage I/O engine: batched, double-buffered, asynchronous.
//
// §3.4: "Using batched asynchronous I/O with double buffering, libnf
// enables the NF implementation to put the processing of one or more
// packets on hold, while continuing processing of other packets unhindered.
// ... Double buffering enables libnf to service one set of I/O requests
// asynchronously while the other buffer is filled up by the NF. When both
// buffers are full, libnf suspends the execution of the NF and yields the
// CPU." The size of the batches and the flush interval are tunable by the
// NF implementation.
//
// The kSynchronous mode is the baseline Fig. 14 compares against: every
// write stalls the NF until the device completes it (no overlap).
//
// Storage fault domain (DESIGN.md §12): every device request is tracked by
// an explicit state machine — pending -> inflight -> retrying -> done /
// failed / timed-out — instead of a fire-and-forget callback. A request
// that misses its completion deadline (Config::io_timeout) or completes
// with an error/torn status is retried with exponential backoff and
// deterministic jitter (the engine's own RNG, never wall clock) up to
// Config::max_attempts. When the budget is exhausted the engine enters a
// degraded mode chosen by Config::on_fail:
//   kBlock — stay blocked until a recovery probe gets through; RX queues
//            grow and drive the Fig. 4 backpressure/ECN machinery normally.
//   kShed  — drop staged writes and keep processing packets (process-
//            without-logging); staging is bounded either way.
//   kStuck — report a fatal stall via the fatal callback: the NF freezes
//            and the PR 4 watchdog + DeadNfPolicy take over.
// All fault knobs default off (io_timeout = 0 schedules no deadline
// events), so a fault-free run's event schedule is byte-identical to the
// engine before the fault domain existed.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include <string>

#include "common/rng.hpp"
#include "io/block_device.hpp"
#include "obs/observability.hpp"
#include "sim/engine.hpp"

namespace nfv::io {

class AsyncIoEngine {
 public:
  enum class Mode {
    kSynchronous,     ///< Baseline: block the NF for every write.
    kDoubleBuffered,  ///< NFVnice libnf: overlap compute with flushes.
  };

  /// Degraded-mode policy once a request exhausts its retry budget.
  enum class OnIoFail {
    kBlock,  ///< Stay blocked; queues grow and backpressure engages.
    kShed,   ///< Drop I/O-bound work, keep processing (no logging).
    kStuck,  ///< Freeze the NF: the watchdog force-kills and restarts it.
  };

  struct Config {
    Mode mode = Mode::kDoubleBuffered;
    std::uint64_t buffer_bytes = 64 * 1024;  ///< Batch (buffer) capacity.
    Cycles flush_interval = 0;  ///< 0 = flush only when a buffer fills.

    // -- storage fault domain. Defaults keep the event schedule identical
    //    to the pre-fault-domain engine: no deadline, retry or probe
    //    events are created unless a request actually fails.
    /// Per-request completion deadline; 0 disables deadlines entirely
    /// (device errors still trigger retries, but a wedged device then
    /// hangs the request forever — configure a timeout to detect wedges).
    Cycles io_timeout = 0;
    std::uint32_t max_attempts = 4;  ///< 1 initial try + up to 3 retries.
    Cycles retry_backoff = 26'000;   ///< First retry delay (10 us).
    double backoff_multiplier = 2.0;
    /// Backoff jitter: each delay is scaled by a deterministic factor in
    /// [1 - j, 1 + j] drawn from the engine's own RNG (never wall clock).
    double jitter_fraction = 0.1;
    OnIoFail on_fail = OnIoFail::kBlock;
  };

  using Callback = std::function<void()>;

  AsyncIoEngine(sim::Engine& engine, BlockDevice& device, Config config);
  ~AsyncIoEngine();

  AsyncIoEngine(const AsyncIoEngine&) = delete;
  AsyncIoEngine& operator=(const AsyncIoEngine&) = delete;

  /// libnf_write_data(): stage `bytes` for writing. `done` (optional) fires
  /// when the data reaches the device. After calling, the NF must check
  /// would_block() before processing further packets. In degraded kShed /
  /// kStuck mode (or past the staging cap) the write is dropped and `done`
  /// never fires.
  void write(std::uint64_t bytes, Callback done = {});

  /// libnf_read_data(): asynchronous read; `done` fires with the data
  /// "available" after the device round trip. Reads never block the NF —
  /// flow context rides in the callback, per the API in Fig. 6. `failed`
  /// (optional) fires instead when the read exhausts its retry budget, so
  /// callers observe errors rather than hanging.
  void read(std::uint64_t bytes, Callback done, Callback failed = {});

  /// True when the NF must yield: both buffers full (double-buffered) or a
  /// synchronous request is in flight. Degraded kShed/kStuck never blocks.
  [[nodiscard]] bool would_block() const;

  /// Invoked (from the I/O completion context) when would_block()
  /// transitions back to false — the manager uses it to wake the NF.
  void set_unblock_callback(Callback cb) { unblock_cb_ = std::move(cb); }

  /// Invoked once on entering degraded mode with policy kStuck; the NF
  /// wires it to stall() so the watchdog takes over.
  void set_fatal_callback(Callback cb) { fatal_cb_ = std::move(cb); }

  /// Project the engine's counters into the registry under the owning
  /// NF's scope ({"nf", owner_name}); sampled probes only. Null-safe.
  void set_observability(obs::Observability* obs,
                         const std::string& owner_name);

  /// Register the fault-domain counters (retries, timeouts, dropped
  /// writes, time-in-degraded, ...) under the same scope. Separate from
  /// set_observability and called by the platform only when the fault
  /// domain is active, so fault-free runs keep the seed metrics dump.
  /// Idempotent; requires set_observability first.
  void register_fault_metrics();

  /// True when a fault-domain knob is configured (the platform then
  /// registers the fault metrics even without device faults in the plan).
  [[nodiscard]] bool fault_domain_enabled() const {
    return config_.io_timeout > 0;
  }

  // -- config knobs mutable after construction (the config loader applies
  //    io_timeout / io_retry / on_io_fail directives to an attached
  //    engine). Affect requests issued from now on.
  void set_timeout(Cycles timeout) { config_.io_timeout = timeout; }
  void set_retry(std::uint32_t max_attempts, Cycles backoff,
                 double multiplier, double jitter) {
    config_.max_attempts = max_attempts;
    config_.retry_backoff = backoff;
    config_.backoff_multiplier = multiplier;
    config_.jitter_fraction = jitter;
  }
  void set_on_fail(OnIoFail policy) { config_.on_fail = policy; }
  [[nodiscard]] const Config& config() const { return config_; }

  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t block_transitions() const { return blocked_count_; }

  // -- fault-domain observers ----------------------------------------------
  [[nodiscard]] bool degraded() const { return degraded_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  [[nodiscard]] std::uint64_t dropped_writes() const { return dropped_writes_; }
  [[nodiscard]] std::uint64_t shed_bytes() const { return shed_bytes_; }
  [[nodiscard]] std::uint64_t degraded_entries() const {
    return degraded_entries_;
  }
  [[nodiscard]] std::uint64_t probes() const { return probes_; }
  /// Cycles spent degraded so far, including the open span at `now`.
  [[nodiscard]] Cycles time_in_degraded(Cycles now) const {
    return time_in_degraded_ + (degraded_ ? now - degraded_since_ : 0);
  }
  /// Bytes currently staged for writing (at most 4x buffer_bytes).
  [[nodiscard]] std::uint64_t staged_bytes() const { return active_bytes_; }
  [[nodiscard]] std::size_t live_requests() const { return requests_.size(); }

 private:
  struct Request {
    enum class Kind { kFlush, kSyncWrite, kRead, kProbe };
    std::uint64_t id = 0;
    Kind kind = Kind::kFlush;
    std::uint64_t bytes = 0;
    /// Staged write()s carried by this request (flush: the whole batch).
    std::uint64_t write_count = 0;
    std::uint32_t attempts = 0;
    BlockDevice::RequestId dev_req = BlockDevice::kInvalidRequest;
    sim::EventId deadline = sim::kInvalidEventId;
    sim::EventId retry_timer = sim::kInvalidEventId;
    std::vector<Callback> done_callbacks;  ///< Flush: staged write dones.
    Callback read_done;
    Callback read_failed;
  };

  void flush_active();
  void on_flush_complete();
  void maybe_unblock();
  [[nodiscard]] bool blocked_now() const;

  Request& make_request(Request::Kind kind, std::uint64_t bytes);
  Request* find_request(std::uint64_t id);
  void erase_request(std::uint64_t id);
  void issue(Request& request);
  void on_device_complete(std::uint64_t id, const IoResult& result);
  void on_deadline(std::uint64_t id);
  void succeed(Request& request);
  void handle_attempt_failure(Request& request);
  void permanent_failure(Request& request);
  void shed_staged();
  void enter_degraded();
  void exit_degraded();
  void schedule_probe();
  void on_probe();
  [[nodiscard]] Cycles backoff_delay(std::uint32_t attempts);
  void trace(const char* name,
             std::initializer_list<obs::NumArg> num_args = {});

  sim::Engine& engine_;
  BlockDevice& device_;
  Config config_;
  nfv::Rng rng_;

  std::uint64_t active_bytes_ = 0;
  std::uint64_t staged_write_count_ = 0;
  std::vector<Callback> active_callbacks_;
  bool flush_in_flight_ = false;
  std::uint64_t sync_in_flight_ = 0;
  bool blocked_ = false;

  Callback unblock_cb_;
  Callback fatal_cb_;
  sim::EventId flush_timer_ = sim::kInvalidEventId;
  sim::EventId probe_event_ = sim::kInvalidEventId;

  std::vector<std::unique_ptr<Request>> requests_;
  std::uint64_t next_request_id_ = 1;
  /// Id of the permanently-failed request parked for re-issue by recovery
  /// probes (on_fail = kBlock); 0 = none.
  std::uint64_t parked_ = 0;

  bool degraded_ = false;
  Cycles degraded_since_ = 0;
  Cycles time_in_degraded_ = 0;

  obs::Observability* obs_ = nullptr;
  std::string owner_name_;
  bool fault_metrics_registered_ = false;

  std::uint64_t writes_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t blocked_count_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t dropped_writes_ = 0;
  std::uint64_t shed_bytes_ = 0;
  std::uint64_t degraded_entries_ = 0;
  std::uint64_t probes_ = 0;
};

const char* to_string(AsyncIoEngine::OnIoFail policy);

}  // namespace nfv::io
