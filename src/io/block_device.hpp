// Simulated block storage device.
//
// Stand-in for the testbed's disk behind Linux async I/O: a single service
// queue with a fixed per-request setup latency plus a bandwidth term.
// Requests are serviced FIFO and completion callbacks fire from the event
// engine, exactly like io completion events delivered to libnf's I/O thread
// context (§3.4).
//
// The device is also the storage fault domain's actuator (DESIGN.md §12):
// the Simulation schedules a FaultPlan's `device` specs straight onto
// inject_device_fault / restore_device_fault, opening windows during
// which requests are slow (latency scaled), error out, tear (only a
// fraction of the bytes land) or wedge outright (nothing completes —
// in-flight requests hang too — until the window ends). The
// fault state a request observes is sampled when the device *starts*
// servicing it, which keeps faulted runs byte-deterministic: the same plan
// yields the same completion schedule every run. A wedge discards service
// progress: requests caught by it restart from scratch when the window
// ends, and busy_cycles() counts both attempts (the device really spun).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "fault/fault_plan.hpp"
#include "obs/observability.hpp"
#include "sim/engine.hpp"

namespace nfv::io {

/// How a request ended. Torn completions report the bytes that did land.
enum class IoStatus {
  kOk,     ///< Full completion.
  kError,  ///< Device error: no bytes landed.
  kTorn,   ///< Partial completion: bytes_done < requested.
};

const char* to_string(IoStatus status);

struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::uint64_t bytes_done = 0;
  [[nodiscard]] bool ok() const { return status == IoStatus::kOk; }
};

class BlockDevice {
 public:
  struct Config {
    /// Per-request setup latency (seek/NVMe submission). Default 20 us.
    Cycles base_latency = 52000;
    /// Sustained throughput in bytes per cycle. Default ~500 MB/s at
    /// 2.6 GHz => ~0.19 B/cycle.
    double bytes_per_cycle = 0.19;
  };

  using Callback = std::function<void(const IoResult&)>;

  /// Handle for cancelling a pending request; 0 is never issued.
  using RequestId = std::uint64_t;
  static constexpr RequestId kInvalidRequest = 0;

  explicit BlockDevice(sim::Engine& engine) : BlockDevice(engine, Config{}) {}
  BlockDevice(sim::Engine& engine, Config config)
      : engine_(engine), config_(config) {}
  ~BlockDevice();

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  /// Queue a request of `bytes`; `done` fires with the outcome when the
  /// device completes it. Requests are serviced in submission order, one
  /// at a time. Returns a handle usable with cancel().
  RequestId submit(std::uint64_t bytes, Callback done);

  /// Abandon a pending request: its callback never fires (the caller
  /// initiated the cancellation and needs no notification). Returns true
  /// when the request was still pending, false when already completed or
  /// unknown.
  bool cancel(RequestId id);

  // -- storage fault domain (DESIGN.md §12) --------------------------------
  /// Start a fault window of `kind`. `factor` carries the latency scale
  /// (kSlow) or the landed-bytes fraction (kTorn); other kinds ignore it.
  void inject_device_fault(fault::DeviceFaultKind kind, double factor);
  /// End a bounded window of `kind` (restore healthy behaviour).
  void restore_device_fault(fault::DeviceFaultKind kind);

  /// Register the device's counters under the global scope and keep `obs`
  /// for fault-window trace events (lane obs::kIoLane). Null-safe;
  /// idempotent. Only called by the platform when the storage fault domain
  /// is active, so fault-free runs keep the seed metrics dump.
  void set_observability(obs::Observability* obs);

  [[nodiscard]] std::uint64_t requests() const { return requests_; }
  [[nodiscard]] std::uint64_t bytes_transferred() const { return bytes_; }
  /// Device-busy time; the benches use it to report I/O overlap.
  [[nodiscard]] Cycles busy_cycles() const { return busy_; }
  [[nodiscard]] std::uint64_t failed_requests() const { return failed_; }
  [[nodiscard]] std::uint64_t torn_requests() const { return torn_; }
  [[nodiscard]] std::uint64_t cancelled_requests() const { return cancelled_; }
  [[nodiscard]] std::uint64_t inflight_requests() const {
    return queue_.size();
  }
  [[nodiscard]] bool wedged() const { return wedged_; }
  [[nodiscard]] double latency_factor() const { return latency_factor_; }

 private:
  struct Pending {
    RequestId id = kInvalidRequest;
    std::uint64_t bytes = 0;
    Callback done;
    /// kInvalidEventId while held by a wedge (no completion scheduled).
    sim::EventId event = sim::kInvalidEventId;
    // Outcome decided at service start (schedule_service).
    IoStatus status = IoStatus::kOk;
    std::uint64_t bytes_done = 0;
  };

  /// Compute service start/duration from the current fault state and
  /// schedule the completion event. The outcome (ok/error/torn) is decided
  /// here too — the state at service start is what the request observes.
  void schedule_service(Pending& pending);
  void complete(RequestId id);
  void trace_window(const char* name, fault::DeviceFaultKind kind,
                    double factor);

  sim::Engine& engine_;
  Config config_;
  Cycles next_free_ = 0;
  std::deque<Pending> queue_;  ///< Submission order; front completes first.
  RequestId next_id_ = 1;

  // Fault-window state.
  double latency_factor_ = 1.0;  ///< kSlow; 1.0 = healthy.
  bool error_window_ = false;    ///< kError.
  double torn_fraction_ = -1.0;  ///< kTorn; active when >= 0.
  bool wedged_ = false;          ///< kWedge.

  obs::Observability* obs_ = nullptr;
  bool metrics_registered_ = false;

  std::uint64_t requests_ = 0;
  std::uint64_t bytes_ = 0;
  Cycles busy_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t torn_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace nfv::io
