// Arms a FaultPlan on the event engine.
//
// Each FaultSpec becomes one (degrade: up to two) ordinary engine events
// that call into a FaultSink — the NF Manager — at the planned instants.
// Because injection rides the same deterministic event queue as packets
// and scheduler ticks, a faulted run is exactly reproducible: same plan,
// same seed, same bytes.
#pragma once

#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/engine.hpp"

namespace nfv::fault {

/// The actuator the injector drives; implemented by the Manager's lifecycle
/// watchdog (mgr::Lifecycle).
class FaultSink {
 public:
  virtual ~FaultSink() = default;
  /// Kill the NF now. `restart_after` is the detection->restart delay
  /// (kDefaultRestart = kDefaultRestartDelay).
  virtual void inject_crash(flow::NfId nf, Cycles restart_after) = 0;
  /// Turn the NF into a straggler now (watchdog will kill it).
  virtual void inject_stall(flow::NfId nf, Cycles restart_after) = 0;
  /// Scale the NF's service-time distribution by `factor`.
  virtual void inject_degrade(flow::NfId nf, double factor) = 0;
  /// End a bounded degrade window (restore the original distribution).
  virtual void restore_degrade(flow::NfId nf) = 0;
};

/// The storage-domain actuator (DESIGN.md §12); implemented by the
/// simulated BlockDevice. Lives here, not in src/io, so the fault library
/// stays independent of the I/O library (io links fault, not vice versa).
class DeviceFaultSink {
 public:
  virtual ~DeviceFaultSink() = default;
  /// Start a fault window of `kind`. `factor` carries the latency scale
  /// (kSlow) or the landed-bytes fraction (kTorn); other kinds ignore it.
  virtual void inject_device_fault(DeviceFaultKind kind, double factor) = 0;
  /// End a bounded window of `kind` (restore healthy behaviour).
  virtual void restore_device_fault(DeviceFaultKind kind) = 0;
};

class FaultInjector {
 public:
  FaultInjector(sim::Engine& engine, FaultPlan plan);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule every spec on the engine. Call once, before the run; specs
  /// whose instant already passed fire immediately (clamped to now).
  /// `sink` — and `device`, when the plan has device faults — must outlive
  /// the engine's activity. A plan with device specs requires a non-null
  /// `device`.
  void arm(FaultSink& sink, DeviceFaultSink* device = nullptr);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  sim::Engine& engine_;
  FaultPlan plan_;
  std::vector<sim::EventId> events_;
  bool armed_ = false;
};

}  // namespace nfv::fault
