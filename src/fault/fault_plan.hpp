// Deterministic fault plans: what goes wrong, where, and when.
//
// A FaultPlan is a validated schedule of injected failures — crash an NF
// (its in-flight burst dies with the process), stall it (a straggler that
// spins on the CPU without making progress until the manager's watchdog
// kills it), or degrade it (scale its service-time distribution, the
// "suddenly slow" NF). It also covers the storage fault domain: the shared
// block device behind the §3.4 async-I/O path can be slowed (latency
// spike), error out, tear completions (partial writes) or wedge entirely
// (no request completes until the window ends) — see DESIGN.md §12. Plans
// are built programmatically or parsed from a config file (`fault` /
// `device_fault` directives, see src/config/loader.hpp). A plan is data:
// the Simulation arms it, turning each spec into ordinary engine events on
// the lanes it belongs to, in injection-time order — faults therefore
// replay byte-for-byte with the rest of the simulation.
// Validation happens at add time: bad instants, bad factors and
// overlapping fault windows on the same NF (or on the device) throw
// FaultError immediately, so a malformed plan never reaches the engine.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "flow/service_chain.hpp"

namespace nfv::fault {

/// Thrown on an invalid fault specification (negative times, zero-or-
/// negative degrade factors, overlapping windows on one NF).
class FaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultKind {
  kCrash,    ///< Process dies: in-flight burst dropped, NF marked DEAD.
  kStall,    ///< Straggler: holds the CPU, zero progress, watchdog bait.
  kDegrade,  ///< Service-time distribution scaled by `factor`.
  kDevice,   ///< Storage fault (sub-kind in FaultSpec::device).
};

/// What goes wrong on the shared block device (DESIGN.md §12).
enum class DeviceFaultKind {
  kSlow,   ///< Latency spike: per-request setup latency scaled by `factor`.
  kError,  ///< Transient errors: every request completes with IoStatus::kError.
  kTorn,   ///< Torn completions: only `factor` fraction of the bytes land.
  kWedge,  ///< Full wedge: no request completes until the window ends.
};

const char* to_string(FaultKind kind);
const char* to_string(DeviceFaultKind kind);

/// Largest factor a degrade or a device-slow fault may scale by.
inline constexpr double kMaxSlowFactor = 1000.0;

/// Sentinel for FaultSpec::restart_after: the manager restarts the NF
/// after the default delay (kDefaultRestartDelay, fault/lifecycle.hpp).
inline constexpr Cycles kDefaultRestart = -1;

struct FaultSpec {
  FaultKind kind = FaultKind::kCrash;
  flow::NfId nf = 0;  ///< Target NF; unused (0) for device faults.
  Cycles at = 0;      ///< Injection instant (engine time).
  /// Crash/stall: delay from death *detection* to the restart attempt;
  /// kDefaultRestart defers to the manager's default.
  Cycles restart_after = kDefaultRestart;
  /// Degrade: service-time scale, device slow: latency scale; each in
  /// (0, kMaxSlowFactor].
  /// Device torn: fraction of bytes that land, in [0, 1).
  double factor = 1.0;
  Cycles duration = 0;  ///< Degrade/device: window length; 0 = permanent.
  /// Device fault sub-kind; meaningful only when kind == kDevice. Last so
  /// existing aggregate initializers of the NF-fault fields stay valid.
  DeviceFaultKind device = DeviceFaultKind::kSlow;

  /// Nominal window this fault occupies on its NF, for overlap checks.
  /// Watchdog detection latency can extend the actual outage slightly;
  /// validation is on nominal times.
  [[nodiscard]] Cycles window_end() const;
};

class FaultPlan {
 public:
  /// Kill `nf` at `at`; the manager restarts it `restart_after` cycles
  /// after the watchdog detects the death (kDefaultRestart = config default).
  void add_crash(flow::NfId nf, Cycles at,
                 Cycles restart_after = kDefaultRestart);

  /// Turn `nf` into a straggler at `at`: it occupies the CPU but processes
  /// nothing until the watchdog declares it STUCK and force-crashes it;
  /// `restart_after` then applies as for add_crash.
  void add_stall(flow::NfId nf, Cycles at,
                 Cycles restart_after = kDefaultRestart);

  /// Scale `nf`'s service-time distribution by `factor` (> 0) during
  /// [at, at + duration); duration 0 means until the end of the run.
  void add_degrade(flow::NfId nf, Cycles at, double factor,
                   Cycles duration = 0);

  // -- storage fault domain (DESIGN.md §12). Windows are half-open
  //    [at, at + duration); duration 0 means until the end of the run.
  //    One device fault at a time: device windows must not overlap each
  //    other (they may freely overlap NF fault windows).
  /// Latency spike: scale the device's per-request latency by `factor` (> 0).
  void add_device_slow(Cycles at, double factor, Cycles duration = 0);
  /// Transient error window: every request completes with IoStatus::kError.
  void add_device_error(Cycles at, Cycles duration = 0);
  /// Torn completions: requests complete with only `fraction` (in [0, 1))
  /// of their bytes transferred and IoStatus::kTorn.
  void add_device_torn(Cycles at, double fraction, Cycles duration = 0);
  /// Full wedge: the device stops completing requests (in-flight ones
  /// hang too) until the window ends.
  void add_device_wedge(Cycles at, Cycles duration = 0);

  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }
  [[nodiscard]] bool empty() const { return specs_.empty(); }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }

 private:
  void add(FaultSpec spec);

  std::vector<FaultSpec> specs_;
};

}  // namespace nfv::fault
