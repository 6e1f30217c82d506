#include "fault/fault_plan.hpp"

#include <limits>

namespace nfv::fault {

namespace {
constexpr Cycles kForever = std::numeric_limits<Cycles>::max();
}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kDegrade:
      return "degrade";
    case FaultKind::kDevice:
      return "device";
  }
  return "?";
}

const char* to_string(DeviceFaultKind kind) {
  switch (kind) {
    case DeviceFaultKind::kSlow:
      return "slow";
    case DeviceFaultKind::kError:
      return "error";
    case DeviceFaultKind::kTorn:
      return "torn";
    case DeviceFaultKind::kWedge:
      return "wedge";
  }
  return "?";
}

Cycles FaultSpec::window_end() const {
  switch (kind) {
    case FaultKind::kCrash:
    case FaultKind::kStall:
      // The outage nominally lasts until the restart fires; with the
      // default delay (unknown here) or no restart, treat it as open-ended.
      return restart_after >= 0 && at <= kForever - restart_after
                 ? at + restart_after
                 : kForever;
    case FaultKind::kDegrade:
    case FaultKind::kDevice:
      return duration > 0 && at <= kForever - duration ? at + duration
                                                       : kForever;
  }
  return kForever;
}

void FaultPlan::add_crash(flow::NfId nf, Cycles at, Cycles restart_after) {
  FaultSpec spec;
  spec.kind = FaultKind::kCrash;
  spec.nf = nf;
  spec.at = at;
  spec.restart_after = restart_after;
  add(spec);
}

void FaultPlan::add_stall(flow::NfId nf, Cycles at, Cycles restart_after) {
  FaultSpec spec;
  spec.kind = FaultKind::kStall;
  spec.nf = nf;
  spec.at = at;
  spec.restart_after = restart_after;
  add(spec);
}

void FaultPlan::add_degrade(flow::NfId nf, Cycles at, double factor,
                            Cycles duration) {
  FaultSpec spec;
  spec.kind = FaultKind::kDegrade;
  spec.nf = nf;
  spec.at = at;
  spec.factor = factor;
  spec.duration = duration;
  add(spec);
}

void FaultPlan::add_device_slow(Cycles at, double factor, Cycles duration) {
  FaultSpec spec;
  spec.kind = FaultKind::kDevice;
  spec.device = DeviceFaultKind::kSlow;
  spec.at = at;
  spec.factor = factor;
  spec.duration = duration;
  add(spec);
}

void FaultPlan::add_device_error(Cycles at, Cycles duration) {
  FaultSpec spec;
  spec.kind = FaultKind::kDevice;
  spec.device = DeviceFaultKind::kError;
  spec.at = at;
  spec.duration = duration;
  add(spec);
}

void FaultPlan::add_device_torn(Cycles at, double fraction, Cycles duration) {
  FaultSpec spec;
  spec.kind = FaultKind::kDevice;
  spec.device = DeviceFaultKind::kTorn;
  spec.at = at;
  spec.factor = fraction;
  spec.duration = duration;
  add(spec);
}

void FaultPlan::add_device_wedge(Cycles at, Cycles duration) {
  FaultSpec spec;
  spec.kind = FaultKind::kDevice;
  spec.device = DeviceFaultKind::kWedge;
  spec.at = at;
  spec.duration = duration;
  add(spec);
}

void FaultPlan::add(FaultSpec spec) {
  const std::string what =
      spec.kind == FaultKind::kDevice
          ? std::string("device ") + to_string(spec.device) + " fault"
          : std::string(to_string(spec.kind)) + " fault on nf " +
                std::to_string(spec.nf);
  if (spec.at < 0) {
    throw FaultError(what + ": injection time must be >= 0");
  }
  if ((spec.kind == FaultKind::kCrash || spec.kind == FaultKind::kStall) &&
      spec.restart_after != kDefaultRestart && spec.restart_after <= 0) {
    throw FaultError(what + ": restart_after must be > 0");
  }
  // Written so that a NaN factor fails too.
  const bool slow_ok = spec.factor > 0.0 && spec.factor <= kMaxSlowFactor;
  if (spec.kind == FaultKind::kDegrade) {
    if (!slow_ok) {
      throw FaultError(what + ": degrade factor must be in (0, 1000]");
    }
    if (spec.duration < 0) {
      throw FaultError(what + ": degrade duration must be >= 0");
    }
  }
  if (spec.kind == FaultKind::kDevice) {
    if (spec.duration < 0) {
      throw FaultError(what + ": duration must be >= 0");
    }
    if (spec.device == DeviceFaultKind::kSlow && !slow_ok) {
      throw FaultError(what + ": latency factor must be in (0, 1000]");
    }
    if (spec.device == DeviceFaultKind::kTorn &&
        (spec.factor < 0.0 || spec.factor >= 1.0)) {
      throw FaultError(what + ": torn fraction must be in [0, 1)");
    }
  }
  // One NF, one fault at a time: overlapping windows on the same NF would
  // make the lifecycle state machine ambiguous (e.g. a crash landing inside
  // an unresolved stall). The device is its own domain with the same rule —
  // device windows must not overlap each other, but they may overlap NF
  // windows freely. Windows are half-open [at, window_end()).
  const bool on_device = spec.kind == FaultKind::kDevice;
  for (const FaultSpec& other : specs_) {
    if ((other.kind == FaultKind::kDevice) != on_device) continue;
    if (!on_device && other.nf != spec.nf) continue;
    if (spec.at < other.window_end() && other.at < spec.window_end()) {
      throw FaultError(
          what + ": overlaps an earlier " +
          (on_device ? std::string("device ") + to_string(other.device)
                     : std::string(to_string(other.kind))) +
          " fault on the same " + (on_device ? "device" : "NF"));
    }
  }
  specs_.push_back(spec);
}

}  // namespace nfv::fault
