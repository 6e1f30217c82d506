#include "io/block_device.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace nfv::io {

const char* to_string(IoStatus status) {
  switch (status) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kError:
      return "error";
    case IoStatus::kTorn:
      return "torn";
  }
  return "?";
}

BlockDevice::~BlockDevice() {
  // Pending completions capture `this`; never let one outlive the device.
  for (const Pending& pending : queue_) engine_.cancel(pending.event);
}

BlockDevice::RequestId BlockDevice::submit(std::uint64_t bytes,
                                           Callback done) {
  ++requests_;
  bytes_ += bytes;
  Pending pending;
  pending.id = next_id_++;
  pending.bytes = bytes;
  pending.done = std::move(done);
  queue_.push_back(std::move(pending));
  // A wedged device accepts submissions (the host-side queue is not the
  // device) but services nothing until the window ends.
  if (!wedged_) schedule_service(queue_.back());
  return queue_.back().id;
}

bool BlockDevice::cancel(RequestId id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id != id) continue;
    engine_.cancel(it->event);
    queue_.erase(it);
    ++cancelled_;
    return true;
  }
  return false;
}

void BlockDevice::schedule_service(Pending& pending) {
  const Cycles start = std::max(engine_.now(), next_free_);
  // Exact integer path when healthy so the fault-free completion schedule
  // is bit-identical to the pre-fault-domain device. A fault's factor is
  // unchecked here: each term saturates, and the sum stops where next_free_
  // would leave Cycles' range.
  const Cycles setup =
      latency_factor_ == 1.0
          ? config_.base_latency
          : saturate_cycles(
                static_cast<double>(config_.base_latency) * latency_factor_, 0);
  const Cycles room = std::numeric_limits<Cycles>::max() - start;
  const Cycles transfer = std::min(
      room, saturate_cycles(static_cast<double>(pending.bytes) /
                                config_.bytes_per_cycle, 0));
  const Cycles duration = transfer + std::min(setup, room - transfer);
  next_free_ = start + duration;
  busy_ += duration;
  // The fault state at service start is what the request observes.
  if (error_window_) {
    pending.status = IoStatus::kError;
    pending.bytes_done = 0;
  } else if (torn_fraction_ >= 0.0) {
    pending.status = IoStatus::kTorn;
    pending.bytes_done = static_cast<std::uint64_t>(
        static_cast<double>(pending.bytes) * torn_fraction_);
  } else {
    pending.status = IoStatus::kOk;
    pending.bytes_done = pending.bytes;
  }
  pending.event = engine_.schedule_at(
      next_free_, [this, id = pending.id] { complete(id); });
}

void BlockDevice::complete(RequestId id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id != id) continue;
    Pending pending = std::move(*it);
    queue_.erase(it);
    if (pending.status == IoStatus::kError) ++failed_;
    if (pending.status == IoStatus::kTorn) ++torn_;
    IoResult result;
    result.status = pending.status;
    result.bytes_done = pending.bytes_done;
    if (pending.done) pending.done(result);
    return;
  }
}

void BlockDevice::inject_device_fault(fault::DeviceFaultKind kind,
                                      double factor) {
  switch (kind) {
    case fault::DeviceFaultKind::kSlow:
      latency_factor_ = factor;
      break;
    case fault::DeviceFaultKind::kError:
      error_window_ = true;
      break;
    case fault::DeviceFaultKind::kTorn:
      torn_fraction_ = factor;
      break;
    case fault::DeviceFaultKind::kWedge:
      wedged_ = true;
      // In-flight requests hang too: their completions are withdrawn and
      // they restart from scratch when the window ends. The planned
      // schedule is abandoned, so servicing resumes from "now" at restore.
      for (Pending& pending : queue_) {
        engine_.cancel(pending.event);
        pending.event = sim::kInvalidEventId;
      }
      next_free_ = engine_.now();
      break;
  }
  trace_window("device_fault_begin", kind, factor);
}

void BlockDevice::restore_device_fault(fault::DeviceFaultKind kind) {
  switch (kind) {
    case fault::DeviceFaultKind::kSlow:
      latency_factor_ = 1.0;
      break;
    case fault::DeviceFaultKind::kError:
      error_window_ = false;
      break;
    case fault::DeviceFaultKind::kTorn:
      torn_fraction_ = -1.0;
      break;
    case fault::DeviceFaultKind::kWedge:
      wedged_ = false;
      // Re-service everything held by the wedge, in submission order.
      for (Pending& pending : queue_) {
        if (pending.event == sim::kInvalidEventId) schedule_service(pending);
      }
      break;
  }
  trace_window("device_fault_end", kind, 0.0);
}

void BlockDevice::set_observability(obs::Observability* obs) {
  if (obs == nullptr) return;
  obs_ = obs;
  if (metrics_registered_) return;
  metrics_registered_ = true;
  obs::Scope scope = obs->global_scope();
  scope.counter_fn("disk.requests", [this] { return requests_; });
  scope.counter_fn("disk.bytes", [this] { return bytes_; });
  scope.counter_fn("disk.failed_requests", [this] { return failed_; });
  scope.counter_fn("disk.torn_requests", [this] { return torn_; });
  scope.counter_fn("disk.cancelled_requests", [this] { return cancelled_; });
  scope.gauge_fn("disk.inflight_requests",
                 [this] { return static_cast<double>(queue_.size()); });
}

void BlockDevice::trace_window(const char* name, fault::DeviceFaultKind kind,
                               double factor) {
  if (auto* tr = obs::trace_of(obs_)) {
    tr->instant(engine_.now(), obs::kIoLane, "io", name,
                {{"kind", fault::to_string(kind)}},
                {{"factor_x1000", static_cast<std::int64_t>(factor * 1000.0)}});
  }
}

}  // namespace nfv::io
