#include "io/async_io.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace nfv::io {

namespace {
/// Seed of the backoff-jitter RNG, the same for every engine.
constexpr std::uint64_t kJitterSeed = 0x10c0ffeeULL;
}  // namespace

const char* to_string(AsyncIoEngine::OnIoFail policy) {
  switch (policy) {
    case AsyncIoEngine::OnIoFail::kBlock:
      return "block";
    case AsyncIoEngine::OnIoFail::kShed:
      return "shed";
    case AsyncIoEngine::OnIoFail::kStuck:
      return "stuck";
  }
  return "?";
}

AsyncIoEngine::AsyncIoEngine(sim::Engine& engine, BlockDevice& device,
                             Config config)
    : engine_(engine),
      device_(device),
      config_(config),
      rng_(kJitterSeed) {
  if (config_.mode == Mode::kDoubleBuffered && config_.flush_interval > 0) {
    flush_timer_ = engine_.schedule_periodic(config_.flush_interval, [this] {
      // Periodic flush bounds how long staged data waits when traffic is
      // slow; a buffer-full flush may already be in flight, and a degraded
      // engine must not re-submit into a failing device outside the
      // retry/probe machinery.
      if (!flush_in_flight_ && !degraded_ && active_bytes_ > 0) flush_active();
    });
  }
}

AsyncIoEngine::~AsyncIoEngine() {
  engine_.cancel(flush_timer_);
  engine_.cancel(probe_event_);
  // Withdraw every in-flight completion, deadline and backoff timer: their
  // callbacks capture `this`, and tearing down a Simulation mid-flush must
  // not fire one into a freed engine (mirrors the source destructors).
  for (const auto& request : requests_) {
    engine_.cancel(request->deadline);
    engine_.cancel(request->retry_timer);
    if (request->dev_req != BlockDevice::kInvalidRequest) {
      device_.cancel(request->dev_req);
    }
  }
}

void AsyncIoEngine::set_observability(obs::Observability* obs,
                                      const std::string& owner_name) {
  if (obs == nullptr) return;
  obs_ = obs;
  owner_name_ = owner_name;
  obs::Scope scope = obs->nf_scope(owner_name);
  scope.counter_fn("io.writes", [this] { return writes_; });
  scope.counter_fn("io.bytes_written", [this] { return bytes_written_; });
  scope.counter_fn("io.flushes", [this] { return flushes_; });
  scope.counter_fn("io.reads", [this] { return reads_; });
  scope.counter_fn("io.block_transitions", [this] { return blocked_count_; });
}

void AsyncIoEngine::register_fault_metrics() {
  if (obs_ == nullptr || fault_metrics_registered_) return;
  fault_metrics_registered_ = true;
  obs::Scope scope = obs_->nf_scope(owner_name_);
  scope.counter_fn("io.retries", [this] { return retries_; });
  scope.counter_fn("io.timeouts", [this] { return timeouts_; });
  scope.counter_fn("io.failures", [this] { return failures_; });
  scope.counter_fn("io.dropped_writes", [this] { return dropped_writes_; });
  scope.counter_fn("io.shed_bytes", [this] { return shed_bytes_; });
  scope.counter_fn("io.degraded_entries", [this] { return degraded_entries_; });
  scope.counter_fn("io.probes", [this] { return probes_; });
  scope.counter_fn("io.time_in_degraded_cycles", [this] {
    return static_cast<std::uint64_t>(time_in_degraded(engine_.now()));
  });
  scope.gauge_fn("io.staged_bytes",
                 [this] { return static_cast<double>(active_bytes_); });
  scope.gauge_fn("io.degraded",
                 [this] { return degraded_ ? 1.0 : 0.0; });
}

void AsyncIoEngine::write(std::uint64_t bytes, Callback done) {
  ++writes_;

  // Degraded kShed/kStuck: the device is gone; drop I/O-bound work at the
  // door and let the NF keep processing (process-without-logging).
  if (degraded_ && config_.on_fail != OnIoFail::kBlock) {
    ++dropped_writes_;
    shed_bytes_ += bytes;
    return;
  }

  if (config_.mode == Mode::kSynchronous) {
    bytes_written_ += bytes;
    ++sync_in_flight_;
    if (!blocked_) {
      blocked_ = true;
      ++blocked_count_;
    }
    Request& request = make_request(Request::Kind::kSyncWrite, bytes);
    request.write_count = 1;
    if (done) request.done_callbacks.push_back(std::move(done));
    issue(request);
    return;
  }

  // Bounded staging: a dead or blocked device cannot grow the staging
  // buffer past 4x buffer_bytes (DESIGN.md §12). In normal operation the
  // cap is never hit — the active buffer flushes at buffer_bytes.
  if (active_bytes_ + bytes > 4 * config_.buffer_bytes) {
    ++dropped_writes_;
    shed_bytes_ += bytes;
    return;
  }

  bytes_written_ += bytes;
  active_bytes_ += bytes;
  ++staged_write_count_;
  if (done) active_callbacks_.push_back(std::move(done));

  if (active_bytes_ >= config_.buffer_bytes) {
    if (!flush_in_flight_ && !degraded_) {
      flush_active();
    } else if (!blocked_) {
      // Both buffers full: the filling buffer is at capacity and the other
      // is still being written out — libnf suspends the NF (§3.4).
      blocked_ = true;
      ++blocked_count_;
    }
  }
}

void AsyncIoEngine::read(std::uint64_t bytes, Callback done, Callback failed) {
  ++reads_;
  Request& request = make_request(Request::Kind::kRead, bytes);
  request.read_done = std::move(done);
  request.read_failed = std::move(failed);
  issue(request);
}

bool AsyncIoEngine::would_block() const { return blocked_; }

void AsyncIoEngine::flush_active() {
  ++flushes_;
  flush_in_flight_ = true;
  // Swap buffers: the staged data plus its callbacks head to the device,
  // and the NF keeps filling a fresh (empty) buffer.
  Request& request = make_request(Request::Kind::kFlush, active_bytes_);
  request.write_count = staged_write_count_;
  request.done_callbacks = std::move(active_callbacks_);
  active_callbacks_.clear();
  active_bytes_ = 0;
  staged_write_count_ = 0;
  issue(request);
}

void AsyncIoEngine::on_flush_complete() {
  flush_in_flight_ = false;
  if (active_bytes_ >= config_.buffer_bytes && !degraded_) {
    flush_active();  // the other buffer filled while we were writing
  }
  maybe_unblock();
}

bool AsyncIoEngine::blocked_now() const {
  if (degraded_ && config_.on_fail != OnIoFail::kBlock) return false;
  if (config_.mode == Mode::kSynchronous) return sync_in_flight_ > 0;
  return active_bytes_ >= config_.buffer_bytes && flush_in_flight_;
}

void AsyncIoEngine::maybe_unblock() {
  if (blocked_ && !blocked_now()) {
    blocked_ = false;
    if (unblock_cb_) unblock_cb_();
  }
}

// -- request state machine ---------------------------------------------------

AsyncIoEngine::Request& AsyncIoEngine::make_request(Request::Kind kind,
                                                    std::uint64_t bytes) {
  auto request = std::make_unique<Request>();
  request->id = next_request_id_++;
  request->kind = kind;
  request->bytes = bytes;
  requests_.push_back(std::move(request));
  return *requests_.back();
}

AsyncIoEngine::Request* AsyncIoEngine::find_request(std::uint64_t id) {
  for (const auto& request : requests_) {
    if (request->id == id) return request.get();
  }
  return nullptr;
}

void AsyncIoEngine::erase_request(std::uint64_t id) {
  for (auto it = requests_.begin(); it != requests_.end(); ++it) {
    if ((*it)->id == id) {
      requests_.erase(it);
      return;
    }
  }
}

void AsyncIoEngine::issue(Request& request) {
  ++request.attempts;
  request.dev_req = device_.submit(
      request.bytes, [this, id = request.id](const IoResult& result) {
        on_device_complete(id, result);
      });
  if (config_.io_timeout > 0) {
    request.deadline = engine_.schedule_after(
        config_.io_timeout, [this, id = request.id] { on_deadline(id); });
  }
}

void AsyncIoEngine::on_device_complete(std::uint64_t id,
                                       const IoResult& result) {
  Request* request = find_request(id);
  if (request == nullptr) return;
  engine_.cancel(request->deadline);
  request->deadline = sim::kInvalidEventId;
  request->dev_req = BlockDevice::kInvalidRequest;
  if (result.ok()) {
    succeed(*request);
    return;
  }
  // Error or torn completion: the attempt failed (a torn write is retried
  // in full — the journal-style replay is idempotent).
  handle_attempt_failure(*request);
}

void AsyncIoEngine::on_deadline(std::uint64_t id) {
  Request* request = find_request(id);
  if (request == nullptr) return;
  request->deadline = sim::kInvalidEventId;
  ++timeouts_;
  trace("io_timeout",
        {{"attempt", static_cast<std::int64_t>(request->attempts)}});
  // Withdraw the hanging device request so a late completion cannot race
  // the retry.
  if (request->dev_req != BlockDevice::kInvalidRequest) {
    device_.cancel(request->dev_req);
    request->dev_req = BlockDevice::kInvalidRequest;
  }
  handle_attempt_failure(*request);
}

void AsyncIoEngine::handle_attempt_failure(Request& request) {
  if (request.kind == Request::Kind::kProbe) {
    // Probes are single-shot: the device is still bad, try again next
    // period.
    erase_request(request.id);
    schedule_probe();
    return;
  }
  if (request.attempts < config_.max_attempts) {
    ++retries_;
    const Cycles delay = backoff_delay(request.attempts);
    trace("io_retry",
          {{"attempt", static_cast<std::int64_t>(request.attempts)},
           {"backoff_cycles", static_cast<std::int64_t>(delay)}});
    request.retry_timer =
        engine_.schedule_after(delay, [this, id = request.id] {
          Request* r = find_request(id);
          if (r == nullptr) return;
          r->retry_timer = sim::kInvalidEventId;
          issue(*r);
        });
    return;
  }
  permanent_failure(request);
}

void AsyncIoEngine::permanent_failure(Request& request) {
  ++failures_;
  trace("io_fail",
        {{"attempts", static_cast<std::int64_t>(request.attempts)}});

  if (request.kind == Request::Kind::kRead) {
    Callback failed = std::move(request.read_failed);
    erase_request(request.id);
    if (failed) failed();
    return;
  }

  // A parked request failing again (re-issued by a recovery probe): stay
  // degraded, keep it parked, try again next period.
  if (parked_ == request.id) {
    schedule_probe();
    return;
  }

  if (config_.on_fail == OnIoFail::kBlock) {
    // Park the failed request: its data and callbacks are retained and
    // re-issued by the recovery probes; the NF stays blocked and its
    // growing queues drive the Fig. 4 backpressure/ECN machinery.
    parked_ = request.id;
    enter_degraded();
    return;
  }

  // kShed / kStuck: the data is lost; account it and release the NF (shed)
  // or freeze it for the watchdog (stuck).
  const bool flush = request.kind == Request::Kind::kFlush;  // else sync
  dropped_writes_ += request.write_count;
  shed_bytes_ += request.bytes;
  erase_request(request.id);
  if (flush) {
    flush_in_flight_ = false;
  } else {
    --sync_in_flight_;
  }
  enter_degraded();
  maybe_unblock();
}

void AsyncIoEngine::succeed(Request& request) {
  const std::uint64_t id = request.id;
  if (parked_ == id) parked_ = 0;

  switch (request.kind) {
    case Request::Kind::kFlush:
    case Request::Kind::kSyncWrite: {
      const bool flush = request.kind == Request::Kind::kFlush;
      std::vector<Callback> callbacks = std::move(request.done_callbacks);
      erase_request(id);
      if (degraded_) exit_degraded();
      for (const auto& cb : callbacks) {
        if (cb) cb();
      }
      if (flush) {
        on_flush_complete();
      } else {
        --sync_in_flight_;
        maybe_unblock();
      }
      break;
    }
    case Request::Kind::kRead: {
      Callback done = std::move(request.read_done);
      erase_request(id);
      if (done) done();
      break;
    }
    case Request::Kind::kProbe: {
      erase_request(id);
      if (degraded_) exit_degraded();
      break;
    }
  }
}

// -- degraded mode -----------------------------------------------------------

void AsyncIoEngine::shed_staged() {
  dropped_writes_ += staged_write_count_;
  shed_bytes_ += active_bytes_;
  active_bytes_ = 0;
  staged_write_count_ = 0;
  active_callbacks_.clear();
}

void AsyncIoEngine::enter_degraded() {
  if (!degraded_) {
    degraded_ = true;
    ++degraded_entries_;
    degraded_since_ = engine_.now();
    trace("io_degrade", {{"mode", static_cast<std::int64_t>(
                              static_cast<int>(config_.on_fail))}});
    if (config_.on_fail != OnIoFail::kBlock) {
      // The staged-but-unflushed buffer would never drain; shed it so the
      // staging stays bounded and the shed counters tell the whole story.
      shed_staged();
    }
    if (config_.on_fail == OnIoFail::kStuck && fatal_cb_) fatal_cb_();
  }
  schedule_probe();
}

void AsyncIoEngine::exit_degraded() {
  if (!degraded_) return;
  degraded_ = false;
  time_in_degraded_ += engine_.now() - degraded_since_;
  engine_.cancel(probe_event_);
  probe_event_ = sim::kInvalidEventId;
  trace("io_recover");
}

void AsyncIoEngine::schedule_probe() {
  if (probe_event_ != sim::kInvalidEventId) return;
  // Probe period: 4x the longer of the deadline and the first backoff.
  const Cycles period = std::max<Cycles>(
      1, 4 * std::max(config_.io_timeout, config_.retry_backoff));
  probe_event_ = engine_.schedule_after(period, [this] { on_probe(); });
}

void AsyncIoEngine::on_probe() {
  probe_event_ = sim::kInvalidEventId;
  if (!degraded_) return;
  ++probes_;
  trace("io_probe");
  if (parked_ != 0) {
    // Re-issue the parked request itself (fresh retry budget): success is
    // both the recovery signal and the delivery of the parked data.
    Request* request = find_request(parked_);
    if (request != nullptr) {
      request->attempts = 0;
      issue(*request);
      return;
    }
    parked_ = 0;
  }
  // No parked data (shed/stuck): a tiny canary write tests the device.
  Request& request = make_request(Request::Kind::kProbe, 1);
  issue(request);
}

Cycles AsyncIoEngine::backoff_delay(std::uint32_t attempts) {
  double delay = static_cast<double>(config_.retry_backoff);
  for (std::uint32_t i = 1; i < attempts; ++i) {
    delay *= config_.backoff_multiplier;
  }
  if (config_.jitter_fraction > 0.0) {
    // Deterministic jitter from the engine's own RNG: same seed, same
    // backoff sequence, byte-identical faulted runs.
    delay *= 1.0 + config_.jitter_fraction * (2.0 * rng_.next_double() - 1.0);
  }
  // set_retry accepts any multiplier: saturate, also at what keeps the
  // retry's now + delay representable.
  return std::min(saturate_cycles(delay, 1),
                  std::numeric_limits<Cycles>::max() - engine_.now());
}

void AsyncIoEngine::trace(const char* name,
                          std::initializer_list<obs::NumArg> num_args) {
  if (auto* tr = obs::trace_of(obs_)) {
    tr->instant(engine_.now(), obs::kIoLane, "io", name,
                {{"nf", owner_name_}}, num_args);
  }
}

}  // namespace nfv::io
