#include "sched/core.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nfv::sched {

Core::Core(sim::Engine& engine, std::unique_ptr<Scheduler> scheduler,
           CoreConfig config, std::string name)
    : engine_(engine),
      scheduler_(std::move(scheduler)),
      config_(config),
      name_(std::move(name)) {
  assert(scheduler_ != nullptr);
  assert(config_.tick_period > 0);
  next_tick_time_ = engine_.now() + config_.tick_period;
  tick_event_ = engine_.schedule_periodic(config_.tick_period, [this] { on_tick(); });
}

Core::~Core() { engine_.cancel(tick_event_); }

void Core::add_task(Task* task) {
  assert(task != nullptr);
  task->bind(this, next_task_id_++);
  task->set_state(TaskState::kBlocked);
  tasks_.push_back(task);
}

void Core::set_observability(obs::Observability* obs, std::uint32_t lane) {
  obs_ = obs;
  lane_ = lane;
  if (obs == nullptr) return;
  obs::Scope scope = obs->core_scope(name_);
  scope.counter_fn("sched.context_switches",
                   [this] { return context_switches_; });
  scope.counter_fn("sched.wakeups", [this] { return wakeups_; });
  scope.counter_fn("sched.preemptions", [this] { return preemptions_; });
  // A yield is counted once, on the task that yields.
  scope.counter_fn("sched.voluntary_yields", [this] {
    std::uint64_t yields = 0;
    for (const Task* task : tasks_) yields += task->stats().voluntary_switches;
    return yields;
  });
  scope.counter_fn("sched.switch_overhead_cycles", [this] {
    return static_cast<std::uint64_t>(switch_overhead_);
  });
  scope.counter_fn("sched.busy_cycles", [this] {
    return static_cast<std::uint64_t>(busy_cycles());
  });
  scope.gauge_fn("sched.runnable_tasks", [this] {
    return static_cast<double>(scheduler_->runnable_count());
  });
}

void Core::wake(Task* task) {
  assert(task->core() == this);
  auto& stats = task->mutable_stats();
  ++stats.wakeups;
  if (task->state() != TaskState::kBlocked) return;  // semaphore already up

  ++wakeups_;
  if (auto* trace = obs::trace_of(obs_)) {
    trace->instant(engine_.now(), lane_, "sched", "wakeup",
                   {{"task", task->name()}});
  }
  task->set_state(TaskState::kRunnable);
  task->last_wake_time_ = engine_.now();
  task->woken_since_dispatch_ = true;
  scheduler_->enqueue(task, /*is_wakeup=*/true);

  if (current_ != nullptr) {
    // Bring the runner's vruntime up to date before the preemption test.
    account_running(/*stint_ends=*/false);
    const Cycles ran_so_far = std::max<Cycles>(0, engine_.now() - stint_start_);
    if (scheduler_->should_preempt_on_wake(task, current_, ran_so_far)) {
      preempt_current();
      schedule_dispatch();
    }
  } else {
    schedule_dispatch();
  }
}

void Core::yield_current(Task* task, bool will_block) {
  assert(task == current_ && "only the running task may yield");
  account_running(/*stint_ends=*/true);
  ++task->mutable_stats().voluntary_switches;
  if (auto* trace = obs::trace_of(obs_)) {
    trace->instant(engine_.now(), lane_, "sched", "yield",
                   {{"task", task->name()}},
                   {{"will_block", will_block ? 1 : 0}});
  }
  current_ = nullptr;
  if (will_block) {
    task->set_state(TaskState::kBlocked);
  } else {
    task->set_state(TaskState::kRunnable);
    scheduler_->enqueue(task, /*is_wakeup=*/false);
  }
  schedule_dispatch();
}

void Core::force_block(Task* task) {
  assert(task->core() == this);
  switch (task->state()) {
    case TaskState::kBlocked:
      return;
    case TaskState::kRunnable:
      scheduler_->remove(task);
      task->set_state(TaskState::kBlocked);
      return;
    case TaskState::kRunning: {
      assert(task == current_);
      if (dispatch_event_ != sim::kInvalidEventId) {
        // Killed mid-switch: it never started, so on_dispatch never fires.
        engine_.cancel(dispatch_event_);
        dispatch_event_ = sim::kInvalidEventId;
      }
      task->on_preempt(engine_.now());
      account_running(/*stint_ends=*/true);
      ++task->mutable_stats().involuntary_switches;
      if (auto* trace = obs::trace_of(obs_)) {
        trace->instant(engine_.now(), lane_, "sched", "force_block",
                       {{"task", task->name()}});
      }
      task->set_state(TaskState::kBlocked);
      current_ = nullptr;
      schedule_dispatch();
      return;
    }
  }
}

Cycles Core::busy_cycles() const {
  Cycles busy = busy_;
  if (current_ != nullptr && engine_.now() > account_start_) {
    busy += engine_.now() - account_start_;
  }
  return busy;
}

double Core::utilization(Cycles window_start, Cycles busy_snapshot) const {
  const Cycles elapsed = engine_.now() - window_start;
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(busy_cycles() - busy_snapshot) /
         static_cast<double>(elapsed);
}

void Core::schedule_dispatch() {
  if (current_ != nullptr) return;
  if (scheduler_->runnable_count() == 0) return;
  Task* next = scheduler_->pick_next();
  assert(next != nullptr);
  // Charge the switch cost only when the CPU actually changes instruction
  // streams; resuming the task that ran last is (approximately) free. The
  // task is curr from this instant — a higher-priority wakeup during the
  // switch can still snatch the CPU (cancelling the pending start).
  const Cycles gap =
      (last_ran_ != nullptr && next != last_ran_) ? config_.context_switch_cost
                                                  : 0;
  switch_overhead_ += gap;
  if (gap > 0) {
    ++context_switches_;
    if (auto* trace = obs::trace_of(obs_)) {
      trace->instant(engine_.now(), lane_, "sched", "ctx_switch",
                     {{"from", last_ran_->name()}, {"to", next->name()}},
                     {{"cost_cycles", gap}});
    }
  }
  current_ = next;
  next->set_state(TaskState::kRunning);
  stint_start_ = account_start_ = engine_.now() + gap;
  dispatch_event_ =
      engine_.schedule_after(gap, [this, next] { start_running(next); });
}

void Core::start_running(Task* task) {
  dispatch_event_ = sim::kInvalidEventId;
  assert(current_ == task);

  if (task->woken_since_dispatch_) {
    auto& stats = task->mutable_stats();
    stats.sched_latency_total += engine_.now() - task->last_wake_time_;
    ++stats.sched_latency_samples;
    task->woken_since_dispatch_ = false;
  }

  // May synchronously yield (and schedule another dispatch); nothing below
  // this call.
  task->on_dispatch(engine_.now());
}

Cycles Core::preemption_horizon() const {
  if (current_ == nullptr) return sched::kUnboundedSlack;
  if (scheduler_->runnable_count() == 0) {
    // on_tick early-outs with nobody to switch to; an arrival that changes
    // that arrives as an event and goes through the wakeup/split path.
    return sched::kUnboundedSlack;
  }
  const Cycles ran = std::max<Cycles>(0, engine_.now() - stint_start_);
  const Cycles slack = scheduler_->tick_preempt_slack(current_, ran);
  if (slack >= sched::kUnboundedSlack) return sched::kUnboundedSlack;
  // First tick at or after now + slack (ticks only fire on the grid).
  const Cycles target = engine_.now() + slack;
  if (target <= next_tick_time_) return next_tick_time_;
  const Cycles period = config_.tick_period;
  const Cycles periods = (target - next_tick_time_ + period - 1) / period;
  return next_tick_time_ + periods * period;
}

void Core::on_tick() {
  next_tick_time_ = engine_.now() + config_.tick_period;
  if (current_ == nullptr) return;
  account_running(/*stint_ends=*/false);
  const Cycles ran = std::max<Cycles>(0, engine_.now() - stint_start_);
  if (scheduler_->runnable_count() == 0) return;  // nothing to switch to
  if (scheduler_->should_resched_on_tick(current_, ran)) {
    preempt_current();
    schedule_dispatch();
  }
}

void Core::preempt_current() {
  Task* task = current_;
  assert(task != nullptr);
  if (dispatch_event_ != sim::kInvalidEventId) {
    // Preempted mid-switch: it never started, so on_dispatch never fires.
    engine_.cancel(dispatch_event_);
    dispatch_event_ = sim::kInvalidEventId;
  }
  task->on_preempt(engine_.now());
  account_running(/*stint_ends=*/true);
  ++task->mutable_stats().involuntary_switches;
  ++preemptions_;
  if (auto* trace = obs::trace_of(obs_)) {
    trace->instant(engine_.now(), lane_, "sched", "preempt",
                   {{"task", task->name()}});
  }
  task->set_state(TaskState::kRunnable);
  scheduler_->enqueue(task, /*is_wakeup=*/false);
  current_ = nullptr;
}

void Core::account_running(bool stint_ends) {
  Task* task = current_;
  assert(task != nullptr);
  const Cycles ran = engine_.now() - account_start_;
  if (ran > 0) {
    busy_ += ran;
    task->mutable_stats().runtime += ran;
    scheduler_->on_run_end(task, ran);
    account_start_ = engine_.now();
  }
  if (stint_ends) last_ran_ = task;
}

}  // namespace nfv::sched
