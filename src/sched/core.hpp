// A simulated CPU core hosting one scheduling policy and many tasks.
//
// The Core is the meeting point between the event engine and the scheduler
// policy. Preemption is driven the way the kernel drives it: a periodic
// scheduler tick (CONFIG_HZ=1000 on the paper's lowlatency 3.19 kernel, so
// 1 ms) asks the policy whether the running task must be rescheduled
// (check_preempt_tick for CFS, slice decrement for RR), and wakeups run the
// policy's wakeup-preemption test (SCHED_NORMAL only). The Core charges
// context-switch overhead, and keeps the per-task accounting the paper's
// tables report. NF Manager threads (Rx/Tx/Wakeup/Monitor) run on dedicated
// cores in the paper and are therefore modelled as plain event handlers,
// not Tasks; only NFs (and any other contending processes) are scheduled
// here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/observability.hpp"
#include "sched/scheduler.hpp"
#include "sched/task.hpp"
#include "sim/engine.hpp"

namespace nfv::sched {

struct CoreConfig {
  /// Direct cost of a context switch (register save/restore, runqueue
  /// manipulation, TLB/cache disturbance amortised). ~1.5 us on the
  /// paper's Xeon E5-2697v3 => ~3900 cycles at 2.6 GHz.
  Cycles context_switch_cost = 3900;
  /// Scheduler tick period; 1 ms = CONFIG_HZ=1000 (lowlatency kernel).
  Cycles tick_period = 2'600'000;
  /// NUMA node this core belongs to (§1: NF scheduling "has to be
  /// cognizant of NUMA concerns"). The paper's testbed is dual-socket;
  /// packets handed between NFs on different nodes pay a remote-memory
  /// penalty per packet (see PlatformConfig::numa_penalty).
  int numa_node = 0;
};

class Core {
 public:
  Core(sim::Engine& engine, std::unique_ptr<Scheduler> scheduler,
       CoreConfig config = {}, std::string name = "core");
  ~Core();

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Register a task on this core. Tasks start Blocked; call wake() to make
  /// them runnable. The task must outlive the core's use of it.
  void add_task(Task* task);

  /// Semaphore-notify semantics: transition Blocked -> Runnable; no-op if
  /// already runnable or running. May preempt the current task if the
  /// policy's wakeup-preemption test passes.
  void wake(Task* task);

  /// Called by the *currently running* task to give up the CPU.
  /// `will_block` => the task sleeps on its semaphore (Blocked) until the
  /// next wake(); otherwise it stays runnable and is requeued.
  void yield_current(Task* task, bool will_block);

  /// Forcibly take a task off the CPU or runqueue and mark it Blocked —
  /// the kernel's view of a process that died or was killed. Unlike
  /// yield_current this may target any task: Running (preempted, runtime
  /// charged, core handed to the next runnable task), Runnable (removed
  /// from the runqueue) or already Blocked (no-op). The fault subsystem
  /// uses it to model NF crashes (DESIGN.md §11).
  void force_block(Task* task);

  [[nodiscard]] Task* current() const { return current_; }
  [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] const Scheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Cycles spent running tasks (excludes switch overhead); live.
  [[nodiscard]] Cycles busy_cycles() const;
  /// Cycles spent on context-switch overhead.
  [[nodiscard]] Cycles switch_overhead_cycles() const { return switch_overhead_; }
  /// Busy fraction over (window_start, now] given a busy_cycles() snapshot
  /// taken at window_start.
  [[nodiscard]] double utilization(Cycles window_start, Cycles busy_snapshot) const;

  [[nodiscard]] const std::vector<Task*>& tasks() const { return tasks_; }
  [[nodiscard]] int numa_node() const { return config_.numa_node; }

  /// Earliest absolute time at which the running task could be preempted by
  /// the periodic tick, given the runqueue right now. Run-to-completion
  /// bursts use this to size themselves so the next tick-driven preemption
  /// still lands at the exact cycle it would have hit without batching.
  /// Ticks only fire on the tick grid, so the horizon is the first tick at
  /// or after now + the policy's tick_preempt_slack; sched::kUnboundedSlack
  /// when nothing can preempt (empty runqueue, FIFO). Wakeup preemption is
  /// deliberately not folded in: wakeups arrive as events, and the burst
  /// split path (Task::on_preempt) already restores exactness for them.
  [[nodiscard]] Cycles preemption_horizon() const;

  /// Attach the observability context: registers probes of this core's
  /// scheduler counts under the {"core", name} scope and emits sched trace
  /// events (ctx_switch / wakeup / yield / preempt) on trace `lane` whenever
  /// a recorder is attached. Null-safe; may be called before or after tasks
  /// are added.
  void set_observability(obs::Observability* obs, std::uint32_t lane);

 private:
  void schedule_dispatch();
  void start_running(Task* task);
  void on_tick();
  void preempt_current();
  void account_running(bool stint_ends);

  sim::Engine& engine_;
  std::unique_ptr<Scheduler> scheduler_;
  CoreConfig config_;
  std::string name_;

  std::vector<Task*> tasks_;
  std::uint64_t next_task_id_ = 1;

  Task* current_ = nullptr;
  Task* last_ran_ = nullptr;
  Cycles stint_start_ = 0;    ///< Dispatch time of the current stint.
  Cycles next_tick_time_ = 0; ///< When the next periodic tick fires.
  Cycles account_start_ = 0;  ///< Last point runtime/vruntime were charged.
  sim::EventId tick_event_ = sim::kInvalidEventId;
  /// Pending start_running() while the context-switch cost elapses. The
  /// next task is already `current_` during this window (as in the kernel,
  /// where there is no instant at which nobody is curr), so wakeups can
  /// preempt it before it begins work.
  sim::EventId dispatch_event_ = sim::kInvalidEventId;

  Cycles busy_ = 0;
  Cycles switch_overhead_ = 0;
  std::uint64_t context_switches_ = 0;  ///< Dispatches that paid the cost.
  std::uint64_t wakeups_ = 0;           ///< Blocked -> Runnable wakes.
  std::uint64_t preemptions_ = 0;

  // Trace context (null until set_observability; guarded on every use).
  obs::Observability* obs_ = nullptr;
  std::uint32_t lane_ = 0;
};

}  // namespace nfv::sched
