#include "nf/nf_task.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nfv::nf {

NfTask::NfTask(sim::Engine& engine, Config config)
    : sched::Task(config.name),
      engine_(engine),
      config_(config),
      cost_(config.cost),
      rx_ring_(config.rx_capacity, config.high_watermark, config.low_watermark),
      tx_ring_(config.tx_capacity),
      window_(config.sample_window),
      warmup_left_(config.warmup_samples) {
  burst_.reserve(std::max<std::uint32_t>(1, config_.burst_window));
}

NfTask::~NfTask() {
  // A queued completion event holds a raw `this`; never let it outlive us.
  if (work_event_ != sim::kInvalidEventId) engine_.cancel(work_event_);
}

void NfTask::set_observability(obs::Observability* obs) {
  if (obs == nullptr) return;
  obs::Scope scope = obs->nf_scope(config_.name);
  scope.counter_fn("nf.arrivals", [this] { return counters_.arrivals; });
  scope.counter_fn("nf.processed", [this] { return counters_.processed; });
  scope.counter_fn("nf.forwarded", [this] { return counters_.forwarded; });
  scope.counter_fn("nf.handler_drops",
                   [this] { return counters_.handler_drops; });
  scope.counter_fn("nf.batch_yields", [this] { return counters_.batch_yields; });
  scope.counter_fn("nf.empty_blocks", [this] { return counters_.empty_blocks; });
  scope.counter_fn("nf.tx_full_blocks",
                   [this] { return counters_.tx_full_blocks; });
  scope.counter_fn("nf.io_blocks", [this] { return counters_.io_blocks; });
  scope.counter_fn("nf.crash_drops", [this] { return counters_.crash_drops; });
  scope.counter_fn("nf.numa_remote_packets",
                   [this] { return counters_.numa_remote_packets; });
  scope.counter_fn("nf.runtime_cycles", [this] {
    return static_cast<std::uint64_t>(stats().runtime);
  });
  scope.counter_fn("nf.wakeups", [this] { return stats().wakeups; });
  scope.counter_fn("nf.voluntary_switches",
                   [this] { return stats().voluntary_switches; });
  scope.counter_fn("nf.involuntary_switches",
                   [this] { return stats().involuntary_switches; });
  scope.gauge_fn("nf.rx_queue_len",
                 [this] { return static_cast<double>(rx_ring_.size()); });
  scope.gauge_fn("nf.tx_queue_len",
                 [this] { return static_cast<double>(tx_ring_.size()); });
  scope.gauge_fn("nf.service_time_p50_cycles", [this] {
    return static_cast<double>(histogram_.value_at_quantile(0.5));
  });
}

void NfTask::attach_io(io::AsyncIoEngine* io_engine) {
  io_ = io_engine;
  if (io_ == nullptr) return;
  // When the flush completes and a buffer frees up, the NF becomes
  // runnable again; the completion context plays the manager's role of
  // posting the semaphore.
  io_->set_unblock_callback([this] {
    if (state() == sched::TaskState::kBlocked && has_runnable_work()) {
      core()->wake(this);
    }
  });
  // Storage fault domain, on_io_fail = stuck: an unrecoverable I/O failure
  // freezes the NF exactly like an injected stall — it spins on the CPU
  // until the watchdog's evidence-based diagnosis force-kills and restarts
  // it (DeadNfPolicy then governs the chain).
  io_->set_fatal_callback([this] {
    if (dead_ || stalled_) return;
    stall();
    if (state() == sched::TaskState::kBlocked && core() != nullptr) {
      core()->wake(this);
    }
  });
}

bool NfTask::has_runnable_work() const {
  if (dead_) return false;
  // A straggler spins: it always "wants" the CPU and ignores the
  // relinquish flag (a hung process checks no shared-memory flags).
  if (stalled_) return true;
  if (yield_flag_) return false;
  if (io_ != nullptr && io_->would_block()) return false;
  if (tx_ring_.full()) return false;
  return burst_pos_ < burst_.size() || !rx_ring_.empty();
}

void NfTask::on_dispatch(Cycles now) {
  // A straggler holds the CPU without scheduling work: it stays kRunning,
  // burns cycles (tick accounting charges it), and never yields. Only a
  // tick/wakeup preemption or the watchdog's crash() takes the core back.
  if (stalled_) return;
  if (burst_pos_ < burst_.size() && work_event_ == sim::kInvalidEventId) {
    // Resume the burst that was in flight when we were preempted: replay
    // the remaining virtual clock from now. The burst is not extended with
    // new RX arrivals — the split already sampled these packets' costs.
    Cycles cursor = now + resume_remaining_;
    resume_remaining_ = 0;
    burst_[burst_pos_].done_at = cursor;
    for (std::size_t i = burst_pos_ + 1; i < burst_.size(); ++i) {
      cursor += burst_[i].cost;
      burst_[i].done_at = cursor;
    }
    work_event_ = engine_.schedule_at(cursor, [this] { on_burst_done(); });
    return;
  }
  start_next_burst(now);
}

void NfTask::on_preempt(Cycles now) {
  if (work_event_ == sim::kInvalidEventId) return;  // preempted mid-switch
  engine_.cancel(work_event_);
  work_event_ = sim::kInvalidEventId;
  // Split the burst at the preemption point: packets whose virtual
  // completion time already passed are really done — finalize them at
  // their exact times. The packet straddling `now` stays in flight with
  // its unserved remainder (strict <: completing exactly at the preempt
  // instant still counts as in flight, as the per-packet engine did).
  std::size_t done = burst_pos_;
  while (done < burst_.size() && burst_[done].done_at < now) ++done;
  finalize_through(done);
  assert(burst_pos_ < burst_.size() && "armed burst cannot be fully done");
  resume_remaining_ = burst_[burst_pos_].done_at - now;
  assert(resume_remaining_ >= 0);
}

std::uint64_t NfTask::progress(Cycles now) const {
  std::uint64_t done = counters_.processed;
  if (work_event_ == sim::kInvalidEventId) return done;
  for (std::size_t i = burst_pos_; i < burst_.size() && burst_[i].done_at < now;
       ++i) {
    ++done;
  }
  return done;
}

void NfTask::crash() {
  if (dead_) return;
  // Tear the CPU away first: the preempt path inside force_block finalizes
  // packets whose virtual completion already passed (they really finished
  // before the crash instant) and charges the runtime consumed so far.
  core()->force_block(this);
  if (work_event_ != sim::kInvalidEventId) {
    engine_.cancel(work_event_);
    work_event_ = sim::kInvalidEventId;
  }
  // The rest of the in-flight burst dies with the process: these
  // descriptors were dequeued into the NF's private batch and nothing can
  // recover them. The RX/TX rings survive (shared memory).
  for (std::size_t i = burst_pos_; i < burst_.size(); ++i) {
    ++counters_.crash_drops;
    if (release_) release_(burst_[i].pkt);
  }
  burst_.clear();
  burst_pos_ = 0;
  resume_remaining_ = 0;
  batch_count_ = 0;
  stalled_ = false;
  dead_ = true;
}

void NfTask::stall() {
  if (dead_ || stalled_) return;
  stalled_ = true;
  // Freeze mid-instruction: the pending completion never fires and any
  // in-flight burst is held hostage (conservation still counts it via
  // in_flight_packets()). The task keeps spinning on the CPU from here.
  if (work_event_ != sim::kInvalidEventId) {
    engine_.cancel(work_event_);
    work_event_ = sim::kInvalidEventId;
  }
}

void NfTask::revive(Cycles now) {
  dead_ = false;
  stalled_ = false;
  // Cold process: caches and the service-time estimator start over, as at
  // launch — the §3.5 warm-up samples are discarded again.
  warmup_left_ = config_.warmup_samples;
  next_sample_time_ = now;
  batch_count_ = 0;
}

void NfTask::start_next_burst(Cycles now) {
  assert(burst_pos_ >= burst_.size());

  // The relinquish flag is honoured at batch boundaries only (§3.2): here
  // when a fresh batch would start, and in on_burst_done() after a full
  // batch. Mid-batch changes wait for the boundary, as in libnf.
  if (batch_count_ == 0 && yield_flag_) {
    ++counters_.batch_yields;
    block_self();
    return;
  }
  if (io_ != nullptr && io_->would_block()) {
    ++counters_.io_blocks;
    block_self();
    return;
  }
  if (tx_ring_.full()) {
    // Local backpressure: "when the transmit ring out of an NF is full,
    // that NF suspends processing packets until room is created" (§4.1).
    ++counters_.tx_full_blocks;
    block_self();
    return;
  }

  pktio::Mbuf* pkt = rx_ring_.dequeue();
  if (pkt == nullptr) {
    ++counters_.empty_blocks;
    block_self();
    return;
  }

  // Size the burst: the relinquish-flag boundary (batch_size) and the TX
  // space guarantee must hold for every packet, and an NF doing async I/O
  // re-checks would_block() before each packet, so it runs unbatched.
  const std::uint32_t window =
      io_ != nullptr ? 1 : std::max<std::uint32_t>(1, config_.burst_window);
  const std::size_t max_k = std::min<std::size_t>(
      std::min<std::size_t>(window, config_.batch_size - batch_count_),
      tx_ring_.capacity() - tx_ring_.size());
  // Cap at the next possible tick preemption so the common case completes
  // without a split. Exactness does not depend on this: overshooting (a
  // wakeup preemption, a stale horizon) is healed by the on_preempt split.
  const Cycles horizon =
      max_k > 1 ? core()->preemption_horizon() : sched::kUnboundedSlack;
  const int local_node = core()->numa_node();

  burst_.clear();
  burst_pos_ = 0;
  Cycles cursor = now;
  while (true) {
    Cycles cost = cost_.sample(*pkt);
    // First touch of a buffer produced on another socket costs extra; the
    // data is local (cached here) from now on.
    if (pkt->numa_node != local_node) {
      cost += config_.numa_penalty;
      pkt->numa_node = static_cast<std::int8_t>(local_node);
      ++counters_.numa_remote_packets;
    }
    cursor += cost;
    burst_.push_back(BurstEntry{pkt, cost, cursor});
    if (burst_.size() >= max_k || cursor >= horizon) break;
    pkt = rx_ring_.dequeue();
    if (pkt == nullptr) break;
  }
  work_event_ = engine_.schedule_at(cursor, [this] { on_burst_done(); });
}

void NfTask::on_burst_done() {
  const Cycles now = engine_.now();
  work_event_ = sim::kInvalidEventId;
  finalize_through(burst_.size());
  burst_.clear();
  burst_pos_ = 0;

  // Batch boundary: after at most `batch_size` packets, honour the
  // manager's relinquish flag (§3.2). Burst assembly never crosses the
  // boundary, so the wrap can only land here, after a whole burst.
  if (batch_count_ >= config_.batch_size) {
    batch_count_ = 0;
    if (yield_flag_) {
      ++counters_.batch_yields;
      block_self();
      return;
    }
  }

  if (state() != sched::TaskState::kRunning) return;  // preempted meanwhile
  start_next_burst(now);
}

void NfTask::finalize_through(std::size_t end) {
  const std::uint64_t forwarded = counters_.forwarded;
  for (; burst_pos_ < end; ++burst_pos_) {
    const BurstEntry& entry = burst_[burst_pos_];
    maybe_sample(entry.done_at, entry.cost);
    ++counters_.processed;
    ++batch_count_;
    pktio::Mbuf* pkt = entry.pkt;
    const NfAction action = handler_ ? handler_(*pkt) : NfAction::kForward;
    if (action == NfAction::kDrop) {
      ++counters_.handler_drops;
      if (release_) release_(pkt);
      continue;
    }
    // Room for the whole burst was guaranteed at assembly and only the
    // manager's Tx thread drains this ring, so enqueue cannot fail.
    const auto result = tx_ring_.enqueue(pkt);
    assert(result != pktio::EnqueueResult::kFull);
    (void)result;
    ++counters_.forwarded;
  }
  // One notify per finalized burst. It runs before the caller arms any
  // other event, so the drain it schedules keeps the (when, seq) the
  // first forwarded packet's notify used to give it.
  if (counters_.forwarded != forwarded && tx_notify_) tx_notify_(*this);
}

void NfTask::block_self() {
  batch_count_ = 0;
  core()->yield_current(this, /*will_block=*/true);
}

void NfTask::maybe_sample(Cycles now, Cycles cost) {
  // §3.5: per-packet rdtsc on every packet would flush the pipeline, so
  // libnf samples roughly once per millisecond and the first few samples
  // are discarded to account for cache warm-up.
  if (now < next_sample_time_) return;
  next_sample_time_ = now + config_.sample_interval;
  if (warmup_left_ > 0) {
    --warmup_left_;
    return;
  }
  window_.record(now, static_cast<std::uint64_t>(cost));
  histogram_.record(static_cast<std::uint64_t>(cost));
}

}  // namespace nfv::nf
