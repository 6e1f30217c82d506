// libnf: the network-function runtime.
//
// Each NF links against libnf, which mediates "all interactions with the
// management layer" (§3.2): it reads packets from the NF's receive ring in
// batches of at most 32, invokes the NF's packet handler, writes results to
// the TX ring, checks the shared-memory relinquish flag between batches,
// blocks the NF on its semaphore when there is nothing (or it is told not)
// to do, samples per-packet processing time at ~1 kHz into a histogram
// shared with the NF Manager (§3.5), and yields when the async I/O engine's
// double buffers are both full (§3.4).
//
// NfTask is both the libnf instance and the schedulable process: the Core
// dispatches/preempts it, and while it holds the CPU it executes packets in
// run-to-completion bursts — one engine event per burst, with per-packet
// costs laid out on a local virtual clock (see DESIGN.md §9).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/moving_window.hpp"
#include "io/async_io.hpp"
#include "obs/observability.hpp"
#include "nf/cost_model.hpp"
#include "pktio/ring.hpp"
#include "sched/core.hpp"
#include "sched/task.hpp"
#include "sim/engine.hpp"

namespace nfv::nf {

/// What the NF's packet handler wants done with the packet.
enum class NfAction {
  kForward,  ///< Enqueue to the TX ring (next NF in chain, or the wire).
  kDrop,     ///< NF-initiated drop (e.g. a firewall verdict).
};

struct NfCounters {
  std::uint64_t arrivals = 0;        ///< Packets enqueued to the RX ring.
  std::uint64_t processed = 0;       ///< Packets whose handler completed.
  std::uint64_t forwarded = 0;       ///< Packets placed on the TX ring.
  std::uint64_t handler_drops = 0;   ///< Dropped by the NF's own verdict.
  std::uint64_t batch_yields = 0;    ///< Yields forced by the relinquish flag.
  std::uint64_t empty_blocks = 0;    ///< Blocks because the RX ring drained.
  std::uint64_t tx_full_blocks = 0;  ///< Local backpressure blocks (§3.3).
  std::uint64_t io_blocks = 0;       ///< Blocks with both I/O buffers full.
  std::uint64_t numa_remote_packets = 0;  ///< Paid the cross-node penalty.
  /// In-flight burst packets lost when the process crashed (fault model,
  /// DESIGN.md §11). Conservation: admitted = egress + drops + crash_drops
  /// + queued.
  std::uint64_t crash_drops = 0;
};

class NfTask : public sched::Task {
 public:
  struct Config {
    std::string name = "nf";
    CostModel cost = CostModel::fixed(250);
    std::uint32_t rx_capacity = 1024;
    std::uint32_t tx_capacity = 4096;
    std::uint32_t batch_size = 32;
    double high_watermark = 0.80;  ///< RX ring thresholds (§4.3.8 tuning).
    double low_watermark = 0.60;
    Cycles sample_interval = 2'600'000;  ///< 1 ms at 2.6 GHz (1 kHz, §3.5).
    Cycles sample_window = 260'000'000;  ///< 100 ms moving window (§3.5).
    unsigned warmup_samples = 10;        ///< Discarded for cache warm-up.
    double priority = 1.0;               ///< Operator priority_i (§3.2).
    /// Extra per-packet cycles when the packet's buffer lives on another
    /// NUMA node (§1: scheduling must be "cognizant of NUMA concerns").
    Cycles numa_penalty = 300;
    /// Packets executed per engine event (run-to-completion burst). The
    /// burst is assembled up front — per-packet cost sampled, NUMA penalty
    /// charged, completion times laid out on a local virtual clock — and a
    /// single event fires at the accumulated completion time. Capped by
    /// batch_size, TX space and the core's preemption horizon; 1 restores
    /// the seed's one-event-per-packet behaviour exactly (the equivalence
    /// suite pins this). NFs with attached async I/O always run at 1, since
    /// libnf checks would_block() before every packet.
    std::uint32_t burst_window = 32;
  };

  /// Handler invoked per packet, in addition to the modelled CPU cost.
  /// May call io().write()/read(). Default (unset) forwards every packet.
  using Handler = std::function<NfAction(pktio::Mbuf&)>;

  /// Platform callbacks (installed by the NF Manager). Notify fires once
  /// per finalized burst that put at least one packet on the TX ring.
  using Notify = std::function<void(NfTask&)>;
  using Release = std::function<void(pktio::Mbuf*)>;

  NfTask(sim::Engine& engine, Config config);
  ~NfTask() override;

  // -- wiring (done once by the platform) ---------------------------------
  void set_handler(Handler handler) { handler_ = std::move(handler); }
  void set_tx_notify(Notify notify) { tx_notify_ = std::move(notify); }
  void set_packet_release(Release release) { release_ = std::move(release); }
  void attach_io(io::AsyncIoEngine* io_engine);

  /// Project libnf's counters and queue depths into the metrics registry
  /// under the {"nf", name} scope. Sampled probes only — the packet loop
  /// pays nothing. Null-safe.
  void set_observability(obs::Observability* obs);

  // -- data plane ----------------------------------------------------------
  [[nodiscard]] pktio::Ring& rx_ring() { return rx_ring_; }
  [[nodiscard]] const pktio::Ring& rx_ring() const { return rx_ring_; }
  [[nodiscard]] pktio::Ring& tx_ring() { return tx_ring_; }
  [[nodiscard]] const pktio::Ring& tx_ring() const { return tx_ring_; }

  /// Called by the manager after `n` successful RX enqueues (rate
  /// estimation).
  void note_arrival(std::uint64_t n = 1) { counters_.arrivals += n; }

  // -- shared-memory flags (manager <-> libnf) ----------------------------
  /// Relinquish-CPU flag checked after each batch (§3.2).
  void set_yield_flag(bool value) { yield_flag_ = value; }
  [[nodiscard]] bool yield_flag() const { return yield_flag_; }

  /// Overload flag set by the Tx thread from enqueue feedback (§3.5); the
  /// Wakeup thread consumes it when classifying NFs.
  void set_overload_flag(bool value) { overload_flag_ = value; }
  [[nodiscard]] bool overload_flag() const { return overload_flag_; }

  // -- monitor-facing -------------------------------------------------------
  /// Median sampled service time (cycles) over the moving window; 0 when no
  /// samples yet. This is the s_i in load(i) = λ_i * s_i.
  [[nodiscard]] Cycles estimated_service_time(Cycles now) {
    return static_cast<Cycles>(window_.median(now));
  }
  [[nodiscard]] const Histogram& cost_histogram() const { return histogram_; }
  [[nodiscard]] const NfCounters& counters() const { return counters_; }
  [[nodiscard]] double priority() const { return config_.priority; }
  [[nodiscard]] CostModel& cost_model() { return cost_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] io::AsyncIoEngine* io() { return io_; }

  /// True when waking the NF would let it make progress.
  [[nodiscard]] bool has_runnable_work() const;

  // -- fault & lifecycle (driven by the platform's fault subsystem) --------
  /// The process dies, now: the CPU is torn away (packets that genuinely
  /// completed before this instant are still finalized at their exact
  /// times), the rest of the in-flight burst is released back to the pool
  /// as crash_drops, and the task goes DEAD — invisible to wakeups until
  /// revive(). The RX/TX rings are untouched: they live in manager-owned
  /// shared memory and survive the process (OpenNetVM's model).
  void crash();
  /// The process becomes a straggler, now: it freezes mid-instruction —
  /// any in-flight burst is held hostage, no completion ever fires — but
  /// keeps (or takes) the CPU and burns cycles without progress, until the
  /// manager's watchdog declares it STUCK and crash()es it.
  void stall();
  /// Cold restart after a crash: clears dead/stalled, restarts the §3.5
  /// warm-up sample discard (caches are cold again).
  void revive(Cycles now);
  [[nodiscard]] bool dead() const { return dead_; }
  [[nodiscard]] bool stalled() const { return stalled_; }

  /// The watchdog's heartbeat: packets whose handler completed, plus the
  /// armed burst's packets whose virtual completion time is before `now`.
  /// A long burst thus makes progress packet by packet; a stalled or
  /// preempted burst, with no completion event armed, makes none.
  [[nodiscard]] std::uint64_t progress(Cycles now) const;

  /// Packets dequeued from the RX ring into the current burst but not yet
  /// finalized. Conservation accounting must count these alongside ring
  /// occupancy: they are alive in the pool but visible in no queue.
  [[nodiscard]] std::size_t in_flight_packets() const {
    return burst_.size() - burst_pos_;
  }

  // -- sched::Task ----------------------------------------------------------
  void on_dispatch(Cycles now) override;
  void on_preempt(Cycles now) override;

 private:
  /// One packet's slot in the assembled burst: cost was sampled and the
  /// completion time laid out on the local virtual clock at assembly time.
  struct BurstEntry {
    pktio::Mbuf* pkt;
    Cycles cost;     ///< Sampled service time (incl. NUMA penalty).
    Cycles done_at;  ///< Virtual completion time within the burst.
  };

  void start_next_burst(Cycles now);
  void on_burst_done();
  /// Finalize entries [burst_pos_, end) at their virtual completion
  /// times, then notify the Tx thread once if any was forwarded.
  void finalize_through(std::size_t end);
  void block_self();
  void maybe_sample(Cycles now, Cycles cost);

  sim::Engine& engine_;
  Config config_;
  CostModel cost_;
  pktio::Ring rx_ring_;
  pktio::Ring tx_ring_;

  Handler handler_;
  Notify tx_notify_;
  Release release_;
  io::AsyncIoEngine* io_ = nullptr;

  bool yield_flag_ = false;
  bool overload_flag_ = false;
  bool dead_ = false;
  bool stalled_ = false;

  // In-flight burst state across preemptions. Entries before burst_pos_
  // are finalized (handler ran, packet left the NF); burst_pos_ onward are
  // dequeued-but-unexecuted packets this task still owns. When preempted,
  // resume_remaining_ holds the unserved cycles of entry burst_pos_.
  std::vector<BurstEntry> burst_;
  std::size_t burst_pos_ = 0;
  Cycles resume_remaining_ = 0;
  sim::EventId work_event_ = sim::kInvalidEventId;
  std::uint32_t batch_count_ = 0;

  // Service-time estimation (§3.5).
  MovingWindow window_;
  Histogram histogram_;
  Cycles next_sample_time_ = 0;
  unsigned warmup_left_;

  NfCounters counters_;
};

}  // namespace nfv::nf
