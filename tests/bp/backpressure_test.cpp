#include "bp/backpressure.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "pktio/mempool.hpp"

namespace nfv::bp {
namespace {

// Builds the Fig. 8 topology: chain1 = NF0->NF1->NF3, chain2 = NF0->NF2->NF3.
class BackpressureTest : public ::testing::Test {
 protected:
  BackpressureTest() {
    chain1_ = chains_.add("chain1", {0, 1, 3});
    chain2_ = chains_.add("chain2", {0, 2, 3});
    bp_ = std::make_unique<BackpressureManager>(chains_, 4, config_);
  }

  /// Push the ring to `n` entries with the given head enqueue time.
  void fill(pktio::Ring& ring, std::size_t n, Cycles when) {
    while (ring.size() < n) {
      pktio::Mbuf* m = pool_.alloc();
      m->enqueue_time = when;
      ring.enqueue(m);
    }
  }
  void drain(pktio::Ring& ring, std::size_t down_to) {
    while (ring.size() > down_to) pool_.free(ring.dequeue());
  }

  flow::ChainRegistry chains_;
  flow::ChainId chain1_ = 0, chain2_ = 0;
  BpConfig config_{.queuing_time_threshold = 1000};
  std::unique_ptr<BackpressureManager> bp_;
  pktio::MbufPool pool_{4096};
};

TEST_F(BackpressureTest, StartsClear) {
  for (flow::NfId nf = 0; nf < 4; ++nf) {
    EXPECT_EQ(bp_->state(nf), ThrottleState::kClear);
  }
  EXPECT_FALSE(bp_->chain_throttled(chain1_));
  EXPECT_FALSE(bp_->chain_throttled(chain2_));
}

TEST_F(BackpressureTest, EnqueueFeedbackMovesToWatch) {
  bp_->on_enqueue_feedback(1, pktio::EnqueueResult::kOkOverloaded);
  EXPECT_EQ(bp_->state(1), ThrottleState::kWatch);
  EXPECT_EQ(bp_->stats().watch_entries, 1u);
}

TEST_F(BackpressureTest, OkFeedbackStaysClear) {
  bp_->on_enqueue_feedback(1, pktio::EnqueueResult::kOk);
  EXPECT_EQ(bp_->state(1), ThrottleState::kClear);
}

TEST_F(BackpressureTest, EvaluateEscalatesWatchToThrottleAfterThreshold) {
  pktio::Ring ring(64, 0.8, 0.6);  // high at 51
  fill(ring, 52, /*when=*/0);
  EXPECT_EQ(bp_->evaluate(1, ring, 10), ThrottleState::kWatch);
  // Head queued only 10 cycles: below the 1000-cycle threshold.
  EXPECT_EQ(bp_->evaluate(1, ring, 500), ThrottleState::kWatch);
  // Past the threshold: throttle.
  EXPECT_EQ(bp_->evaluate(1, ring, 2000), ThrottleState::kThrottle);
  EXPECT_EQ(bp_->stats().throttle_entries, 1u);
  drain(ring, 0);
}

TEST_F(BackpressureTest, ThrottleMarksExactlyChainsThroughNf) {
  pktio::Ring ring(64, 0.8, 0.6);
  fill(ring, 52, 0);
  bp_->evaluate(1, ring, 10);
  bp_->evaluate(1, ring, 5000);
  ASSERT_EQ(bp_->state(1), ThrottleState::kThrottle);
  // NF1 only carries chain1; chain2 (through NF2) must be untouched.
  EXPECT_TRUE(bp_->chain_throttled(chain1_));
  EXPECT_FALSE(bp_->chain_throttled(chain2_));
  drain(ring, 0);
}

TEST_F(BackpressureTest, SharedNfThrottlesBothChains) {
  pktio::Ring ring(64, 0.8, 0.6);
  fill(ring, 52, 0);
  bp_->evaluate(3, ring, 10);
  bp_->evaluate(3, ring, 5000);
  EXPECT_TRUE(bp_->chain_throttled(chain1_));
  EXPECT_TRUE(bp_->chain_throttled(chain2_));
  drain(ring, 0);
}

TEST_F(BackpressureTest, HysteresisClearsOnlyBelowLowWatermark) {
  pktio::Ring ring(64, 0.8, 0.6);  // high 51, low 38
  fill(ring, 52, 0);
  bp_->evaluate(1, ring, 10);
  bp_->evaluate(1, ring, 5000);
  ASSERT_EQ(bp_->state(1), ThrottleState::kThrottle);
  // Drain to between the marks: still throttled (hysteresis).
  drain(ring, 45);
  EXPECT_EQ(bp_->evaluate(1, ring, 6000), ThrottleState::kThrottle);
  // Below the low mark: cleared.
  drain(ring, 30);
  EXPECT_EQ(bp_->evaluate(1, ring, 7000), ThrottleState::kClear);
  EXPECT_FALSE(bp_->chain_throttled(chain1_));
  EXPECT_EQ(bp_->stats().throttle_clears, 1u);
  drain(ring, 0);
}

TEST_F(BackpressureTest, WatchFallsBackToClear) {
  pktio::Ring ring(64, 0.8, 0.6);
  fill(ring, 52, 0);
  bp_->evaluate(1, ring, 10);
  ASSERT_EQ(bp_->state(1), ThrottleState::kWatch);
  drain(ring, 10);
  EXPECT_EQ(bp_->evaluate(1, ring, 20), ThrottleState::kClear);
  drain(ring, 0);
}

TEST_F(BackpressureTest, ShortBurstNeverThrottles) {
  // §3.5: "a short burst of packets causing an NF to exceed its threshold
  // may have already been processed by the time the Wakeup thread
  // considers it" — the queuing-time condition absorbs bursts.
  pktio::Ring ring(64, 0.8, 0.6);
  fill(ring, 52, /*when=*/0);
  bp_->evaluate(1, ring, 100);  // watch
  drain(ring, 0);               // burst absorbed before the next scan
  EXPECT_EQ(bp_->evaluate(1, ring, 200), ThrottleState::kClear);
  EXPECT_EQ(bp_->stats().throttle_entries, 0u);
}

TEST_F(BackpressureTest, UpstreamPauseOnlyWhenAllChainsThrottled) {
  // Throttle NF1 (chain1's middle hop): NF0 also serves chain2, so NF0
  // must NOT be paused (that would head-of-line block chain2).
  pktio::Ring ring(64, 0.8, 0.6);
  fill(ring, 52, 0);
  bp_->evaluate(1, ring, 10);
  bp_->evaluate(1, ring, 5000);
  ASSERT_TRUE(bp_->chain_throttled(chain1_));
  EXPECT_FALSE(bp_->should_pause_upstream(0));
  drain(ring, 0);
}

TEST_F(BackpressureTest, UpstreamPauseWhenEveryChainThrottledDownstream) {
  // Throttle NF3 (tail shared by both chains): NF0, NF1 and NF2 are all
  // strictly upstream of a throttling NF in every chain they serve.
  pktio::Ring ring(64, 0.8, 0.6);
  fill(ring, 52, 0);
  bp_->evaluate(3, ring, 10);
  bp_->evaluate(3, ring, 5000);
  EXPECT_TRUE(bp_->should_pause_upstream(0));
  EXPECT_TRUE(bp_->should_pause_upstream(1));
  EXPECT_TRUE(bp_->should_pause_upstream(2));
  // The bottleneck itself must keep running to drain.
  EXPECT_FALSE(bp_->should_pause_upstream(3));
  drain(ring, 0);
}

TEST_F(BackpressureTest, NfOutsideAnyChainNeverPaused) {
  EXPECT_FALSE(bp_->should_pause_upstream(3));
  flow::ChainRegistry empty_chains;
  BackpressureManager bp(empty_chains, 2, config_);
  EXPECT_FALSE(bp.should_pause_upstream(0));
}

TEST_F(BackpressureTest, MultipleThrottlersRequireAllToClear) {
  pktio::Ring ring1(64, 0.8, 0.6), ring3(64, 0.8, 0.6);
  fill(ring1, 52, 0);
  fill(ring3, 52, 0);
  bp_->evaluate(1, ring1, 10);
  bp_->evaluate(3, ring3, 10);
  bp_->evaluate(1, ring1, 5000);
  bp_->evaluate(3, ring3, 5000);
  EXPECT_TRUE(bp_->chain_throttled(chain1_));  // throttled by NF1 AND NF3
  drain(ring1, 0);
  bp_->evaluate(1, ring1, 6000);  // NF1 clears
  EXPECT_TRUE(bp_->chain_throttled(chain1_));  // NF3 still throttles it
  drain(ring3, 0);
  bp_->evaluate(3, ring3, 7000);
  EXPECT_FALSE(bp_->chain_throttled(chain1_));
}

TEST_F(BackpressureTest, ExactlyAtHighWatermarkCountsAsAbove) {
  // Boundary semantics: enqueue feedback and evaluate() both treat
  // "qlen == HIGH_WATER_MARK" as overloaded (count >= mark, §3.5's
  // "below the high watermark" admission test is strict).
  pktio::Ring ring(64, 0.8, 0.6);
  ASSERT_EQ(ring.high_watermark(), 51u);
  fill(ring, 50, /*when=*/0);  // one below the mark
  EXPECT_FALSE(ring.above_high_watermark());
  EXPECT_EQ(bp_->evaluate(1, ring, 10), ThrottleState::kClear);

  fill(ring, 51, /*when=*/0);  // exactly at the mark
  EXPECT_TRUE(ring.above_high_watermark());
  EXPECT_EQ(bp_->evaluate(1, ring, 20), ThrottleState::kWatch);
  // And the aged head escalates from exactly-at-the-mark too.
  EXPECT_EQ(bp_->evaluate(1, ring, 5000), ThrottleState::kThrottle);
  drain(ring, 0);
}

TEST_F(BackpressureTest, DegenerateHysteresisLowEqualsHigh) {
  // LOW == HIGH removes the hysteresis band entirely: one packet under the
  // mark must clear a throttle, and re-crossing re-enters Watch (the
  // flappy behaviour the 20-point margin of §4.3.8 exists to avoid — but
  // the state machine must stay consistent, never stuck or double-counted).
  pktio::Ring ring(64, 0.8, 0.8);
  ASSERT_EQ(ring.high_watermark(), ring.low_watermark());
  const std::size_t mark = ring.high_watermark();

  fill(ring, mark, 0);
  EXPECT_EQ(bp_->evaluate(1, ring, 10), ThrottleState::kWatch);
  EXPECT_EQ(bp_->evaluate(1, ring, 5000), ThrottleState::kThrottle);
  EXPECT_TRUE(bp_->chain_throttled(chain1_));

  drain(ring, mark - 1);  // one under the shared mark
  EXPECT_EQ(bp_->evaluate(1, ring, 6000), ThrottleState::kClear);
  EXPECT_FALSE(bp_->chain_throttled(chain1_));

  // Flap back up: a fresh Watch -> Throttle cycle, counted exactly once
  // more, and the chain throttle refcount returns to 1, not 2.
  fill(ring, mark, /*when=*/6000);
  EXPECT_EQ(bp_->evaluate(1, ring, 6010), ThrottleState::kWatch);
  EXPECT_EQ(bp_->evaluate(1, ring, 20000), ThrottleState::kThrottle);
  EXPECT_EQ(bp_->stats().throttle_entries, 2u);
  EXPECT_EQ(bp_->stats().throttle_clears, 1u);
  EXPECT_TRUE(bp_->chain_throttled(chain1_));
  drain(ring, mark - 1);
  bp_->evaluate(1, ring, 21000);
  EXPECT_FALSE(bp_->chain_throttled(chain1_));
  drain(ring, 0);
}

TEST_F(BackpressureTest, LowAboveHighIsClampedNotInverted) {
  // A misconfigured LOW > HIGH must not create a band where a queue is
  // simultaneously "above high" and "below low" (Watch would oscillate per
  // scan). The ring clamps LOW down to HIGH.
  pktio::Ring ring(64, 0.5, 0.9);
  EXPECT_LE(ring.low_watermark(), ring.high_watermark());
  fill(ring, ring.high_watermark(), 0);
  EXPECT_FALSE(ring.below_low_watermark());
  EXPECT_EQ(bp_->evaluate(1, ring, 10), ThrottleState::kWatch);
  EXPECT_EQ(bp_->evaluate(1, ring, 5000), ThrottleState::kThrottle);
  drain(ring, 0);
  EXPECT_EQ(bp_->evaluate(1, ring, 6000), ThrottleState::kClear);
}

TEST_F(BackpressureTest, ChainHeadThrottleShedsAtEntryNotUpstream) {
  // NF0 is the FIRST hop of both chains: when it throttles there is no
  // upstream NF to pause — relief comes purely from selective early
  // discard at the entry point. The throttler itself must keep running to
  // drain, and its *downstream* NFs must not be paused either.
  pktio::Ring ring(64, 0.8, 0.6);
  fill(ring, 52, 0);
  bp_->evaluate(0, ring, 10);
  bp_->evaluate(0, ring, 5000);
  ASSERT_EQ(bp_->state(0), ThrottleState::kThrottle);

  // Both chains enter through NF0: both get shed at the wire.
  EXPECT_TRUE(bp_->chain_throttled(chain1_));
  EXPECT_TRUE(bp_->chain_throttled(chain2_));

  // Nobody is upstream of the head; nobody downstream is paused.
  EXPECT_FALSE(bp_->should_pause_upstream(0));
  EXPECT_FALSE(bp_->should_pause_upstream(1));
  EXPECT_FALSE(bp_->should_pause_upstream(2));
  EXPECT_FALSE(bp_->should_pause_upstream(3));
  drain(ring, 0);
}

TEST_F(BackpressureTest, EnqueueFeedbackIgnoresUnknownNf) {
  // The manager guards, but the API must also be safe standalone.
  bp_->on_enqueue_feedback(99, pktio::EnqueueResult::kOkOverloaded);
  for (flow::NfId nf = 0; nf < 4; ++nf) {
    EXPECT_EQ(bp_->state(nf), ThrottleState::kClear);
  }
}

TEST_F(BackpressureTest, FeedbackDoesNotDemoteWatchOrThrottle) {
  pktio::Ring ring(64, 0.8, 0.6);
  fill(ring, 52, 0);
  bp_->evaluate(1, ring, 10);
  bp_->evaluate(1, ring, 5000);
  ASSERT_EQ(bp_->state(1), ThrottleState::kThrottle);
  // A later kOk enqueue (queue drained below HIGH between scans) must not
  // short-circuit the hysteresis — only evaluate() clears.
  bp_->on_enqueue_feedback(1, pktio::EnqueueResult::kOk);
  EXPECT_EQ(bp_->state(1), ThrottleState::kThrottle);
  drain(ring, 0);
}

TEST_F(BackpressureTest, ObservabilityCountsTransitionsPerNf) {
  obs::Observability obs;
  obs::TraceRecorder trace;
  obs.attach_trace(&trace);
  bp_->set_observability(&obs, {"NF0", "NF1", "NF2", "NF3"});

  pktio::Ring ring(64, 0.8, 0.6);
  fill(ring, 52, 0);
  bp_->evaluate(1, ring, 10);     // Clear -> Watch
  bp_->evaluate(1, ring, 5000);   // Watch -> Throttle
  drain(ring, 0);
  bp_->evaluate(1, ring, 6000);   // Throttle -> Clear

  const auto watches =
      obs.metrics().sample("bp.watch_entries", {{"nf", "NF1"}});
  const auto throttles =
      obs.metrics().sample("bp.throttle_entries", {{"nf", "NF1"}});
  const auto clears =
      obs.metrics().sample("bp.throttle_clears", {{"nf", "NF1"}});
  ASSERT_TRUE(watches.has_value());
  ASSERT_TRUE(throttles.has_value());
  ASSERT_TRUE(clears.has_value());
  EXPECT_EQ(*watches, 1.0);
  EXPECT_EQ(*throttles, 1.0);
  EXPECT_EQ(*clears, 1.0);
  // NF2 never transitioned.
  const auto nf2_watches =
      obs.metrics().sample("bp.watch_entries", {{"nf", "NF2"}});
  ASSERT_TRUE(nf2_watches.has_value());
  EXPECT_EQ(*nf2_watches, 0.0);

  // The full CLEAR -> WATCH -> THROTTLE -> CLEAR arc landed in the trace,
  // on the backpressure lane, in order.
  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.events()[0].lane, obs::kBackpressureLane);
  EXPECT_EQ(trace.decode(trace.events()[0]).args[1].second, "CLEAR");
  EXPECT_EQ(trace.decode(trace.events()[0]).args[2].second, "WATCH");
  EXPECT_EQ(trace.decode(trace.events()[1]).args[2].second, "THROTTLE");
  EXPECT_EQ(trace.decode(trace.events()[2]).args[2].second, "CLEAR");
}

// --- sharded-simulation mirror hooks (DESIGN.md §14) ---

TEST_F(BackpressureTest, RemoteThrottleMarksChainsWithoutStats) {
  // NF1 throttles on some other lane; this lane's mirror must shed chain1
  // at the entry but record nothing in its own stats (those belong to the
  // owning lane, which already counted the transition).
  bp_->apply_remote_state(1, ThrottleState::kThrottle);
  EXPECT_EQ(bp_->state(1), ThrottleState::kThrottle);
  EXPECT_TRUE(bp_->chain_throttled(chain1_));
  EXPECT_FALSE(bp_->chain_throttled(chain2_));
  EXPECT_EQ(bp_->stats().throttle_entries, 0u);

  bp_->apply_remote_state(1, ThrottleState::kClear);
  EXPECT_EQ(bp_->state(1), ThrottleState::kClear);
  EXPECT_FALSE(bp_->chain_throttled(chain1_));
  EXPECT_EQ(bp_->stats().throttle_clears, 0u);
}

TEST_F(BackpressureTest, RemoteStateIsIdempotentOnRefcounts) {
  // A repeated remote THROTTLE must not double-count the shared-NF chain
  // refcounts — one CLEAR must fully release both chains.
  bp_->apply_remote_state(3, ThrottleState::kThrottle);
  bp_->apply_remote_state(3, ThrottleState::kThrottle);
  EXPECT_TRUE(bp_->chain_throttled(chain1_));
  EXPECT_TRUE(bp_->chain_throttled(chain2_));
  bp_->apply_remote_state(3, ThrottleState::kClear);
  EXPECT_FALSE(bp_->chain_throttled(chain1_));
  EXPECT_FALSE(bp_->chain_throttled(chain2_));
}

TEST_F(BackpressureTest, RemoteWatchTouchesNoChainState) {
  bp_->apply_remote_state(1, ThrottleState::kWatch);
  EXPECT_EQ(bp_->state(1), ThrottleState::kWatch);
  EXPECT_FALSE(bp_->chain_throttled(chain1_));
  // Watch -> Clear remotely: still no refcount underflow.
  bp_->apply_remote_state(1, ThrottleState::kClear);
  EXPECT_FALSE(bp_->chain_throttled(chain1_));
}

TEST_F(BackpressureTest, ListenerFiresOnLocalTransitionsOnly) {
  struct Seen {
    flow::NfId nf;
    ThrottleState to;
    Cycles now;
  };
  std::vector<Seen> seen;
  bp_->set_state_listener([&seen](flow::NfId nf, ThrottleState to, Cycles now) {
    seen.push_back({nf, to, now});
  });

  // A mirrored remote transition must NOT re-fire the listener (it would
  // echo forever between lanes).
  bp_->apply_remote_state(2, ThrottleState::kThrottle);
  EXPECT_TRUE(seen.empty());

  // A real local arc fires it once per transition, in order.
  pktio::Ring ring(64, 0.8, 0.6);
  fill(ring, 52, 0);
  bp_->evaluate(1, ring, 10);
  bp_->evaluate(1, ring, 5000);
  drain(ring, 0);
  bp_->evaluate(1, ring, 6000);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].nf, 1u);
  EXPECT_EQ(seen[0].to, ThrottleState::kWatch);
  EXPECT_EQ(seen[1].to, ThrottleState::kThrottle);
  EXPECT_EQ(seen[1].now, 5000);
  EXPECT_EQ(seen[2].to, ThrottleState::kClear);
}

}  // namespace
}  // namespace nfv::bp
