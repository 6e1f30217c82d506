#include "io/async_io.hpp"

#include <gtest/gtest.h>

namespace nfv::io {
namespace {

BlockDevice::Config slow_disk() {
  BlockDevice::Config cfg;
  cfg.base_latency = 1000;
  cfg.bytes_per_cycle = 1.0;
  return cfg;
}

AsyncIoEngine::Config double_buffered(std::uint64_t buffer_bytes = 1024) {
  AsyncIoEngine::Config cfg;
  cfg.mode = AsyncIoEngine::Mode::kDoubleBuffered;
  cfg.buffer_bytes = buffer_bytes;
  return cfg;
}

TEST(AsyncIo, SmallWritesDoNotBlock) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(1024));
  io.write(100);
  io.write(100);
  EXPECT_FALSE(io.would_block());
  engine.run();
  EXPECT_EQ(io.bytes_written(), 200u);
}

TEST(AsyncIo, BufferFullTriggersFlush) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(1024));
  io.write(1024);  // fills the active buffer exactly
  EXPECT_FALSE(io.would_block());  // swapped to the second buffer
  EXPECT_EQ(io.flushes(), 1u);
  engine.run();
  EXPECT_EQ(dev.requests(), 1u);
  EXPECT_EQ(dev.bytes_transferred(), 1024u);
}

TEST(AsyncIo, BothBuffersFullBlocks) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(1024));
  io.write(1024);  // flush 1 in flight
  io.write(1024);  // second buffer now full too
  EXPECT_TRUE(io.would_block());
  EXPECT_EQ(io.block_transitions(), 1u);
}

TEST(AsyncIo, UnblockCallbackFiresWhenFlushCompletes) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(1024));
  int unblocks = 0;
  io.set_unblock_callback([&] { ++unblocks; });
  io.write(1024);
  io.write(1024);
  ASSERT_TRUE(io.would_block());
  engine.run();
  EXPECT_FALSE(io.would_block());
  EXPECT_EQ(unblocks, 1);
  EXPECT_EQ(dev.requests(), 2u);  // the second buffer flushed back-to-back
}

TEST(AsyncIo, WriteCallbackFiresOnDeviceCompletion) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(100));
  Cycles done_at = -1;
  io.write(100, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_EQ(done_at, 1000 + 100);
}

TEST(AsyncIo, OverlapKeepsComputeRunning) {
  // The double buffer's whole point: with writes below 2x buffer, the
  // caller never observes would_block even while the disk is busy.
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(1000));
  bool ever_blocked = false;
  for (int round = 0; round < 50; ++round) {
    engine.schedule_at(round * 10000, [&] {
      io.write(500);
      ever_blocked |= io.would_block();
    });
  }
  engine.run();
  EXPECT_FALSE(ever_blocked);
  EXPECT_EQ(io.bytes_written(), 25000u);
}

TEST(AsyncIo, SynchronousModeBlocksPerWrite) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine::Config cfg;
  cfg.mode = AsyncIoEngine::Mode::kSynchronous;
  AsyncIoEngine io(engine, dev, cfg);
  int unblocks = 0;
  io.set_unblock_callback([&] { ++unblocks; });
  io.write(10);
  EXPECT_TRUE(io.would_block());
  engine.run();
  EXPECT_FALSE(io.would_block());
  EXPECT_EQ(unblocks, 1);
  io.write(10);
  EXPECT_TRUE(io.would_block());
  engine.run();
  EXPECT_EQ(unblocks, 2);
}

TEST(AsyncIo, ReadsNeverBlock) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(64));
  Cycles read_done = -1;
  io.read(512, [&] { read_done = engine.now(); });
  EXPECT_FALSE(io.would_block());
  engine.run();
  EXPECT_EQ(read_done, 1000 + 512);
  EXPECT_EQ(io.reads(), 1u);
}

TEST(AsyncIo, PeriodicFlushBoundsLatency) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  auto cfg = double_buffered(1 << 20);  // never fills
  cfg.flush_interval = 5000;
  AsyncIoEngine io(engine, dev, cfg);
  Cycles done_at = -1;
  io.write(10, [&] { done_at = engine.now(); });
  engine.run_until(100'000);
  // Flushed by the timer at t=5000, completes 1010 cycles later.
  EXPECT_EQ(done_at, 5000 + 1000 + 10);
}

TEST(AsyncIo, AccumulatedBytesFlushAsOneBatch) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(1000));
  for (int i = 0; i < 10; ++i) io.write(100);  // exactly one buffer
  engine.run();
  EXPECT_EQ(dev.requests(), 1u);  // batched, not 10 requests
  EXPECT_EQ(dev.bytes_transferred(), 1000u);
  EXPECT_EQ(io.writes(), 10u);
}

// -- storage fault domain (DESIGN.md §12) ------------------------------------

TEST(AsyncIoFault, DeviceErrorRetriesWithBackoffThenSucceeds) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(1024));
  io.set_retry(/*max_attempts=*/2, /*backoff=*/1000, /*multiplier=*/2.0,
               /*jitter=*/0.0);
  dev.inject_device_fault(fault::DeviceFaultKind::kError, 0.0);
  engine.schedule_at(2500, [&] {
    dev.restore_device_fault(fault::DeviceFaultKind::kError);
  });
  Cycles done_at = -1;
  io.write(1024, [&] { done_at = engine.now(); });
  engine.run();
  // Attempt 1 errors at 1000+1024 = 2024; with zero jitter the retry is
  // re-issued at 3024 and completes healthy 2024 cycles later.
  EXPECT_EQ(done_at, 5048);
  EXPECT_EQ(io.retries(), 1u);
  EXPECT_EQ(io.failures(), 0u);
  EXPECT_EQ(io.dropped_writes(), 0u);
  EXPECT_FALSE(io.degraded());
  EXPECT_EQ(io.live_requests(), 0u);
}

TEST(AsyncIoFault, WedgeTimesOutExhaustsBudgetAndShedsDegraded) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(1024));
  io.set_timeout(5000);
  io.set_retry(2, 1000, 2.0, 0.0);
  io.set_on_fail(AsyncIoEngine::OnIoFail::kShed);
  dev.inject_device_fault(fault::DeviceFaultKind::kWedge, 0.0);
  bool write_done = false;
  io.write(1024, [&] { write_done = true; });
  EXPECT_EQ(io.live_requests(), 1u);
  engine.run_until(12'000);
  // Deadline at 5000, retry at 6000, deadline again at 11000: budget gone.
  EXPECT_EQ(io.timeouts(), 2u);
  EXPECT_EQ(io.retries(), 1u);
  EXPECT_EQ(io.failures(), 1u);
  EXPECT_TRUE(io.degraded());
  EXPECT_EQ(io.degraded_entries(), 1u);
  EXPECT_EQ(io.dropped_writes(), 1u);
  EXPECT_EQ(io.shed_bytes(), 1024u);
  EXPECT_FALSE(io.would_block());  // shed mode never blocks the NF
  EXPECT_FALSE(write_done);        // the data was lost, not delivered
  // The timed-out attempts were withdrawn from the device too.
  EXPECT_EQ(dev.cancelled_requests(), 2u);
}

TEST(AsyncIoFault, BlockedNfResumesExactlyOnceAfterWedgeClears) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(1024));
  io.set_timeout(5000);
  io.set_retry(2, 1000, 2.0, 0.0);
  io.set_on_fail(AsyncIoEngine::OnIoFail::kBlock);
  int unblocks = 0;
  io.set_unblock_callback([&] { ++unblocks; });
  dev.inject_device_fault(fault::DeviceFaultKind::kWedge, 0.0);
  io.write(1024);  // flush 1, held by the wedge
  io.write(1024);  // second buffer full: the NF must yield
  ASSERT_TRUE(io.would_block());
  // Budget exhausts at 11000 (parked, degraded); the device recovers at
  // 12000 and the next recovery probe re-issues the parked flush.
  engine.schedule_at(12'000, [&] {
    dev.restore_device_fault(fault::DeviceFaultKind::kWedge);
  });
  engine.run();
  EXPECT_FALSE(io.would_block());
  EXPECT_EQ(unblocks, 1);  // resumed exactly once
  EXPECT_FALSE(io.degraded());
  EXPECT_EQ(io.dropped_writes(), 0u);  // parked data was delivered, not lost
  EXPECT_EQ(io.bytes_written(), 2048u);
  EXPECT_EQ(io.live_requests(), 0u);
  EXPECT_GE(io.probes(), 1u);
}

TEST(AsyncIoFault, ReadFailureCallbackFiresAfterRetryBudget) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(1024));
  io.set_retry(2, 1000, 2.0, 0.0);
  dev.inject_device_fault(fault::DeviceFaultKind::kError, 0.0);
  bool done = false, failed = false;
  io.read(100, [&] { done = true; }, [&] { failed = true; });
  engine.run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(failed);  // the caller observes the error instead of hanging
  EXPECT_EQ(io.failures(), 1u);
  EXPECT_EQ(io.retries(), 1u);
  EXPECT_FALSE(io.degraded());  // reads don't degrade the write path
}

// set_retry takes any multiplier: a backoff past Cycles' range saturates
// instead of converting an out-of-range double (undefined behaviour), and
// the retry is still scheduled at a representable time.
TEST(AsyncIoFault, HugeBackoffMultiplierSaturates) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  AsyncIoEngine io(engine, dev, double_buffered(1024));
  io.set_retry(3, 1000, 1e30, 0.0);
  dev.inject_device_fault(fault::DeviceFaultKind::kError, 0.0);
  bool done = false, failed = false;
  io.read(100, [&] { done = true; }, [&] { failed = true; });
  engine.run();
  EXPECT_FALSE(done);
  EXPECT_TRUE(failed);
  EXPECT_EQ(io.retries(), 2u);
  // The second delay, 1000 * 1e30 cycles, waited the 2^62-cycle cap.
  EXPECT_GE(engine.now(), Cycles{1} << 62);
}

TEST(AsyncIoFault, DestructorCancelsInFlightRequestsAndDeadlines) {
  sim::Engine engine;
  BlockDevice dev(engine, slow_disk());
  {
    auto cfg = double_buffered(1024);
    cfg.flush_interval = 5000;
    AsyncIoEngine io(engine, dev, cfg);
    io.set_timeout(5000);
    io.write(1024);  // flush in flight with an armed deadline
    EXPECT_EQ(dev.inflight_requests(), 1u);
  }
  // The engine is gone: its device request was withdrawn and no deadline,
  // retry, flush-timer or probe event may fire into freed memory.
  EXPECT_EQ(dev.cancelled_requests(), 1u);
  engine.run();  // must terminate without touching the dead engine
  EXPECT_EQ(dev.inflight_requests(), 0u);
}

}  // namespace
}  // namespace nfv::io
