#include "io/block_device.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace nfv::io {
namespace {

BlockDevice::Config fast_config() {
  BlockDevice::Config cfg;
  cfg.base_latency = 100;
  cfg.bytes_per_cycle = 1.0;
  return cfg;
}

TEST(BlockDevice, CompletionAfterLatencyPlusTransfer) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  Cycles done_at = -1;
  dev.submit(50, [&](const IoResult&) { done_at = engine.now(); });
  engine.run();
  EXPECT_EQ(done_at, 150);  // 100 latency + 50 bytes at 1 B/cycle
}

TEST(BlockDevice, RequestsServicedSerially) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  Cycles first = -1, second = -1;
  dev.submit(100, [&](const IoResult&) { first = engine.now(); });
  dev.submit(100, [&](const IoResult&) { second = engine.now(); });
  engine.run();
  EXPECT_EQ(first, 200);
  EXPECT_EQ(second, 400);  // queued behind the first
}

TEST(BlockDevice, CompletionOrderIsFifo) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  std::vector<int> order;
  dev.submit(1000, [&](const IoResult&) { order.push_back(1); });
  dev.submit(1, [&](const IoResult&) { order.push_back(2); });  // small but behind
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(BlockDevice, IdleGapResetsQueue) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  Cycles done = -1;
  dev.submit(100, [](const IoResult&) {});
  engine.run();
  // Device idle since t=200; a request at t=1000 starts immediately.
  engine.schedule_at(1000, [&] { dev.submit(10, [&](const IoResult&) { done = engine.now(); }); });
  engine.run();
  EXPECT_EQ(done, 1110);
}

TEST(BlockDevice, StatsAccumulate) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  dev.submit(10, [](const IoResult&) {});
  dev.submit(20, [](const IoResult&) {});
  engine.run();
  EXPECT_EQ(dev.requests(), 2u);
  EXPECT_EQ(dev.bytes_transferred(), 30u);
  EXPECT_EQ(dev.busy_cycles(), 100 + 10 + 100 + 20);
}

TEST(BlockDevice, BandwidthTermScales) {
  sim::Engine engine;
  BlockDevice::Config cfg;
  cfg.base_latency = 0;
  cfg.bytes_per_cycle = 0.5;
  BlockDevice dev(engine, cfg);
  Cycles done = -1;
  dev.submit(100, [&](const IoResult&) { done = engine.now(); });
  engine.run();
  EXPECT_EQ(done, 200);  // 100 B at 0.5 B/cycle
}

// -- storage fault domain (DESIGN.md §12) ------------------------------------

TEST(BlockDeviceFault, SlowWindowScalesSetupLatency) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  dev.inject_device_fault(fault::DeviceFaultKind::kSlow, 3.0);
  Cycles slow = -1, healthy = -1;
  IoResult last;
  dev.submit(50, [&](const IoResult& r) { slow = engine.now(); last = r; });
  engine.run();
  EXPECT_EQ(slow, 350);  // 3 * 100 setup + 50 transfer
  EXPECT_TRUE(last.ok());
  EXPECT_EQ(last.bytes_done, 50u);

  dev.restore_device_fault(fault::DeviceFaultKind::kSlow);
  dev.submit(50, [&](const IoResult&) { healthy = engine.now(); });
  engine.run();
  EXPECT_EQ(healthy, 350 + 150);  // back to the exact integer path
}

TEST(BlockDeviceFault, HugeSlowFactorSaturatesTheSchedule) {
  // The setup latency saturates at 2^62 cycles instead of overflowing its
  // conversion, and a request queued behind it is due at the end of time
  // rather than past it.
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  dev.inject_device_fault(fault::DeviceFaultKind::kSlow, 1e300);
  dev.submit(50, [](const IoResult&) {});
  EXPECT_EQ(dev.busy_cycles(), (Cycles{1} << 62) + 50);
  dev.submit(50, [](const IoResult&) {});
  EXPECT_EQ(dev.busy_cycles(), std::numeric_limits<Cycles>::max());
  EXPECT_EQ(dev.inflight_requests(), 2u);
}

TEST(BlockDeviceFault, ErrorWindowFailsWithFullServiceTime) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  dev.inject_device_fault(fault::DeviceFaultKind::kError, 0.0);
  Cycles done = -1;
  IoResult last;
  dev.submit(50, [&](const IoResult& r) { done = engine.now(); last = r; });
  engine.run();
  // The device spins the full service time before reporting the error.
  EXPECT_EQ(done, 150);
  EXPECT_EQ(last.status, IoStatus::kError);
  EXPECT_EQ(last.bytes_done, 0u);
  EXPECT_EQ(dev.failed_requests(), 1u);
}

TEST(BlockDeviceFault, TornWindowReportsPartialBytes) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  dev.inject_device_fault(fault::DeviceFaultKind::kTorn, 0.25);
  IoResult last;
  dev.submit(100, [&](const IoResult& r) { last = r; });
  engine.run();
  EXPECT_EQ(last.status, IoStatus::kTorn);
  EXPECT_EQ(last.bytes_done, 25u);
  EXPECT_EQ(dev.torn_requests(), 1u);
}

TEST(BlockDeviceFault, OutcomeSampledAtServiceStartNotCompletion) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  IoResult last;
  dev.submit(50, [&](const IoResult& r) { last = r; });
  // The window opens while the request is already being serviced: the
  // outcome it observed at service start (healthy) stands.
  engine.schedule_at(
      10, [&] { dev.inject_device_fault(fault::DeviceFaultKind::kError, 0.0); });
  engine.run();
  EXPECT_TRUE(last.ok());
  EXPECT_EQ(dev.failed_requests(), 0u);
}

TEST(BlockDeviceFault, WedgeHoldsInFlightAndRestoreReplaysFifo) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  std::vector<Cycles> done;
  dev.submit(100, [&](const IoResult&) { done.push_back(engine.now()); });
  engine.schedule_at(50, [&] {
    dev.inject_device_fault(fault::DeviceFaultKind::kWedge, 0.0);
    // A wedged device still accepts submissions; they just wait.
    dev.submit(10, [&](const IoResult&) { done.push_back(engine.now()); });
  });
  engine.run();
  EXPECT_TRUE(done.empty());  // nothing completes during the window
  EXPECT_EQ(dev.inflight_requests(), 2u);
  EXPECT_TRUE(dev.wedged());

  engine.schedule_at(
      500, [&] { dev.restore_device_fault(fault::DeviceFaultKind::kWedge); });
  engine.run();
  // Held requests restart from scratch at restore, in submission order.
  EXPECT_EQ(done, (std::vector<Cycles>{700, 810}));
  // The abandoned first attempt still counted as device-busy time.
  EXPECT_EQ(dev.busy_cycles(), 200 + 200 + 110);
  EXPECT_FALSE(dev.wedged());
}

TEST(BlockDeviceFault, CancelSuppressesCallback) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  bool fired = false;
  const auto id = dev.submit(50, [&](const IoResult&) { fired = true; });
  EXPECT_TRUE(dev.cancel(id));
  EXPECT_FALSE(dev.cancel(id));  // already gone
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(dev.cancelled_requests(), 1u);
  EXPECT_EQ(dev.inflight_requests(), 0u);
}

TEST(BlockDeviceFault, CancelWorksOnWedgeHeldRequest) {
  sim::Engine engine;
  BlockDevice dev(engine, fast_config());
  dev.inject_device_fault(fault::DeviceFaultKind::kWedge, 0.0);
  bool fired = false;
  const auto id = dev.submit(50, [&](const IoResult&) { fired = true; });
  EXPECT_TRUE(dev.cancel(id));
  dev.restore_device_fault(fault::DeviceFaultKind::kWedge);
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(dev.inflight_requests(), 0u);
}

}  // namespace
}  // namespace nfv::io
