#include "fault/lifecycle.hpp"

#include <gtest/gtest.h>

namespace nfv::fault {
namespace {

TEST(Lifecycle, StateNames) {
  EXPECT_STREQ(to_string(NfLifecycle::kRunning), "RUNNING");
  EXPECT_STREQ(to_string(NfLifecycle::kDead), "DEAD");
  EXPECT_STREQ(to_string(NfLifecycle::kRestarting), "RESTARTING");
  EXPECT_STREQ(to_string(NfLifecycle::kWarming), "WARMING");
}

TEST(Lifecycle, PolicyNames) {
  EXPECT_STREQ(to_string(DeadNfPolicy::kBackpressure), "backpressure");
  EXPECT_STREQ(to_string(DeadNfPolicy::kBypass), "bypass");
  EXPECT_STREQ(to_string(DeadNfPolicy::kBuffer), "buffer");
}

// The documented watchdog timing bounds (DESIGN.md §11) rest on these
// constants; changing them invalidates the detection-latency guarantees
// stated there, so pin them.
TEST(Lifecycle, ConfigDefaults) {
  EXPECT_EQ(kWatchdogPeriod, 260'000);        // 100 us at 2.6 GHz
  EXPECT_EQ(kStuckScans, 3u);
  EXPECT_EQ(kDefaultRestartDelay, 2'600'000);  // 1 ms
  EXPECT_EQ(kReloadBytes, 256u * 1024);
  EXPECT_EQ(kReloadLatency, 1'300'000);        // 0.5 ms
  EXPECT_EQ(kWarmDuration, 2'600'000);         // 1 ms
  EXPECT_EQ(kDefaultDeadPolicy, DeadNfPolicy::kBackpressure);
}

}  // namespace
}  // namespace nfv::fault
