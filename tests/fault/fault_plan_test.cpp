#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace nfv::fault {
namespace {

TEST(FaultPlan, EmptyByDefault) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.specs().size(), 0u);
}

TEST(FaultPlan, AddAllKinds) {
  FaultPlan plan;
  plan.add_crash(/*nf=*/0, /*at=*/1000, /*restart_after=*/500);
  plan.add_stall(/*nf=*/1, /*at=*/2000);
  plan.add_degrade(/*nf=*/2, /*at=*/3000, /*factor=*/2.5, /*duration=*/400);
  ASSERT_EQ(plan.specs().size(), 3u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::kStall);
  EXPECT_EQ(plan.specs()[1].restart_after, kDefaultRestart);
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::kDegrade);
  EXPECT_DOUBLE_EQ(plan.specs()[2].factor, 2.5);
}

TEST(FaultPlan, RejectsNonPositiveRestart) {
  FaultPlan plan;
  EXPECT_THROW(plan.add_crash(0, 1000, 0), FaultError);
  // The sentinel (use the manager's default delay) is accepted.
  plan.add_crash(0, 1000, kDefaultRestart);
  EXPECT_EQ(plan.specs().size(), 1u);
}

TEST(FaultPlan, RejectsBadDegradeParameters) {
  FaultPlan plan;
  EXPECT_THROW(plan.add_degrade(0, 1000, /*factor=*/0.0, 100), FaultError);
  EXPECT_THROW(plan.add_degrade(0, 1000, /*factor=*/-2.0, 100), FaultError);
  // Zero duration means "until the end of the run" and is fine.
  plan.add_degrade(0, 1000, 2.0, 0);
  EXPECT_EQ(plan.specs().size(), 1u);
}

// A slow-down factor is bounded like io_retry's multiplier: beyond it a
// scaled service or setup time leaves Cycles' range. NaN fails every
// comparison, so it must be refused too.
TEST(FaultPlan, RejectsSlowFactorsOutsideTheirRange) {
  FaultPlan plan;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double factor : {1e300, 2 * kMaxSlowFactor, nan}) {
    EXPECT_THROW(plan.add_degrade(0, 1000, factor, 100), FaultError) << factor;
    EXPECT_THROW(plan.add_device_slow(1000, factor, 100), FaultError)
        << factor;
  }
  EXPECT_TRUE(plan.empty());
  plan.add_degrade(0, 1000, kMaxSlowFactor, 100);
  plan.add_device_slow(1000, kMaxSlowFactor, 100);
  EXPECT_EQ(plan.size(), 2u);
}

TEST(FaultPlan, RejectsOverlappingWindowsOnOneNf) {
  FaultPlan plan;
  plan.add_degrade(/*nf=*/0, /*at=*/1000, 2.0, /*duration=*/500);
  // [1200, ...) starts inside [1000, 1500).
  EXPECT_THROW(plan.add_crash(0, 1200, 100), FaultError);
  // Same instant on the same NF also overlaps.
  EXPECT_THROW(plan.add_stall(0, 1000), FaultError);
  // A different NF at the same time is fine, as is the same NF after the
  // window closes.
  plan.add_crash(/*nf=*/1, 1200, 100);
  plan.add_stall(/*nf=*/0, /*at=*/1500);
  EXPECT_EQ(plan.specs().size(), 3u);
}

TEST(FaultPlan, CrashWindowsRunUntilTheRestart) {
  FaultPlan plan;
  plan.add_crash(0, 1000, 100);  // nominal outage [1000, 1100)
  EXPECT_THROW(plan.add_crash(0, 1050, 100), FaultError);
  plan.add_crash(0, 1100, 100);  // back-to-back is fine (half-open windows)
  EXPECT_EQ(plan.specs().size(), 2u);
}

TEST(FaultPlan, DefaultRestartIsOpenEnded) {
  FaultPlan plan;
  plan.add_stall(0, 1000);  // restart delay unknown here: window [1000, inf)
  EXPECT_THROW(plan.add_crash(0, 1'000'000'000, 100), FaultError);
  EXPECT_EQ(plan.specs().size(), 1u);
}

// -- storage fault domain (DESIGN.md §12) ------------------------------------

TEST(FaultPlanDevice, AddAllDeviceKinds) {
  FaultPlan plan;
  plan.add_device_slow(1000, 8.0, 500);
  plan.add_device_error(2000, 500);
  plan.add_device_torn(3000, 0.5, 500);
  plan.add_device_wedge(4000, 500);
  EXPECT_EQ(plan.size(), 4u);
  for (const FaultSpec& spec : plan.specs()) {
    EXPECT_EQ(spec.kind, FaultKind::kDevice);
  }
  EXPECT_EQ(plan.specs()[0].device, DeviceFaultKind::kSlow);
  EXPECT_DOUBLE_EQ(plan.specs()[0].factor, 8.0);
  EXPECT_EQ(plan.specs()[3].device, DeviceFaultKind::kWedge);
}

TEST(FaultPlanDevice, NfOnlyPlanHasNoDeviceFaults) {
  FaultPlan plan;
  plan.add_crash(0, 1000, 100);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kCrash);
}

TEST(FaultPlanDevice, RejectsBadParameters) {
  FaultPlan plan;
  EXPECT_THROW(plan.add_device_slow(1000, /*factor=*/0.0, 100), FaultError);
  EXPECT_THROW(plan.add_device_slow(1000, /*factor=*/-3.0, 100), FaultError);
  EXPECT_THROW(plan.add_device_torn(1000, /*fraction=*/-0.1, 100), FaultError);
  // A torn window landing all the bytes is not torn; the fraction must be
  // strictly below 1.
  EXPECT_THROW(plan.add_device_torn(1000, /*fraction=*/1.0, 100), FaultError);
  EXPECT_THROW(plan.add_device_wedge(-5, 100), FaultError);
  EXPECT_TRUE(plan.empty());
  plan.add_device_torn(1000, /*fraction=*/0.0, 100);  // nothing lands: valid
  EXPECT_EQ(plan.size(), 1u);
}

TEST(FaultPlanDevice, RejectsOverlappingDeviceWindows) {
  FaultPlan plan;
  plan.add_device_wedge(1000, 500);  // [1000, 1500)
  EXPECT_THROW(plan.add_device_error(1200, 100), FaultError);
  EXPECT_THROW(plan.add_device_slow(1000, 2.0, 100), FaultError);
  // Half-open windows: back-to-back is fine.
  plan.add_device_error(1500, 100);
  EXPECT_EQ(plan.size(), 2u);
}

TEST(FaultPlanDevice, PermanentWindowBlocksEverythingAfter) {
  FaultPlan plan;
  plan.add_device_wedge(1000);  // duration 0: wedged until the end
  EXPECT_THROW(plan.add_device_error(1'000'000'000, 100), FaultError);
  EXPECT_EQ(plan.size(), 1u);
}

TEST(FaultPlanDevice, DeviceWindowsAreSeparateFromNfWindows) {
  FaultPlan plan;
  plan.add_degrade(/*nf=*/0, 1000, 2.0, 500);
  // The device is its own overlap domain: a device window under an NF
  // window is fine (and vice versa).
  plan.add_device_wedge(1000, 500);
  plan.add_crash(/*nf=*/1, 1200, 100);
  EXPECT_EQ(plan.size(), 3u);
}

TEST(FaultSpec, WindowEnd) {
  FaultSpec crash{FaultKind::kCrash, 0, 1000, 500, 1.0, 0};
  EXPECT_EQ(crash.window_end(), 1500);
  FaultSpec degrade{FaultKind::kDegrade, 0, 1000, kDefaultRestart, 2.0, 300};
  EXPECT_EQ(degrade.window_end(), 1300);
}

}  // namespace
}  // namespace nfv::fault
