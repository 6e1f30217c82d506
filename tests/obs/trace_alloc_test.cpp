// Heap allocations made while recording trace events. This binary replaces
// the global operator new to count them, so it holds no other tests.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <string>

#include "obs/trace.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a new-expression's caller, GCC would pair the
// free() with that operator new and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace nfv::obs {
namespace {

TEST(TraceRecorderAllocations, GrowOnlyWithTheEventStorage) {
  TraceRecorder rec;
  const std::string task = "NF1-low-cost-task";  // longer than SSO
  const auto record = [&](Cycles i) {
    rec.instant(i, 0, "sched", "ctx_switch", {{"from", task}, {"to", "NF2"}},
                {{"cost_cycles", i}});
    rec.counter(i, kManagerLane, "mgr", "cpu_shares", task, i);
    rec.instant(i, kBackpressureLane, "bp", "bp_transition",
                {{"nf", task}, {"from", "CLEAR"}, {"to", "WATCH"}},
                {{"qlen", i}});
  };
  record(0);  // warm-up: every string is interned
  constexpr std::size_t kEvents = 10'000;
  const std::size_t before = g_allocations.load();
  for (std::size_t i = 1; i <= kEvents / 3; ++i) {
    record(static_cast<Cycles>(i));
  }
  const std::size_t allocations = g_allocations.load() - before;
  ASSERT_EQ(rec.events().size(), 3 + 3 * (kEvents / 3));
  // Only the event vector's geometric growth allocates: O(log n), where
  // one std::string or std::vector per event would be thousands.
  EXPECT_LE(allocations, std::bit_width(kEvents)) << allocations;
  EXPECT_GT(allocations, 0u);
}

}  // namespace
}  // namespace nfv::obs
