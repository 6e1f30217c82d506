// NF lifecycle model: states, policies and watchdog timings.
//
// The Manager's lifecycle watchdog (mgr/lifecycle.hpp), armed by a fault
// plan, drives every NF through a small state machine (DESIGN.md §11):
//
//   RUNNING ──(watchdog sees task.dead(), <= 1 period)──▶ DEAD
//   RUNNING ──(STUCK: on-CPU, no progress, kStuckScans scans)──▶ DEAD
//   DEAD ──(restart delay elapsed)──▶ RESTARTING
//   RESTARTING ──(cold-state reload completes)──▶ WARMING
//   WARMING ──(kWarmDuration elapsed)──▶ RUNNING
//
// RESTARTING performs the cold-state reload through the NF's async I/O
// engine when one is attached (the §3.4 double-buffered path), otherwise a
// fixed reload latency stands in. While an NF is down, its service chains
// degrade according to a per-chain DeadNfPolicy. All transitions are
// ordinary engine events, so faulted runs stay byte-for-byte deterministic.
#pragma once

#include <cstdint>

#include "common/time.hpp"

namespace nfv::fault {

enum class NfLifecycle {
  kRunning,     ///< Healthy; the scheduler may run it.
  kDead,        ///< Process gone; awaiting the restart delay.
  kRestarting,  ///< Cold-state reload in flight (async I/O read).
  kWarming,     ///< Revived; caches cold, estimator in warm-up discard.
};

const char* to_string(NfLifecycle state);

/// What happens to a chain's packets while an NF on it is down.
enum class DeadNfPolicy {
  /// Treat the dead NF as an over-watermark queue: pin its Fig. 4 state to
  /// THROTTLE so the chain is shed at the system entry, with the normal
  /// hysteresis on recovery (entry drops continue until the revived NF
  /// drains its backlog below the low watermark). Requires backpressure to
  /// be enabled — under the Default configuration packets instead pile
  /// into the dead NF's ring and die there (the availability bench's A/B).
  kBackpressure,
  /// Route packets around dead hops (detection onward); a chain whose
  /// every hop is dead degrades to a pass-through wire.
  kBypass,
  /// Do nothing: packets queue in the dead NF's ring (rings live in
  /// manager-owned shared memory and survive the process) and wait for the
  /// restart. Only the in-flight burst is lost.
  kBuffer,
};

const char* to_string(DeadNfPolicy policy);

// Watchdog and lifecycle timings at the 2.6 GHz reference clock. The
// detection-latency bounds in DESIGN.md §11 rest on them, and
// Lifecycle.ConfigDefaults pins them.
/// Watchdog scan period; bounds death-detection latency to one period and
/// stuck detection to (kStuckScans + 1) periods. 100 us.
inline constexpr Cycles kWatchdogPeriod = 260'000;
/// Consecutive scans an NF must be on-CPU without progress before the
/// watchdog declares it STUCK and force-crashes it. Progress is counted per
/// packet, also inside a run-to-completion burst (NfTask::progress), so the
/// bound is per packet at any burst window: kStuckScans * kWatchdogPeriod
/// (780k cycles) must exceed the largest single-packet service time, or a
/// legitimately slow packet reads as a hang.
inline constexpr std::uint32_t kStuckScans = 3;
/// Restart delay applied when the fault plan does not specify one. 1 ms.
inline constexpr Cycles kDefaultRestartDelay = 2'600'000;
/// Cold-state reload size, read through the NF's async I/O engine.
inline constexpr std::uint64_t kReloadBytes = 256 * 1024;
/// Reload stand-in latency for NFs without an I/O engine. 0.5 ms.
inline constexpr Cycles kReloadLatency = 1'300'000;
/// WARMING dwell before the NF counts as recovered. 1 ms.
inline constexpr Cycles kWarmDuration = 2'600'000;
/// Chain policy when none was set explicitly.
inline constexpr DeadNfPolicy kDefaultDeadPolicy = DeadNfPolicy::kBackpressure;

/// Per-NF lifecycle accounting (exported via obs and report_json).
struct NfLifecycleStats {
  std::uint64_t crashes = 0;         ///< Deaths detected (incl. forced).
  std::uint64_t forced_crashes = 0;  ///< Watchdog kills of STUCK NFs.
  std::uint64_t restarts = 0;        ///< Cold reloads begun.
  std::uint64_t recoveries = 0;      ///< WARMING -> RUNNING completions.
  Cycles downtime_cycles = 0;        ///< Total detection -> recovery time.
  Cycles last_detect_latency = 0;    ///< Injection -> detection, last death.
};

}  // namespace nfv::fault
