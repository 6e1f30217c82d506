// Topology configuration files (§3.1).
//
// "Service chains can be configured during system startup using simple
// configuration files or from an external orchestrator such as an SDN
// controller." This loader is that path: a line-oriented format declaring
// cores, NFs, chains and traffic, applied to a Simulation. The same calls
// an SDN controller would make through the facade are driven from text:
//
//   # comment
//   mode nfvnice              # or: default | cgroup | backpressure
//   core batch                # or: core normal | core rr <quantum_ms>
//   nf nat0 core=0 cost=270 priority=2.0
//   nf dpi0 core=0 cost=550
//   chain web nat0 dpi0
//   udp web rate=6e6 size=64 start=0 stop=1.5
//   tcp web size=1500 rtt_us=200
//   fault crash dpi0 at=0.5 restart_after=0.01   # fault model, DESIGN.md §11
//   fault stall nat0 at=0.2                      # watchdog-killed straggler
//   fault slow dpi0 at=0.1 factor=3 for=0.2      # 3x service time for 200 ms
//   on_dead web bypass                           # or: backpressure | buffer
//   slo web target_us=150                        # tail-latency SLO, §16
//   class web priority=2 utility=5               # flow class, §17
//   io nat0 mode=async buffer=262144 flush_us=500  # §3.4 async-I/O engine
//   io_timeout nat0 us=100                       # storage fault domain,
//   io_retry nat0 max=4 backoff_us=10 multiplier=2 jitter=0.1  # DESIGN.md §12
//   on_io_fail nat0 shed                         # or: block | stuck
//   device_fault wedge at=0.2 for=0.1            # or: slow factor=8 |
//                                                #  error | torn fraction=0.5
//
// Identifiers are declared before use; errors carry line numbers and name
// the offending key or word.
//
// Arity: each directive declares how many positional arguments follow it
// (`chain` takes a name and one or more NFs, `core` a policy and, for rr
// only, a quantum, `on_io_fail`/`on_dead` a name and a policy, `fault` a
// kind and an NF, every other directive one). A directive with key=value
// options takes exactly its positional arguments first; a trailing token
// that is not key=value, or any extra token on a directive without
// options, is an error, never ignored.
//
// Options: each directive has one table of key=value options, parsed by one
// loop. An unknown key is an error; an omitted key leaves the facade's
// default untouched; a few are required (nf core, io_timeout us, io_retry
// backoff_us, fault/device_fault at, slo target_us, and the factor or
// fraction of a slow or torn fault). Each option has a kind, and its
// kind's checks (numbers must be finite, no nan/inf):
//   count      an integer in [min, the field type's max]: cost, size,
//              classes, buffer (min 0); batch, io_retry max (min 1)
//   real       a number in [lo, hi): io_retry jitter in [0, 1); fault and
//              device_fault factor, fraction (the fault plan checks these)
//   positive   a number in (0, max]: rate (no max); nf priority, class
//              priority and utility, io_retry multiplier in (0, 1000]
//   time       a time, stored as cycles (flush_us, us, backoff_us, at,
//              for, restart_after) or passed on to a facade that converts
//              it (start, stop, rtt_us, target_us; the rr quantum):
//              negative values, and values whose cycle count does not fit
//              in Cycles, are refused through one checked conversion;
//              io_timeout us and io_retry backoff_us must be above 0
//   enum       one of a fixed set of words: io mode (positional words —
//              mode, core policy, on_io_fail, on_dead and the fault kinds —
//              go through the same lookup)
//   name       a name an earlier line declared: nf core
// Fault plans are validated as they are built (non-positive restart delays
// or factors, and overlapping fault windows on one NF or the device, are
// rejected with the offending line).
// The io_timeout / io_retry / on_io_fail directives require the NF's `io`
// line first.
#pragma once

#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>

#include "core/simulation.hpp"

namespace nfv::config {

/// Thrown on malformed input; what() includes the offending line number.
class ConfigError : public std::runtime_error {
 public:
  ConfigError(int line, const std::string& message)
      : std::runtime_error("config line " + std::to_string(line) + ": " +
                           message),
        line_(line) {}
  [[nodiscard]] int line() const { return line_; }

 private:
  int line_;
};

/// Handles created while applying a config, addressable by name.
struct Topology {
  std::map<std::string, std::size_t> cores;       ///< by index name "0","1"...
  std::map<std::string, flow::NfId> nfs;
  std::map<std::string, flow::ChainId> chains;
  std::map<std::string, flow::FlowId> flows;      ///< "udp0", "tcp1", ...
  /// Async-I/O engines attached via `io <nf> ...`, by NF name (not owned).
  std::map<std::string, io::AsyncIoEngine*> ios;
};

/// Parse `in` and apply it to `sim`. `mode` lines override the
/// PlatformConfig toggles the Simulation was built with. Throws
/// ConfigError on malformed input.
Topology load(std::istream& in, core::Simulation& sim);

/// Convenience: parse a string.
Topology load_string(const std::string& text, core::Simulation& sim);

}  // namespace nfv::config
