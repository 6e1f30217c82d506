#include "config/loader.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/lifecycle.hpp"

namespace nfv::config {

namespace {

using Tokens = std::vector<std::string>;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Split a line into whitespace-separated tokens.
/// A token starting with '#' begins a comment that runs to the line's end.
Tokens tokenize(const std::string& line) {
  Tokens tokens;
  std::istringstream iss(line);
  for (std::string t; iss >> t && t[0] != '#';) tokens.push_back(t);
  return tokens;
}

/// A finite number spanning the whole token; `nan` and `inf` are refused.
double parse_double(int line, const std::string& value,
                    const std::string& what) {
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size() || !std::isfinite(parsed)) {
      throw std::invalid_argument(value);
    }
    return parsed;
  } catch (const std::exception&) {
    throw ConfigError(line, "bad number for " + what + ": '" + value + "'");
  }
}

[[noreturn]] void out_of_range(int line, const std::string& key, double value) {
  std::ostringstream msg;
  msg << key << " out of range: " << value;
  throw ConfigError(line, msg.str());
}

/// The one conversion of a time value into Cycles: `value` counts units of
/// `unit_s` seconds. Refused: a negative time, and one whose cycle count
/// does not fit in Cycles (converting it would be undefined behaviour).
/// The arithmetic is CpuClock::from_seconds(value * unit_s)'s, so a value
/// converts to the same cycles here as in the facade.
Cycles to_cycles(int line, const CpuClock& clock, double value, double unit_s,
                 const std::string& key) {
  const double cycles = value * unit_s * clock.hz();
  // 2^63 is exact in a double and one past Cycles' largest value.
  const double limit = std::ldexp(1.0, std::numeric_limits<Cycles>::digits);
  if (!(value >= 0.0 && cycles < limit)) out_of_range(line, key, value);
  return static_cast<Cycles>(cycles);
}

/// The one lookup of a word argument (in a fixed table of words) or of a
/// name an earlier line declared: `text` must be a key of `table`.
template <typename T>
T lookup(int line, const std::map<std::string, T>& table,
         const std::string& text, const std::string& what) {
  const auto it = table.find(text);
  if (it == table.end()) {
    throw ConfigError(line, "unknown " + what + " '" + text + "'");
  }
  return it->second;
}

using Io = io::AsyncIoEngine;
using core::SchedPolicy;
using fault::DeadNfPolicy;
using fault::DeviceFaultKind;
using fault::FaultKind;
template <typename E>
using Words = std::map<std::string, E>;
/// Each mode's {cgroups, backpressure, ecn} features.
const Words<std::array<bool, 3>> kModes = {
    {"nfvnice", {true, true, true}}, {"default", {false, false, false}},
    {"cgroup", {true, false, false}}, {"backpressure", {false, true, false}}};
const Words<SchedPolicy> kPolicies = {{"normal", SchedPolicy::kCfsNormal},
                                      {"batch", SchedPolicy::kCfsBatch},
                                      {"rr", SchedPolicy::kRoundRobin}};
const Words<Io::Mode> kIoModes = {{"async", Io::Mode::kDoubleBuffered},
                                  {"sync", Io::Mode::kSynchronous}};
const Words<Io::OnIoFail> kOnIoFail = {{"block", Io::OnIoFail::kBlock},
                                       {"shed", Io::OnIoFail::kShed},
                                       {"stuck", Io::OnIoFail::kStuck}};
const Words<DeadNfPolicy> kDeadPolicies = {
    {"backpressure", DeadNfPolicy::kBackpressure},
    {"bypass", DeadNfPolicy::kBypass}, {"buffer", DeadNfPolicy::kBuffer}};
const Words<FaultKind> kFaultKinds = {{"crash", FaultKind::kCrash},
                                      {"stall", FaultKind::kStall},
                                      {"slow", FaultKind::kDegrade}};
const Words<DeviceFaultKind> kDeviceFaultKinds = {
    {"slow", DeviceFaultKind::kSlow}, {"error", DeviceFaultKind::kError},
    {"torn", DeviceFaultKind::kTorn}, {"wedge", DeviceFaultKind::kWedge}};

/// One row of a directive's option table: the key, a setter that checks
/// the value by the row's kind and range and writes its destination, and
/// whether the line must set it. The helpers below build one row per kind;
/// an option a line omits is never written, so its destination keeps the
/// facade's default.
struct Option {
  const char* key;
  std::function<void(int line, const std::string& value)> set;
  bool required = false;
};

/// `option`, required when `required` holds.
Option need(Option option, bool required = true) {
  option.required = required;
  return option;
}

/// Kind count: an integer in [min, the largest value of the field's type];
/// converting a double beyond that is undefined behaviour.
template <typename T>
Option count(const char* key, T& dest, double min = 0.0) {
  return {key, [=, &dest](int line, const std::string& value) {
            const double x = parse_double(line, value, key);
            // 2^digits is exact in a double and one past T's largest value.
            const double max = std::ldexp(1.0, std::numeric_limits<T>::digits);
            if (!(x >= min && x < max)) out_of_range(line, key, x);
            dest = static_cast<T>(x);
          }};
}

/// Kind real: a number in [lo, hi).
Option real(const char* key, double& dest, double lo = -kInf,
            double hi = kInf) {
  return {key, [=, &dest](int line, const std::string& value) {
            const double x = parse_double(line, value, key);
            if (!(x >= lo && x < hi)) out_of_range(line, key, x);
            dest = x;
          }};
}

/// Kind positive real: a number in (0, max].
Option positive(const char* key, double& dest, double max = kInf) {
  return {key, [=, &dest](int line, const std::string& value) {
            const double x = parse_double(line, value, key);
            if (!(x > 0.0 && x <= max)) out_of_range(line, key, x);
            dest = x;
          }};
}

/// Kind time stored as cycles: the value counts units of `unit_s` seconds.
Option cycles(const CpuClock& clock, const char* key, Cycles& dest,
              double unit_s) {
  return {key, [=, &clock, &dest](int line, const std::string& value) {
            dest = to_cycles(line, clock, parse_double(line, value, key),
                             unit_s, key);
          }};
}

/// Kind time passed on: checked like cycles(), then stored for a facade
/// that converts it itself — in seconds (value * unit_s) when `in_seconds`,
/// else as written, in the unit the facade call takes.
Option passed(const CpuClock& clock, const char* key, double& dest,
              double unit_s, bool in_seconds) {
  return {key, [=, &clock, &dest](int line, const std::string& value) {
            const double x = parse_double(line, value, key);
            to_cycles(line, clock, x, unit_s, key);
            dest = in_seconds ? x * unit_s : x;
          }};
}

/// Kinds enum and name reference: a word of a fixed table, or a name an
/// earlier line declared; `what` names the table in the error.
template <typename T>
Option one_of(const char* key, T& dest, const std::map<std::string, T>& table,
              const char* what) {
  return {key, [=, &dest, &table](int line, const std::string& value) {
            dest = lookup(line, table, value, what);
          }};
}

/// The one key=value loop: every token from `first` on names a row of its
/// directive's table, which checks and stores the value.
void parse_options(int line, const Tokens& tokens, std::size_t first,
                   std::initializer_list<Option> table) {
  std::vector<bool> seen(table.size());
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      throw ConfigError(line, "expected key=value, got '" + tokens[i] + "'");
    }
    const std::string key = tokens[i].substr(0, eq);
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const auto& o) { return key == o.key; });
    if (row == table.end()) {
      throw ConfigError(line, "unknown " + tokens[0] + " option '" + key + "'");
    }
    row->set(line, tokens[i].substr(eq + 1));
    seen[row - table.begin()] = true;
  }
  for (const Option& o : table) {
    if (o.required && !seen[&o - table.begin()]) {
      throw ConfigError(line, tokens[0] + " needs " + o.key + "=<value>");
    }
  }
}

/// A directive's positional arity: `min`..`max` arguments follow the verb.
/// A directive with options takes exactly that many (min == max), then its
/// key=value options; one without takes no other token.
struct Directive {
  const char* verb;
  std::size_t min, max;
  bool options;
  const char* usage;
};
constexpr std::size_t kMany = std::numeric_limits<std::size_t>::max();
constexpr Directive kDirectives[] = {
    {"mode", 1, 1, false, "nfvnice|default|cgroup|backpressure"},
    {"core", 1, 2, false, "normal|batch|rr [<quantum_ms>]"},
    {"nf", 1, 1, true, "<name> core=<index> [cost= priority= batch=]"},
    {"chain", 2, kMany, false, "<name> <nf>..."},
    {"udp", 1, 1, true, "<chain> [rate= size= start= stop= classes=]"},
    {"tcp", 1, 1, true, "<chain> [size= rtt_us= start= stop=]"},
    {"io", 1, 1, true, "<nf> [mode= buffer= flush_us=]"},
    {"io_timeout", 1, 1, true, "<nf> us=<v>"},
    {"io_retry", 1, 1, true, "<nf> backoff_us=<v> [max= multiplier= jitter=]"},
    {"on_io_fail", 2, 2, false, "<nf> block|shed|stuck"},
    {"device_fault", 1, 1, true, "slow|error|torn|wedge at=<s> [options]"},
    {"fault", 2, 2, true, "crash|stall|slow <nf> at=<s> [options]"},
    {"on_dead", 2, 2, false, "<chain> backpressure|bypass|buffer"},
    {"slo", 1, 1, true, "<chain> target_us=<v>"},
    {"class", 1, 1, true, "<chain> [priority= utility=]"},
};

}  // namespace

Topology load(std::istream& in, core::Simulation& sim) {
  Topology topo;
  fault::FaultPlan plan;
  const CpuClock& clock = sim.clock();
  int line = 0;
  int udp_count = 0;
  int tcp_count = 0;
  // One flow class per chain: re-classing silently overwrites shed state,
  // so the loader treats a second `class` line as a config bug.
  std::set<std::string> classed_chains;

  const auto apply = [&](const Tokens& tokens) {
    const std::string& verb = tokens[0];
    const auto d = std::find_if(
        std::begin(kDirectives), std::end(kDirectives),
        [&](const Directive& x) { return verb == x.verb; });
    if (d == std::end(kDirectives)) {
      throw ConfigError(line, "unknown directive '" + verb + "'");
    }
    const std::size_t args = tokens.size() - 1;
    if (args < d->min || (!d->options && args > d->max)) {
      throw ConfigError(line, "usage: " + verb + " " + d->usage);
    }
    const auto options = [&](std::initializer_list<Option> table) {
      parse_options(line, tokens, 1 + d->max, table);
    };

    if (verb == "mode") {
      const auto f = lookup(line, kModes, tokens[1], "mode");
      sim.set_features(f[0], f[1], f[2]);

    } else if (verb == "core") {
      const auto policy = lookup(line, kPolicies, tokens[1], "core policy");
      if (args == 2 && policy != SchedPolicy::kRoundRobin) {
        throw ConfigError(line, "only core rr takes a quantum");
      }
      const double quantum_ms =
          args == 2 ? parse_double(line, tokens[2], "rr quantum") : 100.0;
      to_cycles(line, clock, quantum_ms, 1e-3, "rr quantum");
      const std::size_t index = sim.add_core(policy, quantum_ms);
      topo.cores[std::to_string(index)] = index;

    } else if (verb == "nf") {
      const std::string& nf_name = tokens[1];
      if (topo.nfs.count(nf_name) != 0) {
        throw ConfigError(line, "duplicate nf '" + nf_name + "'");
      }
      std::size_t core_index = 0;
      Cycles cost = 250;
      core::NfOptions opts;
      options({need(one_of("core", core_index, topo.cores, "core")),
               count("cost", cost), positive("priority", opts.priority, 1000.0),
               count("batch", opts.batch_size, 1.0)});
      topo.nfs[nf_name] =
          sim.add_nf(nf_name, core_index, nf::CostModel::fixed(cost), opts);

    } else if (verb == "chain") {
      const std::string& chain = tokens[1];
      if (topo.chains.count(chain) != 0) {
        throw ConfigError(line, "duplicate chain '" + chain + "'");
      }
      std::vector<flow::NfId> hops;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        hops.push_back(lookup(line, topo.nfs, tokens[i], "nf"));
      }
      topo.chains[chain] = sim.add_chain(chain, std::move(hops));

    } else if (verb == "udp") {
      const flow::ChainId chain = lookup(line, topo.chains, tokens[1], "chain");
      double rate = 1e6;
      core::UdpOptions udp;
      options({positive("rate", rate), count("size", udp.size_bytes),
               passed(clock, "start", udp.start_seconds, 1.0, true),
               passed(clock, "stop", udp.stop_seconds, 1.0, true),
               count("classes", udp.cost_classes)});
      topo.flows["udp" + std::to_string(udp_count++)] =
          sim.add_udp_flow(chain, rate, udp);

    } else if (verb == "tcp") {
      const flow::ChainId chain = lookup(line, topo.chains, tokens[1], "chain");
      core::TcpOptions tcp;
      options({count("size", tcp.size_bytes),
               passed(clock, "rtt_us", tcp.rtt_seconds, 1e-6, true),
               passed(clock, "start", tcp.start_seconds, 1.0, true),
               passed(clock, "stop", tcp.stop_seconds, 1.0, true)});
      topo.flows["tcp" + std::to_string(tcp_count++)] =
          sim.add_tcp_flow(chain, tcp).first;

    } else if (verb == "io") {
      const flow::NfId nf = lookup(line, topo.nfs, tokens[1], "nf");
      if (topo.ios.count(tokens[1]) != 0) {
        throw ConfigError(line, "nf '" + tokens[1] + "' already has io");
      }
      io::AsyncIoEngine::Config cfg;
      options({one_of("mode", cfg.mode, kIoModes, "io mode"),
               count("buffer", cfg.buffer_bytes),
               cycles(clock, "flush_us", cfg.flush_interval, 1e-6)});
      topo.ios[tokens[1]] = &sim.attach_io(nf, cfg);

    } else if (verb == "io_timeout" || verb == "io_retry" ||
               verb == "on_io_fail") {
      const auto it = topo.ios.find(tokens[1]);
      if (it == topo.ios.end()) {
        throw ConfigError(line, "nf '" + tokens[1] +
                                    "' has no io engine (declare io " +
                                    tokens[1] + " first)");
      }
      io::AsyncIoEngine& io = *it->second;
      if (verb == "io_timeout") {
        Cycles timeout = 0;
        options({cycles(clock, "us", timeout, 1e-6)});
        if (timeout <= 0) throw ConfigError(line, "io_timeout needs us=<0<..>");
        io.set_timeout(timeout);
      } else if (verb == "io_retry") {
        io::AsyncIoEngine::Config cfg = io.config();
        Cycles backoff = 0;
        options({count("max", cfg.max_attempts, 1.0),
                 cycles(clock, "backoff_us", backoff, 1e-6),
                 positive("multiplier", cfg.backoff_multiplier, 1000.0),
                 real("jitter", cfg.jitter_fraction, 0.0, 1.0)});
        if (backoff <= 0) {
          throw ConfigError(line, "io_retry needs backoff_us=<0<..>");
        }
        io.set_retry(cfg.max_attempts, backoff, cfg.backoff_multiplier,
                     cfg.jitter_fraction);
      } else {
        io.set_on_fail(lookup(line, kOnIoFail, tokens[2], "on_io_fail policy"));
      }

    } else if (verb == "device_fault") {
      const auto kind =
          lookup(line, kDeviceFaultKinds, tokens[1], "device_fault kind");
      Cycles at = 0;
      Cycles window = 0;
      double factor = 0.0;
      double fraction = 0.0;
      options({need(cycles(clock, "at", at, 1.0)),
               need(positive("factor", factor, fault::kMaxSlowFactor),
                    kind == DeviceFaultKind::kSlow),
               need(real("fraction", fraction), kind == DeviceFaultKind::kTorn),
               cycles(clock, "for", window, 1.0)});
      if (kind == DeviceFaultKind::kSlow) {
        plan.add_device_slow(at, factor, window);
      } else if (kind == DeviceFaultKind::kError) {
        plan.add_device_error(at, window);
      } else if (kind == DeviceFaultKind::kTorn) {
        plan.add_device_torn(at, fraction, window);
      } else {
        plan.add_device_wedge(at, window);
      }

    } else if (verb == "fault") {
      const auto kind = lookup(line, kFaultKinds, tokens[1], "fault kind");
      const flow::NfId nf = lookup(line, topo.nfs, tokens[2], "nf");
      Cycles at = 0;
      Cycles restart = fault::kDefaultRestart;
      Cycles window = 0;
      double factor = 0.0;
      options({need(cycles(clock, "at", at, 1.0)),
               cycles(clock, "restart_after", restart, 1.0),
               need(positive("factor", factor, fault::kMaxSlowFactor),
                    kind == FaultKind::kDegrade),
               cycles(clock, "for", window, 1.0)});
      if (kind == FaultKind::kCrash) {
        plan.add_crash(nf, at, restart);
      } else if (kind == FaultKind::kStall) {
        plan.add_stall(nf, at, restart);
      } else {
        plan.add_degrade(nf, at, factor, window);
      }

    } else if (verb == "on_dead") {
      const flow::ChainId chain = lookup(line, topo.chains, tokens[1], "chain");
      sim.set_dead_policy(
          chain, lookup(line, kDeadPolicies, tokens[2], "dead-NF policy"));

    } else if (verb == "slo") {
      const flow::ChainId chain = lookup(line, topo.chains, tokens[1], "chain");
      double target_us = 0.0;
      options({need(passed(clock, "target_us", target_us, 1e-6, false))});
      sim.set_chain_slo(chain, target_us);

    } else {  // class
      const flow::ChainId chain = lookup(line, topo.chains, tokens[1], "chain");
      if (!classed_chains.insert(tokens[1]).second) {
        throw ConfigError(line,
                          "duplicate class for chain '" + tokens[1] + "'");
      }
      bp::ClassSpec spec;
      options({positive("priority", spec.priority, 1000.0),
               positive("utility", spec.utility, 1000.0)});
      sim.set_chain_class(chain, spec.priority, spec.utility);
    }
  };

  std::string text;
  while (std::getline(in, text)) {
    ++line;
    const Tokens tokens = tokenize(text);
    if (tokens.empty()) continue;
    try {
      apply(tokens);
    } catch (const fault::FaultError& e) {
      // The plan validates faults as they are added (non-positive factors,
      // overlapping windows); name the line that added one.
      throw ConfigError(line, e.what());
    }
  }
  if (!plan.empty()) sim.set_fault_plan(std::move(plan));
  return topo;
}

Topology load_string(const std::string& text, core::Simulation& sim) {
  std::istringstream iss(text);
  return load(iss, sim);
}

}  // namespace nfv::config
