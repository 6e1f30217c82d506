#include "config/loader.hpp"

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/lifecycle.hpp"

namespace nfv::config {

namespace {

/// Split a line into whitespace-separated tokens.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream iss(line);
  std::string token;
  while (iss >> token) {
    if (token[0] == '#') break;  // trailing comment
    tokens.push_back(token);
  }
  return tokens;
}

/// Parse "key=value" into its parts; returns false if `=` is absent.
bool split_kv(const std::string& token, std::string& key, std::string& value) {
  const auto pos = token.find('=');
  if (pos == std::string::npos) return false;
  key = token.substr(0, pos);
  value = token.substr(pos + 1);
  return true;
}

/// A finite number spanning the whole token; `nan` and `inf` are refused.
double parse_double(int line, const std::string& value, const std::string& what) {
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

/// Narrow a parsed number into the integer type T, refusing anything below
/// `min` or beyond T's range: converting an out-of-range double to an
/// integer is undefined behaviour, not a wrap.
template <typename T>
T narrow(int line, double value, const std::string& what, double min = 0.0) {
  // 2^digits is exact in a double and one past T's largest value.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(value >= min && value < limit)) {
    std::ostringstream msg;
    msg << what << " out of range: " << value;
    throw ConfigError(line, msg.str());
  }
  return static_cast<T>(value);
}

/// The one conversion of a time value into Cycles: `value` counts units of
/// `unit_s` seconds (1 for seconds, 1e-3 for ms, 1e-6 for us). Refused, with
/// the value as written: a negative time, and one whose cycle count does
/// not fit in Cycles (converting it would be undefined behaviour). The
/// arithmetic is CpuClock::from_seconds(value * unit_s)'s, so a value
/// converts to the same cycles here as in the facade. Options whose facade
/// call takes seconds and converts them itself are checked here and passed
/// on as given.
Cycles to_cycles(int line, const CpuClock& clock, double value, double unit_s,
                 const std::string& key) {
  const double cycles = value * unit_s * clock.hz();
  // 2^63 is exact in a double and one past Cycles' largest value.
  const double limit = std::ldexp(1.0, std::numeric_limits<Cycles>::digits);
  if (!(value >= 0.0 && cycles < limit)) {
    std::ostringstream msg;
    msg << key << " out of range: " << value;
    throw ConfigError(line, msg.str());
  }
  return static_cast<Cycles>(cycles);
}

}  // namespace

Topology load(std::istream& in, core::Simulation& sim) {
  Topology topo;
  fault::FaultPlan plan;
  std::string line;
  int line_no = 0;
  int udp_count = 0;
  int tcp_count = 0;
  // One flow class per chain: re-classing silently overwrites shed state,
  // so the loader treats a second `class` line as a config bug.
  std::set<std::string> classed_chains;

  while (std::getline(in, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& verb = tokens[0];

    if (verb == "mode") {
      if (tokens.size() != 2) throw ConfigError(line_no, "mode takes 1 arg");
      const std::string& mode = tokens[1];
      if (mode == "nfvnice") {
        sim.set_features(true, true, true);
      } else if (mode == "default") {
        sim.set_features(false, false, false);
      } else if (mode == "cgroup") {
        sim.set_features(true, false, false);
      } else if (mode == "backpressure") {
        sim.set_features(false, true, false);
      } else {
        throw ConfigError(line_no, "unknown mode '" + mode + "'");
      }

    } else if (verb == "core") {
      if (tokens.size() < 2) throw ConfigError(line_no, "core takes a policy");
      const std::string& policy = tokens[1];
      std::size_t index = 0;
      if (policy == "normal") {
        index = sim.add_core(core::SchedPolicy::kCfsNormal);
      } else if (policy == "batch") {
        index = sim.add_core(core::SchedPolicy::kCfsBatch);
      } else if (policy == "rr") {
        const double quantum_ms =
            tokens.size() > 2 ? parse_double(line_no, tokens[2], "rr quantum")
                              : 100.0;
        to_cycles(line_no, sim.clock(), quantum_ms, 1e-3, "rr quantum");
        index = sim.add_core(core::SchedPolicy::kRoundRobin, quantum_ms);
      } else {
        throw ConfigError(line_no, "unknown core policy '" + policy + "'");
      }
      topo.cores[std::to_string(index)] = index;

    } else if (verb == "nf") {
      if (tokens.size() < 3) {
        throw ConfigError(line_no, "nf takes a name and key=value options");
      }
      const std::string& name = tokens[1];
      if (topo.nfs.count(name) != 0) {
        throw ConfigError(line_no, "duplicate nf '" + name + "'");
      }
      std::size_t core_index = 0;
      Cycles cost = 250;
      core::NfOptions options;
      bool have_core = false;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key, value;
        if (!split_kv(tokens[i], key, value)) {
          throw ConfigError(line_no, "expected key=value, got '" + tokens[i] + "'");
        }
        if (key == "core") {
          const auto it = topo.cores.find(value);
          if (it == topo.cores.end()) {
            throw ConfigError(line_no, "unknown core '" + value + "'");
          }
          core_index = it->second;
          have_core = true;
        } else if (key == "cost") {
          cost = narrow<Cycles>(line_no, parse_double(line_no, value, "cost"),
                                "cost");
        } else if (key == "priority") {
          options.priority = parse_double(line_no, value, "priority");
        } else if (key == "batch") {
          options.batch_size = narrow<std::uint32_t>(
              line_no, parse_double(line_no, value, "batch"), "batch", 1.0);
        } else {
          throw ConfigError(line_no, "unknown nf option '" + key + "'");
        }
      }
      if (!have_core) throw ConfigError(line_no, "nf needs core=<index>");
      topo.nfs[name] =
          sim.add_nf(name, core_index, nf::CostModel::fixed(cost), options);

    } else if (verb == "chain") {
      if (tokens.size() < 3) {
        throw ConfigError(line_no, "chain takes a name and >=1 NF");
      }
      const std::string& name = tokens[1];
      if (topo.chains.count(name) != 0) {
        throw ConfigError(line_no, "duplicate chain '" + name + "'");
      }
      std::vector<flow::NfId> hops;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto it = topo.nfs.find(tokens[i]);
        if (it == topo.nfs.end()) {
          throw ConfigError(line_no, "unknown nf '" + tokens[i] + "'");
        }
        hops.push_back(it->second);
      }
      topo.chains[name] = sim.add_chain(name, std::move(hops));

    } else if (verb == "udp" || verb == "tcp") {
      if (tokens.size() < 2) {
        throw ConfigError(line_no, verb + " takes a chain name");
      }
      const auto it = topo.chains.find(tokens[1]);
      if (it == topo.chains.end()) {
        throw ConfigError(line_no, "unknown chain '" + tokens[1] + "'");
      }
      double rate = 1e6;
      core::UdpOptions udp_opts;
      core::TcpOptions tcp_opts;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key, value;
        if (!split_kv(tokens[i], key, value)) {
          throw ConfigError(line_no, "expected key=value, got '" + tokens[i] + "'");
        }
        const double parsed = parse_double(line_no, value, key);
        if (key == "rate") {
          if (!(parsed > 0.0)) throw ConfigError(line_no, "rate must be > 0");
          rate = parsed;
        } else if (key == "size") {
          udp_opts.size_bytes = narrow<std::uint16_t>(line_no, parsed, key);
          tcp_opts.size_bytes = udp_opts.size_bytes;
        } else if (key == "start") {
          to_cycles(line_no, sim.clock(), parsed, 1.0, key);
          udp_opts.start_seconds = parsed;
          tcp_opts.start_seconds = parsed;
        } else if (key == "stop") {
          to_cycles(line_no, sim.clock(), parsed, 1.0, key);
          udp_opts.stop_seconds = parsed;
          tcp_opts.stop_seconds = parsed;
        } else if (key == "rtt_us") {
          to_cycles(line_no, sim.clock(), parsed, 1e-6, key);
          tcp_opts.rtt_seconds = parsed * 1e-6;
        } else if (key == "classes") {
          udp_opts.cost_classes = narrow<std::uint8_t>(line_no, parsed, key);
        } else {
          throw ConfigError(line_no, "unknown flow option '" + key + "'");
        }
      }
      if (verb == "udp") {
        topo.flows["udp" + std::to_string(udp_count++)] =
            sim.add_udp_flow(it->second, rate, udp_opts);
      } else {
        topo.flows["tcp" + std::to_string(tcp_count++)] =
            sim.add_tcp_flow(it->second, tcp_opts).first;
      }

    } else if (verb == "io") {
      if (tokens.size() < 2) {
        throw ConfigError(line_no, "io takes an nf and key=value options");
      }
      const auto it = topo.nfs.find(tokens[1]);
      if (it == topo.nfs.end()) {
        throw ConfigError(line_no, "unknown nf '" + tokens[1] + "'");
      }
      if (topo.ios.count(tokens[1]) != 0) {
        throw ConfigError(line_no, "nf '" + tokens[1] + "' already has io");
      }
      io::AsyncIoEngine::Config io_cfg;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key, value;
        if (!split_kv(tokens[i], key, value)) {
          throw ConfigError(line_no, "expected key=value, got '" + tokens[i] + "'");
        }
        if (key == "mode") {
          if (value == "async") {
            io_cfg.mode = io::AsyncIoEngine::Mode::kDoubleBuffered;
          } else if (value == "sync") {
            io_cfg.mode = io::AsyncIoEngine::Mode::kSynchronous;
          } else {
            throw ConfigError(line_no, "unknown io mode '" + value + "'");
          }
        } else if (key == "buffer") {
          io_cfg.buffer_bytes = narrow<std::uint64_t>(
              line_no, parse_double(line_no, value, "buffer"), "buffer");
        } else if (key == "flush_us") {
          io_cfg.flush_interval =
              to_cycles(line_no, sim.clock(),
                        parse_double(line_no, value, key), 1e-6, key);
        } else {
          throw ConfigError(line_no, "unknown io option '" + key + "'");
        }
      }
      topo.ios[tokens[1]] = &sim.attach_io(it->second, io_cfg);

    } else if (verb == "io_timeout" || verb == "io_retry" ||
               verb == "on_io_fail") {
      if (tokens.size() < 3) {
        throw ConfigError(line_no, verb + " takes an nf and options");
      }
      const auto it = topo.ios.find(tokens[1]);
      if (it == topo.ios.end()) {
        throw ConfigError(line_no, "nf '" + tokens[1] +
                                       "' has no io engine (declare io " +
                                       tokens[1] + " first)");
      }
      io::AsyncIoEngine& io = *it->second;
      if (verb == "io_timeout") {
        double us = -1.0;
        for (std::size_t i = 2; i < tokens.size(); ++i) {
          std::string key, value;
          if (!split_kv(tokens[i], key, value)) {
            throw ConfigError(line_no,
                              "expected key=value, got '" + tokens[i] + "'");
          }
          if (key == "us") {
            us = parse_double(line_no, value, "us");
          } else {
            throw ConfigError(line_no, "unknown io_timeout option '" + key + "'");
          }
        }
        if (us <= 0.0) throw ConfigError(line_no, "io_timeout needs us=<0<..>");
        io.set_timeout(to_cycles(line_no, sim.clock(), us, 1e-6, "us"));
      } else if (verb == "io_retry") {
        const io::AsyncIoEngine::Config& cur = io.config();
        double max_attempts = cur.max_attempts;
        double backoff_us = -1.0;
        double multiplier = cur.backoff_multiplier;
        double jitter = cur.jitter_fraction;
        for (std::size_t i = 2; i < tokens.size(); ++i) {
          std::string key, value;
          if (!split_kv(tokens[i], key, value)) {
            throw ConfigError(line_no,
                              "expected key=value, got '" + tokens[i] + "'");
          }
          const double parsed = parse_double(line_no, value, key);
          if (key == "max") {
            max_attempts = parsed;
          } else if (key == "backoff_us") {
            backoff_us = parsed;
          } else if (key == "multiplier") {
            multiplier = parsed;
          } else if (key == "jitter") {
            jitter = parsed;
          } else {
            throw ConfigError(line_no, "unknown io_retry option '" + key + "'");
          }
        }
        const auto attempts =
            narrow<std::uint32_t>(line_no, max_attempts, "max", 1.0);
        if (backoff_us <= 0.0) {
          throw ConfigError(line_no, "io_retry needs backoff_us=<0<..>");
        }
        if (jitter < 0.0 || jitter >= 1.0) {
          throw ConfigError(line_no, "io_retry jitter must be in [0,1)");
        }
        io.set_retry(attempts,
                     to_cycles(line_no, sim.clock(), backoff_us, 1e-6,
                               "backoff_us"),
                     multiplier, jitter);
      } else {  // on_io_fail
        const std::string& policy = tokens[2];
        if (policy == "block") {
          io.set_on_fail(io::AsyncIoEngine::OnIoFail::kBlock);
        } else if (policy == "shed") {
          io.set_on_fail(io::AsyncIoEngine::OnIoFail::kShed);
        } else if (policy == "stuck") {
          io.set_on_fail(io::AsyncIoEngine::OnIoFail::kStuck);
        } else {
          throw ConfigError(line_no, "unknown on_io_fail policy '" + policy + "'");
        }
      }

    } else if (verb == "device_fault") {
      if (tokens.size() < 3) {
        throw ConfigError(line_no,
                          "device_fault takes a kind and key=value options");
      }
      const std::string& kind = tokens[1];
      Cycles at = -1;  // required
      double factor = 0.0;
      double fraction = -1.0;
      Cycles window = 0;
      bool have_factor = false;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key, value;
        if (!split_kv(tokens[i], key, value)) {
          throw ConfigError(line_no, "expected key=value, got '" + tokens[i] + "'");
        }
        const double parsed = parse_double(line_no, value, key);
        if (key == "at") {
          at = to_cycles(line_no, sim.clock(), parsed, 1.0, key);
        } else if (key == "factor") {
          factor = parsed;
          have_factor = true;
        } else if (key == "fraction") {
          fraction = parsed;
        } else if (key == "for") {
          window = to_cycles(line_no, sim.clock(), parsed, 1.0, key);
        } else {
          throw ConfigError(line_no, "unknown device_fault option '" + key + "'");
        }
      }
      if (at < 0) {
        throw ConfigError(line_no, "device_fault needs at=<seconds>");
      }
      if (kind == "slow" && !have_factor) {
        throw ConfigError(line_no, "device_fault slow needs factor=<x>");
      }
      if (kind == "torn" && fraction < 0.0) {
        throw ConfigError(line_no, "device_fault torn needs fraction=<f>");
      }
      try {
        if (kind == "slow") {
          plan.add_device_slow(at, factor, window);
        } else if (kind == "error") {
          plan.add_device_error(at, window);
        } else if (kind == "torn") {
          plan.add_device_torn(at, fraction, window);
        } else if (kind == "wedge") {
          plan.add_device_wedge(at, window);
        } else {
          throw ConfigError(line_no, "unknown device_fault kind '" + kind + "'");
        }
      } catch (const fault::FaultError& e) {
        throw ConfigError(line_no, e.what());
      }

    } else if (verb == "fault") {
      if (tokens.size() < 3) {
        throw ConfigError(line_no,
                          "fault takes a kind, an nf and key=value options");
      }
      const std::string& kind = tokens[1];
      const auto it = topo.nfs.find(tokens[2]);
      if (it == topo.nfs.end()) {
        throw ConfigError(line_no, "unknown nf '" + tokens[2] + "'");
      }
      Cycles at = -1;  // required
      Cycles restart = fault::kDefaultRestart;
      double factor = 0.0;
      Cycles window = 0;
      bool have_factor = false;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        std::string key, value;
        if (!split_kv(tokens[i], key, value)) {
          throw ConfigError(line_no, "expected key=value, got '" + tokens[i] + "'");
        }
        const double parsed = parse_double(line_no, value, key);
        if (key == "at") {
          at = to_cycles(line_no, sim.clock(), parsed, 1.0, key);
        } else if (key == "restart_after") {
          restart = to_cycles(line_no, sim.clock(), parsed, 1.0, key);
        } else if (key == "factor") {
          factor = parsed;
          have_factor = true;
        } else if (key == "for") {
          window = to_cycles(line_no, sim.clock(), parsed, 1.0, key);
        } else {
          throw ConfigError(line_no, "unknown fault option '" + key + "'");
        }
      }
      if (at < 0) throw ConfigError(line_no, "fault needs at=<seconds>");
      if (kind == "slow" && !have_factor) {
        throw ConfigError(line_no, "fault slow needs factor=<x>");
      }
      try {
        if (kind == "crash") {
          plan.add_crash(it->second, at, restart);
        } else if (kind == "stall") {
          plan.add_stall(it->second, at, restart);
        } else if (kind == "slow") {
          plan.add_degrade(it->second, at, factor, window);
        } else {
          throw ConfigError(line_no, "unknown fault kind '" + kind + "'");
        }
      } catch (const fault::FaultError& e) {
        throw ConfigError(line_no, e.what());
      }

    } else if (verb == "on_dead") {
      if (tokens.size() != 3) {
        throw ConfigError(line_no, "on_dead takes a chain and a policy");
      }
      const auto it = topo.chains.find(tokens[1]);
      if (it == topo.chains.end()) {
        throw ConfigError(line_no, "unknown chain '" + tokens[1] + "'");
      }
      const std::string& policy = tokens[2];
      if (policy == "backpressure") {
        sim.set_dead_policy(it->second, fault::DeadNfPolicy::kBackpressure);
      } else if (policy == "bypass") {
        sim.set_dead_policy(it->second, fault::DeadNfPolicy::kBypass);
      } else if (policy == "buffer") {
        sim.set_dead_policy(it->second, fault::DeadNfPolicy::kBuffer);
      } else {
        throw ConfigError(line_no, "unknown dead-NF policy '" + policy + "'");
      }

    } else if (verb == "slo") {
      // slo <chain> target_us=<v> — give the chain a p99 tail-latency
      // target (DESIGN.md §16). target_us=0 removes it.
      if (tokens.size() != 3) {
        throw ConfigError(line_no, "slo takes a chain and target_us=<v>");
      }
      const auto it = topo.chains.find(tokens[1]);
      if (it == topo.chains.end()) {
        throw ConfigError(line_no, "unknown chain '" + tokens[1] + "'");
      }
      std::string key, value;
      if (!split_kv(tokens[2], key, value) || key != "target_us") {
        throw ConfigError(line_no, "slo needs target_us=<microseconds>");
      }
      const double target_us = parse_double(line_no, value, key);
      to_cycles(line_no, sim.clock(), target_us, 1e-6, key);
      sim.set_chain_slo(it->second, target_us);

    } else if (verb == "class") {
      // class <chain> priority=<p> utility=<u> — give the chain a flow
      // class and arm the ingress admission gate (DESIGN.md §17).
      // Priority ranks the chain for push-aside; utility orders the shed
      // ladder (lowest-utility classes are shed first under overload).
      if (tokens.size() < 2) {
        throw ConfigError(line_no,
                          "class takes a chain and priority=/utility= options");
      }
      const auto it = topo.chains.find(tokens[1]);
      if (it == topo.chains.end()) {
        throw ConfigError(line_no, "unknown chain '" + tokens[1] + "'");
      }
      if (!classed_chains.insert(tokens[1]).second) {
        throw ConfigError(line_no,
                          "duplicate class for chain '" + tokens[1] + "'");
      }
      double priority = 1.0;
      double utility = 1.0;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        std::string key, value;
        if (!split_kv(tokens[i], key, value)) {
          throw ConfigError(line_no, "expected key=value, got '" + tokens[i] + "'");
        }
        const double parsed = parse_double(line_no, value, key);
        if (key == "priority") {
          priority = parsed;
        } else if (key == "utility") {
          utility = parsed;
        } else {
          throw ConfigError(line_no, "unknown class option '" + key + "'");
        }
      }
      if (!(priority > 0.0) || priority > 1000.0) {
        throw ConfigError(line_no, "class priority must be in (0, 1000]");
      }
      if (!(utility > 0.0) || utility > 1000.0) {
        throw ConfigError(line_no, "class utility must be in (0, 1000]");
      }
      sim.set_chain_class(it->second, priority, utility);

    } else {
      throw ConfigError(line_no, "unknown directive '" + verb + "'");
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
