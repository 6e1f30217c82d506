// Example: drive a deployment from a configuration file (§3.1).
//
//   ./build/examples/run_config [path/to/topology.conf] [seconds]
//
// With no arguments, runs a built-in Fig. 7-style config.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "config/loader.hpp"
#include "core/simulation.hpp"

namespace {

constexpr const char* kDefaultConfig = R"(
# Fig. 7-style chain: three heterogeneous NFs on one shared core.
mode nfvnice
core batch
nf low  core=0 cost=120
nf med  core=0 cost=270
nf high core=0 cost=550
chain lmh low med high
udp lmh rate=6e6 size=64
)";

/// NFV_SIM_SHARDS=N (a positive integer) runs the simulation on the
/// sharded engine, one lane per core, with N workers (DESIGN.md §14).
std::uint32_t shards_from_env() {
  const char* env = std::getenv("NFV_SIM_SHARDS");
  const long v = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
  return v > 0 ? static_cast<std::uint32_t>(v) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  double secs = 0.5;
  if (argc > 2) {
    char* end = nullptr;
    secs = std::strtod(argv[2], &end);
    if (end == argv[2] || *end != '\0') {
      std::cerr << "bad duration '" << argv[2] << "': not a number\n";
      return 1;
    }
  }
  nfvnice::PlatformConfig cfg;
  cfg.sim_shards = shards_from_env();
  nfvnice::Simulation sim(cfg);

  try {
    nfv::config::Topology topo;
    if (argc > 1) {
      std::ifstream file(argv[1]);
      if (!file) {
        std::cerr << "cannot open " << argv[1] << "\n";
        return 1;
      }
      topo = nfv::config::load(file, sim);
    } else {
      std::cout << "using built-in config:\n" << kDefaultConfig << "\n";
      topo = nfv::config::load_string(kDefaultConfig, sim);
    }
    sim.run_for_seconds(secs);
    sim.print_report(std::cout);
  } catch (const nfv::config::ConfigError& e) {
    std::cerr << "config error: " << e.what() << "\n";
    return 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}
