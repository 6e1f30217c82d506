// Service chain definitions.
//
// A service chain is an ordered list of NFs a packet traverses (§1, RFC
// 7665). Chains are configured at startup from configuration (or an SDN
// controller, §3.1); NFVnice's backpressure is *chain-selective*: an
// overloaded NF throttles exactly the chains that pass through it (Fig. 5),
// and chains may be defined at flow granularity to minimise head-of-line
// blocking (§3.3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nfv::flow {

using NfId = std::uint32_t;
using ChainId = std::uint32_t;

inline constexpr ChainId kInvalidChain = 0xffffffffu;

struct ServiceChain {
  ChainId id = kInvalidChain;
  std::string name;
  std::vector<NfId> hops;  ///< NF ids in traversal order.

  [[nodiscard]] std::size_t length() const { return hops.size(); }
};

/// Registry of all configured chains, with reverse indices the backpressure
/// subsystem needs: which chains pass through a given NF, and at what
/// position.
class ChainRegistry {
 public:
  /// Register a chain; returns its id. `hops` must be non-empty.
  ChainId add(std::string name, std::vector<NfId> hops);

  [[nodiscard]] const ServiceChain& get(ChainId id) const {
    return chains_.at(id);
  }
  [[nodiscard]] std::size_t size() const { return chains_.size(); }

  /// All chains that include `nf` (any position).
  [[nodiscard]] const std::vector<ChainId>& chains_through(NfId nf) const;

  /// Position of `nf` within `chain` (first occurrence), or -1.
  [[nodiscard]] int position_of(ChainId chain, NfId nf) const;

 private:
  std::vector<ServiceChain> chains_;
  std::vector<std::vector<ChainId>> through_;  // indexed by NfId
  static const std::vector<ChainId> kEmpty;
};

}  // namespace nfv::flow
