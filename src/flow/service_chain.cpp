#include "flow/service_chain.hpp"

#include <algorithm>
#include <cassert>

namespace nfv::flow {

const std::vector<ChainId> ChainRegistry::kEmpty{};

ChainId ChainRegistry::add(std::string name, std::vector<NfId> hops) {
  assert(!hops.empty() && "a service chain needs at least one NF");
  const auto id = static_cast<ChainId>(chains_.size());
  for (NfId nf : hops) {
    if (nf >= through_.size()) through_.resize(nf + 1);
    auto& list = through_[nf];
    if (std::find(list.begin(), list.end(), id) == list.end()) {
      list.push_back(id);
    }
  }
  chains_.push_back(ServiceChain{id, std::move(name), std::move(hops)});
  return id;
}

const std::vector<ChainId>& ChainRegistry::chains_through(NfId nf) const {
  if (nf >= through_.size()) return kEmpty;
  return through_[nf];
}

int ChainRegistry::position_of(ChainId chain, NfId nf) const {
  const auto& hops = chains_.at(chain).hops;
  const auto it = std::find(hops.begin(), hops.end(), nf);
  return it == hops.end() ? -1 : static_cast<int>(it - hops.begin());
}

}  // namespace nfv::flow
