#include "nf/cost_model.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace nfv::nf {

CostModel CostModel::fixed(Cycles cycles) {
  return CostModel(Kind::kFixed, {cycles}, 0);
}

CostModel CostModel::uniform_choice(std::vector<Cycles> choices,
                                    std::uint64_t seed) {
  assert(!choices.empty());
  return CostModel(Kind::kUniformChoice, std::move(choices), seed);
}

CostModel CostModel::per_class(std::vector<Cycles> class_costs) {
  assert(!class_costs.empty());
  return CostModel(Kind::kPerClass, std::move(class_costs), 0);
}

CostModel CostModel::state_dependent(
    std::function<Cycles(pktio::Mbuf&)> probe, Cycles nominal_cost) {
  assert(probe);
  CostModel model(Kind::kStateDependent, {nominal_cost}, 0);
  model.probe_ = std::move(probe);
  return model;
}

Cycles CostModel::sample(pktio::Mbuf& mbuf) {
  Cycles base = 0;
  switch (kind_) {
    case Kind::kFixed:
      base = values_[0];
      break;
    case Kind::kUniformChoice:
      base = values_[rng_.next_below(values_.size())];
      break;
    case Kind::kPerClass:
      base = values_[std::min<std::size_t>(mbuf.cost_class, values_.size() - 1)];
      break;
    case Kind::kStateDependent:
      base = probe_(mbuf);
      break;
  }
  // set_scale and the costs themselves are unchecked: saturate.
  return saturate_cycles(static_cast<double>(base) * scale_, 1);
}

Cycles CostModel::nominal() const {
  const Cycles sum = std::accumulate(values_.begin(), values_.end(), Cycles{0});
  return sum / static_cast<Cycles>(values_.size());
}

}  // namespace nfv::nf
