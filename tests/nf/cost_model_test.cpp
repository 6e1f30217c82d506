#include "nf/cost_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>

namespace nfv::nf {
namespace {

pktio::Mbuf mbuf_with_class(std::uint8_t cls) {
  pktio::Mbuf m;
  m.cost_class = cls;
  return m;
}

TEST(CostModel, FixedAlwaysSame) {
  CostModel model = CostModel::fixed(550);
  pktio::Mbuf m;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(model.sample(m), 550);
  EXPECT_EQ(model.nominal(), 550);
}

TEST(CostModel, UniformChoiceCoversAllValues) {
  CostModel model = CostModel::uniform_choice({120, 270, 550});
  pktio::Mbuf m;
  std::set<Cycles> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(model.sample(m));
  EXPECT_EQ(seen, (std::set<Cycles>{120, 270, 550}));
}

TEST(CostModel, UniformChoiceRoughlyBalanced) {
  CostModel model = CostModel::uniform_choice({100, 200});
  pktio::Mbuf m;
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (model.sample(m) == 100) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.5, 0.03);
}

TEST(CostModel, UniformChoiceDeterministicUnderSeed) {
  CostModel a = CostModel::uniform_choice({1, 2, 3}, 99);
  CostModel b = CostModel::uniform_choice({1, 2, 3}, 99);
  pktio::Mbuf m;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.sample(m), b.sample(m));
}

TEST(CostModel, PerClassUsesPacketField) {
  CostModel model = CostModel::per_class({120, 270, 550});
  auto m0 = mbuf_with_class(0);
  auto m1 = mbuf_with_class(1);
  auto m2 = mbuf_with_class(2);
  EXPECT_EQ(model.sample(m0), 120);
  EXPECT_EQ(model.sample(m1), 270);
  EXPECT_EQ(model.sample(m2), 550);
}

TEST(CostModel, PerClassClampsOutOfRange) {
  CostModel model = CostModel::per_class({100, 200});
  auto m = mbuf_with_class(9);
  EXPECT_EQ(model.sample(m), 200);
}

TEST(CostModel, ScaleMultipliesCost) {
  // Fig. 15a: NF1's computation cost triples mid-experiment.
  CostModel model = CostModel::fixed(300);
  pktio::Mbuf m;
  model.set_scale(3.0);
  EXPECT_EQ(model.sample(m), 900);
  model.set_scale(1.0);
  EXPECT_EQ(model.sample(m), 300);
}

TEST(CostModel, ScaleNeverProducesZero) {
  CostModel model = CostModel::fixed(10);
  pktio::Mbuf m;
  model.set_scale(0.0);
  EXPECT_EQ(model.sample(m), 1);  // floor at one cycle
}

TEST(CostModel, ScaleBeyondCyclesRangeSaturates) {
  // Converting the scaled cost to Cycles would overflow: it saturates at
  // 2^62 cycles instead, and a NaN scale takes the one-cycle floor.
  CostModel model = CostModel::fixed(120);
  pktio::Mbuf m;
  model.set_scale(1e300);
  EXPECT_EQ(model.sample(m), Cycles{1} << 62);
  model.set_scale(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(model.sample(m), 1);
}

TEST(CostModel, NominalIsMeanOfChoices) {
  CostModel model = CostModel::uniform_choice({100, 200, 300});
  EXPECT_EQ(model.nominal(), 200);
}

}  // namespace
}  // namespace nfv::nf
