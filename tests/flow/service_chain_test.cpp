#include "flow/service_chain.hpp"

#include <gtest/gtest.h>

namespace nfv::flow {
namespace {

TEST(ChainRegistry, AddAssignsSequentialIds) {
  ChainRegistry reg;
  EXPECT_EQ(reg.add("a", {0}), 0u);
  EXPECT_EQ(reg.add("b", {1, 2}), 1u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ChainRegistry, GetReturnsDefinition) {
  ChainRegistry reg;
  const ChainId id = reg.add("fw-nat-ids", {3, 1, 4});
  const ServiceChain& chain = reg.get(id);
  EXPECT_EQ(chain.name, "fw-nat-ids");
  EXPECT_EQ(chain.hops, (std::vector<NfId>{3, 1, 4}));
  EXPECT_EQ(chain.length(), 3u);
}

TEST(ChainRegistry, ChainsThroughIndexesMembership) {
  ChainRegistry reg;
  // Fig. 8 topology: chain1 = NF1,NF2,NF4; chain2 = NF1,NF3,NF4.
  const ChainId c1 = reg.add("chain1", {1, 2, 4});
  const ChainId c2 = reg.add("chain2", {1, 3, 4});
  EXPECT_EQ(reg.chains_through(1), (std::vector<ChainId>{c1, c2}));
  EXPECT_EQ(reg.chains_through(2), (std::vector<ChainId>{c1}));
  EXPECT_EQ(reg.chains_through(3), (std::vector<ChainId>{c2}));
  EXPECT_EQ(reg.chains_through(4), (std::vector<ChainId>{c1, c2}));
  EXPECT_TRUE(reg.chains_through(99).empty());
}

TEST(ChainRegistry, PositionOf) {
  ChainRegistry reg;
  const ChainId c = reg.add("c", {7, 8, 9});
  EXPECT_EQ(reg.position_of(c, 7), 0);
  EXPECT_EQ(reg.position_of(c, 8), 1);
  EXPECT_EQ(reg.position_of(c, 9), 2);
  EXPECT_EQ(reg.position_of(c, 10), -1);
}

TEST(ChainRegistry, RepeatedNfInChainIndexedOnce) {
  ChainRegistry reg;
  const ChainId c = reg.add("loop", {1, 2, 1});
  EXPECT_EQ(reg.chains_through(1), (std::vector<ChainId>{c}));
  EXPECT_EQ(reg.position_of(c, 1), 0);  // first occurrence
}

TEST(ChainRegistry, SingleNfChain) {
  ChainRegistry reg;
  const ChainId c = reg.add("solo", {0});
  EXPECT_EQ(reg.get(c).length(), 1u);
}

TEST(ChainRegistry, LongChain) {
  // Fig. 16 uses chains up to length 10.
  ChainRegistry reg;
  std::vector<NfId> hops;
  for (NfId i = 0; i < 10; ++i) hops.push_back(i);
  const ChainId c = reg.add("len10", hops);
  EXPECT_EQ(reg.get(c).length(), 10u);
}

}  // namespace
}  // namespace nfv::flow
