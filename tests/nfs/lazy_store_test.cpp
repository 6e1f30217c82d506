// Stateful NFs build their FlowStore on first use: before it, queries
// answer from an empty store; after it, the store is the NF's own.

#include "nfs/lazy_store.hpp"

#include <gtest/gtest.h>

#include "flow/flow_store.hpp"
#include "nfs/firewall.hpp"
#include "nfs/load_balancer.hpp"
#include "nfs/monitor.hpp"
#include "nfs/nat.hpp"

namespace nfv::nfs {
namespace {

using Store = flow::FlowStore<pktio::FlowKey, std::uint32_t>;

pktio::FlowKey key(std::uint32_t src) {
  return pktio::FlowKey{src, 2, 3, 4, pktio::kProtoUdp};
}

TEST(LazyFlowStore, BuiltByTheFirstGet) {
  LazyFlowStore<Store> lazy(Store::Config{.max_flows = 1u << 16});
  EXPECT_FALSE(lazy.built());
  EXPECT_EQ(lazy.view().size(), 0u);
  EXPECT_EQ(lazy.view().peek(key(1)), Store::kNoIndex);
  EXPECT_FALSE(lazy.built());  // queries do not build it

  const auto result = lazy.get().install(key(1), 10);
  EXPECT_TRUE(lazy.built());
  EXPECT_EQ(result.path, flow::StorePath::kNew);
  EXPECT_EQ(lazy.view().size(), 1u);
  EXPECT_EQ(lazy.view().peek(key(1)), result.index);
  EXPECT_EQ(&lazy.view(), &lazy.get());
}

TEST(LazyFlowStore, NfQueriesBeforeTheFirstPacket) {
  Firewall fw;
  EXPECT_EQ(fw.cached_flows(), 0u);
  fw.add_rule(FirewallRule{.name = "deny-udp", .proto = pktio::kProtoUdp,
                           .verdict = Verdict::kDeny});
  EXPECT_EQ(fw.evaluate_cached(key(1)).verdict, Verdict::kDeny);
  EXPECT_EQ(fw.cached_flows(), 1u);

  Nat nat;
  EXPECT_EQ(nat.active_bindings(), 0u);
  EXPECT_EQ(nat.binding(1, 4, pktio::kProtoUdp), 0u);

  FlowMonitor mon;
  EXPECT_EQ(mon.flow_count(), 0u);
  EXPECT_EQ(mon.cache_evictions(), 0u);
  EXPECT_TRUE(mon.top_talkers(3).empty());

  LoadBalancer lb({0x0a000001, 0x0a000002});
  EXPECT_EQ(lb.active_connections(), 0u);
  EXPECT_EQ(lb.connection_evictions(), 0u);
}

}  // namespace
}  // namespace nfv::nfs
