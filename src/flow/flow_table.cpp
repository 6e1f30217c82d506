#include "flow/flow_table.hpp"

namespace nfv::flow {

namespace {

FlowStore<pktio::FlowKey, FlowEntry>::Config store_config(
    const FlowTable::Config& cfg) {
  FlowStore<pktio::FlowKey, FlowEntry>::Config sc;
  sc.max_flows = cfg.initial_capacity;
  sc.idle_timeout = cfg.idle_timeout;
  // The platform table must accept every rule the installer pushes: grow
  // on demand, never evict a live rule to make room.
  sc.auto_grow = true;
  sc.evict_lru_when_full = false;
  return sc;
}

}  // namespace

FlowTable::FlowTable(Config config)
    : config_(config), store_(store_config(config)) {}

FlowId FlowTable::install(const pktio::FlowKey& key, ChainId chain,
                          Cycles now) {
  const auto result = store_.install(key, now);
  FlowEntry& entry = store_.state(result.index);
  if (result.path == StorePath::kHit) {
    entry.chain = chain;
    return entry.flow_id;
  }
  entry.flow_id = result.index;
  entry.chain = chain;
  entry.key = key;
  return result.index;
}

const FlowEntry* FlowTable::lookup(const pktio::FlowKey& key) const {
  const std::uint32_t idx = store_.peek(key);
  if (idx == FlowStore<pktio::FlowKey, FlowEntry>::kNoIndex) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &store_.state(idx);
}

const FlowEntry* FlowTable::lookup(const pktio::FlowKey& key, Cycles now,
                                   std::uint64_t packets) {
  const std::uint32_t idx = store_.lookup(key, now);
  if (idx == FlowStore<pktio::FlowKey, FlowEntry>::kNoIndex) {
    misses_ += packets;
    return nullptr;
  }
  hits_ += packets;
  return &store_.state(idx);
}

std::size_t FlowTable::expire(Cycles now) {
  return store_.expire(now, [this](std::uint32_t, const pktio::FlowKey&,
                                   FlowEntry& entry) {
    if (expiry_listener_) expiry_listener_(entry);
  });
}

}  // namespace nfv::flow
