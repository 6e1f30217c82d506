// Exact-match flow table: 5-tuple -> (flow id, service chain).
//
// The NF Manager's Rx threads "do a lookup in the Flow Table to direct the
// packet to the appropriate NF" (§3.1). Rules are installed by the Flow
// Rule Installer (our benches install them directly); each rule assigns the
// flow a dense id used for per-flow statistics and ECN bookkeeping.
//
// Backed by the flow-state library (FlowStore: open-addressing FlowMap +
// IndexPool + Expirator) instead of std::unordered_map, so the data-plane
// lookup is one probe over flat slots and — when an idle timeout is
// configured — flows age out of the table in O(expired) sweeps, their dense
// ids returning to the pool for reuse. The default configuration (grow on
// demand, no expiry) reproduces the historical behaviour exactly: ids are
// handed out 0,1,2,... and never reclaimed.
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.hpp"
#include "flow/flow_store.hpp"
#include "flow/service_chain.hpp"
#include "pktio/flow_key.hpp"

namespace nfv::flow {

using FlowId = std::uint32_t;

struct FlowEntry {
  FlowId flow_id = 0;
  ChainId chain = kInvalidChain;
  pktio::FlowKey key;
};

class FlowTable {
 public:
  struct Config {
    /// Initial arena size; the table doubles itself when full.
    std::uint32_t initial_capacity = 1024;
    /// Cycles without a matching packet after which the periodic sweep
    /// reclaims a flow (its dense id is reused). 0 = flows never expire —
    /// the historical behaviour, and the default.
    Cycles idle_timeout = 0;
    /// Expiry sweep cadence (only used when idle_timeout > 0).
    Cycles scan_period = 2'600'000;  ///< 1 ms at 2.6 GHz.
  };

  using ExpiryListener = std::function<void(const FlowEntry&)>;

  FlowTable() : FlowTable(Config{}) {}
  explicit FlowTable(Config config);

  /// Install a rule mapping `key` to `chain`. Returns the dense flow id
  /// (re-installing an existing key updates the chain, keeping the id).
  /// `now` stamps the flow's expiry slot when timeouts are on.
  FlowId install(const pktio::FlowKey& key, ChainId chain, Cycles now = 0);

  /// Lookup; nullptr on miss (the manager drops unmatched packets).
  [[nodiscard]] const FlowEntry* lookup(const pktio::FlowKey& key) const;

  /// Data-plane lookup for `packets` arrivals of `key`, the last at `now`:
  /// one probe that refreshes the flow's last-touch time, so active flows
  /// stay ahead of the expiry sweep, and counts `packets` hits or misses.
  [[nodiscard]] const FlowEntry* lookup(const pktio::FlowKey& key, Cycles now,
                                        std::uint64_t packets = 1);

  /// Reclaim flows idle past the timeout as of `now`; returns the number
  /// expired. The expiry listener (if any) sees each entry before its id
  /// is freed. No-op when idle_timeout is 0.
  std::size_t expire(Cycles now);

  /// Fires once per expired flow, before the id returns to the pool.
  void set_expiry_listener(ExpiryListener listener) {
    expiry_listener_ = std::move(listener);
  }

  [[nodiscard]] const FlowEntry& entry(FlowId id) const {
    return store_.state(id);
  }
  [[nodiscard]] std::size_t size() const { return store_.size(); }
  [[nodiscard]] double load_factor() const { return store_.load_factor(); }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t installs() const { return store_.installs(); }
  [[nodiscard]] std::uint64_t expirations() const {
    return store_.expirations();
  }

  [[nodiscard]] bool expiry_enabled() const { return config_.idle_timeout > 0; }
  [[nodiscard]] Cycles idle_timeout() const { return config_.idle_timeout; }
  [[nodiscard]] Cycles scan_period() const { return config_.scan_period; }

  /// The underlying store (invariant checks in tests).
  [[nodiscard]] const FlowStore<pktio::FlowKey, FlowEntry>& store() const {
    return store_;
  }

 private:
  Config config_;
  FlowStore<pktio::FlowKey, FlowEntry> store_;
  ExpiryListener expiry_listener_;
  // Lookup accounting only: installs don't count as table traffic (the
  // historical counter semantics, pinned by flow_table_test).
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace nfv::flow
