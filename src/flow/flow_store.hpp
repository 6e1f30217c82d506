// FlowStore: the map / index-pool / expirator composite every stateful
// per-flow code path sits on (the vigor map + vector + double-chain idiom).
//
//   FlowMap     key -> dense index          (open addressing, flat slots)
//   IndexPool   allocates the dense index   (free list, double-free checks)
//   Expirator   orders indices by last touch (intrusive LRU chain)
//   keys_/states_  per-index arenas          (the "vectors")
//
// All four structures are sized at construction; install/lookup/expire
// allocate nothing in steady state. When the arena is exhausted the store
// either evicts the least-recently-touched flow (middlebox tables: NAT port
// exhaustion, monitor caches) or — for the platform flow table, which must
// keep growing like the unordered_map it replaced — doubles the arena and
// rebuilds the map, preserving every live index and the chain order.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/time.hpp"
#include "flow/expirator.hpp"
#include "flow/flow_map.hpp"
#include "flow/index_pool.hpp"
#include "pktio/flow_key.hpp"

namespace nfv::flow {

/// Which path an install() took — the per-packet cost classes of a real
/// stateful NF (hit refreshes state, a miss allocates, an eviction tears
/// down one flow to admit another).
enum class StorePath : std::uint8_t { kHit, kNew, kEvicted, kFull };

template <typename Key = pktio::FlowKey, typename State = std::uint32_t,
          typename Hash = FlowKeyFastHash>
class FlowStore {
 public:
  static constexpr std::uint32_t kNoIndex = IndexPool::kNoIndex;

  struct Config {
    std::uint32_t max_flows = 1024;
    /// Idle time after which expire() reclaims a flow; 0 = never.
    Cycles idle_timeout = 0;
    /// Full table: evict the least-recently-touched flow (true) or fail
    /// the install with kFull (false). Ignored when auto_grow is set.
    bool evict_lru_when_full = true;
    /// Full table: double max_flows and rebuild instead of evicting.
    bool auto_grow = false;
  };

  struct InstallResult {
    std::uint32_t index = kNoIndex;
    StorePath path = StorePath::kFull;
  };

  using EvictListener = std::function<void(std::uint32_t, const Key&, State&)>;

  explicit FlowStore(Config config)
      : config_(config),
        map_(derive_map_capacity(config.max_flows)),
        pool_(config.max_flows),
        chain_(config.max_flows),
        keys_(config.max_flows),
        states_(config.max_flows) {}

  /// Get-or-create the flow for `key`, touching its expiry slot. The path
  /// says whether this was a hit, a fresh install, or an install that had
  /// to evict the oldest flow; kFull only when eviction/growth are off.
  InstallResult install(const Key& key, Cycles now) {
    if (std::uint32_t* idx = map_.find(key)) {
      chain_.touch(*idx, now);
      ++hits_;
      return {*idx, StorePath::kHit};
    }
    ++misses_;
    StorePath path = StorePath::kNew;
    if (pool_.available() == 0) {
      if (config_.auto_grow) {
        grow();
      } else if (config_.evict_lru_when_full && chain_.size() > 0) {
        evict_oldest();
        path = StorePath::kEvicted;
      } else {
        return {kNoIndex, StorePath::kFull};
      }
    }
    const std::uint32_t idx = pool_.alloc();
    assert(idx != kNoIndex);
    keys_[idx] = key;
    states_[idx] = State{};
    const bool inserted = map_.insert(key, idx);
    assert(inserted && "map sized above the arena can never fill");
    (void)inserted;
    chain_.push_back(idx, now);
    ++installs_;
    return {idx, path};
  }

  /// Index of `key`, refreshing its expiry slot; kNoIndex on miss.
  std::uint32_t lookup(const Key& key, Cycles now) {
    if (std::uint32_t* idx = map_.find(key)) {
      chain_.touch(*idx, now);
      ++hits_;
      return *idx;
    }
    ++misses_;
    return kNoIndex;
  }

  /// Side-effect-free probe: no touch, no hit/miss accounting.
  [[nodiscard]] std::uint32_t peek(const Key& key) const {
    const std::uint32_t* idx = map_.find(key);
    return idx != nullptr ? *idx : kNoIndex;
  }

  /// Remove a flow by key; false when absent.
  bool erase(const Key& key) {
    std::uint32_t* idx = map_.find(key);
    if (idx == nullptr) return false;
    const std::uint32_t victim = *idx;
    map_.erase(key);
    chain_.remove(victim);
    pool_.free(victim);
    return true;
  }

  /// Reclaim flows idle for longer than idle_timeout as of `now`, oldest
  /// first; `fn(index, key, state)` runs for each while its arena slots
  /// are still intact. No-op (returns 0) when idle_timeout is 0.
  template <typename Fn>
  std::size_t expire(Cycles now, Fn&& fn) {
    if (config_.idle_timeout <= 0) return 0;
    const Cycles deadline = now - config_.idle_timeout;
    return chain_.expire_before(deadline, [&](std::uint32_t idx) {
      map_.erase(keys_[idx]);
      fn(idx, keys_[idx], states_[idx]);
      pool_.free(idx);
      ++expirations_;
    });
  }
  std::size_t expire(Cycles now) {
    return expire(now, [](std::uint32_t, const Key&, State&) {});
  }

  [[nodiscard]] State& state(std::uint32_t idx) {
    assert(pool_.is_allocated(idx));
    return states_[idx];
  }
  [[nodiscard]] const State& state(std::uint32_t idx) const {
    assert(pool_.is_allocated(idx));
    return states_[idx];
  }
  [[nodiscard]] const Key& key_of(std::uint32_t idx) const {
    assert(pool_.is_allocated(idx));
    return keys_[idx];
  }

  /// Visit every live flow in oldest-to-newest touch order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t idx = chain_.oldest(); idx != Expirator::kNil;
         idx = chain_.next_newer(idx)) {
      fn(idx, keys_[idx], states_[idx]);
    }
  }

  void set_evict_listener(EvictListener listener) {
    evict_listener_ = std::move(listener);
  }

  /// Flush every flow (e.g. a rule change invalidating a verdict cache).
  void clear() {
    map_.clear();
    chain_.clear();
    pool_.clear();
  }

  [[nodiscard]] std::size_t size() const { return chain_.size(); }
  [[nodiscard]] std::uint32_t max_flows() const { return pool_.capacity(); }
  [[nodiscard]] double load_factor() const { return map_.load_factor(); }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t installs() const { return installs_; }
  [[nodiscard]] std::uint64_t expirations() const { return expirations_; }
  [[nodiscard]] std::uint64_t lru_evictions() const { return lru_evictions_; }

  // Introspection for the property/invariant harness.
  [[nodiscard]] const IndexPool& pool() const { return pool_; }
  [[nodiscard]] const Expirator& expirator() const { return chain_; }
  [[nodiscard]] const FlowMap<Key, std::uint32_t, Hash>& map() const {
    return map_;
  }

 private:
  static std::uint32_t derive_map_capacity(std::uint32_t max_flows) {
    // Smallest power of two keeping occupancy <= ~0.85 when the arena is
    // full (and always at least one slot above it).
    std::uint32_t cap = 8;
    while (cap <= max_flows ||
           static_cast<double>(max_flows) > 0.85 * static_cast<double>(cap)) {
      cap <<= 1;
    }
    return cap;
  }

  void evict_oldest() {
    const std::uint32_t idx = chain_.oldest();
    assert(idx != Expirator::kNil);
    chain_.remove(idx);
    map_.erase(keys_[idx]);
    if (evict_listener_) evict_listener_(idx, keys_[idx], states_[idx]);
    pool_.free(idx);
    ++lru_evictions_;
  }

  void grow() {
    const std::uint32_t new_max = pool_.capacity() * 2;
    pool_.grow(new_max);
    chain_.grow(new_max);
    keys_.resize(new_max);
    states_.resize(new_max);
    FlowMap<Key, std::uint32_t, Hash> bigger(derive_map_capacity(new_max));
    for (std::uint32_t idx = chain_.oldest(); idx != Expirator::kNil;
         idx = chain_.next_newer(idx)) {
      bigger.insert(keys_[idx], idx);
    }
    map_ = std::move(bigger);
  }

  Config config_;
  FlowMap<Key, std::uint32_t, Hash> map_;
  IndexPool pool_;
  Expirator chain_;
  std::vector<Key> keys_;
  std::vector<State> states_;
  EvictListener evict_listener_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t installs_ = 0;
  std::uint64_t expirations_ = 0;
  std::uint64_t lru_evictions_ = 0;
};

}  // namespace nfv::flow
