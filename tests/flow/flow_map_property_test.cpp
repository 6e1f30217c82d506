// Differential / property harness for the flow-state library.
//
// The library replaces std::unordered_map under every per-flow code path
// (flow table, NAT, LB, firewall, monitor), so correctness is proven by
// lockstep execution against reference models:
//
//  * FlowMap vs std::unordered_map — fixed-seed randomized op sequences
//    (insert / erase / lookup) held at target load factors {0.25, 0.5,
//    0.85}, 10 seeds x 100k ops each, agreement asserted per op and full
//    observable state compared periodically. A colliding-hash variant
//    forces long probe chains so backward-shift deletion is exercised hard.
//  * FlowStore vs an unordered_map + intrusive-LRU-list reference — the
//    full stateful-NF op mix (install / lookup-touch / erase / expire /
//    LRU-evict), with the whole chain order compared against the reference
//    list after every batch.
//
// Plus the library's safety invariants, checked directly:
//  * the index pool never double-hands an id (alloc'd ids are tracked in a
//    shadow set; a second hand-out of a live id fails the test),
//  * the expirator never frees a live index (the expire callback observes
//    the id still allocated, already unlinked; afterwards it is free),
//  * sweep order matches last-touch order (expired keys come back exactly
//    in the reference LRU order).
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "flow/expirator.hpp"
#include "flow/flow_map.hpp"
#include "flow/flow_store.hpp"
#include "flow/index_pool.hpp"
#include "pktio/flow_key.hpp"

namespace nfv::flow {
namespace {

using pktio::FlowKey;
using pktio::FlowKeyHash;

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};
constexpr std::size_t kOpsPerSeed = 100'000;

/// Expand a dense id into a unique 5-tuple (distinct (src_ip, dst_ip)
/// pair per id for any id < 65521 * 251).
FlowKey key_of_id(std::uint64_t id) {
  FlowKey k;
  k.src_ip = 0x0a000000u + static_cast<std::uint32_t>(id % 65521);
  k.dst_ip = 0x0a800001u + static_cast<std::uint32_t>((id / 65521) % 251);
  k.src_port = static_cast<std::uint16_t>(1024 + id % 50000);
  k.dst_port = 80;
  k.proto = (id & 1) != 0 ? pktio::kProtoTcp : pktio::kProtoUdp;
  return k;
}

// ---------------------------------------------------------------------------
// FlowMap vs std::unordered_map
// ---------------------------------------------------------------------------

template <typename Map, typename Ref>
void compare_full_state(const Map& map, const Ref& ref) {
  ASSERT_EQ(map.size(), ref.size());
  std::size_t walked = 0;
  map.for_each([&](const FlowKey& key, std::uint32_t value) {
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "map holds a key the reference lacks";
    ASSERT_EQ(it->second, value);
    ++walked;
  });
  ASSERT_EQ(walked, ref.size());
  for (const auto& [key, value] : ref) {
    const std::uint32_t* found = map.find(key);
    ASSERT_NE(found, nullptr) << "reference holds a key the map lacks";
    ASSERT_EQ(*found, value);
  }
}

/// One fixed-seed differential run held at `load_factor` occupancy.
template <typename Hash>
void run_map_differential(std::uint64_t seed, double load_factor,
                          std::size_t ops) {
  constexpr std::size_t kCapacity = 1 << 16;
  const auto target = static_cast<std::size_t>(load_factor * kCapacity);
  ASSERT_LT(target, kCapacity - 1);

  FlowMap<FlowKey, std::uint32_t, Hash> map(kCapacity);
  std::unordered_map<FlowKey, std::uint32_t, FlowKeyHash> ref;
  std::vector<FlowKey> live;  // random-victim erase in O(1)
  Rng rng(seed);
  const std::uint64_t key_space = target * 2 + 16;

  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t r = rng.next_below(100);
    if (ref.size() < target && r < 60) {
      // Fill toward the target load factor.
      const FlowKey key = key_of_id(rng.next_below(key_space));
      const bool in_ref = ref.find(key) != ref.end();
      std::uint32_t* found = map.find(key);
      ASSERT_EQ(in_ref, found != nullptr);
      if (!in_ref) {
        const auto value = static_cast<std::uint32_t>(rng.next_u64());
        ASSERT_TRUE(map.insert(key, value));
        ref.emplace(key, value);
        live.push_back(key);
      }
    } else if (!live.empty() && r < 80) {
      // Erase a uniformly random live key (exercises backward shift).
      const std::size_t j = rng.next_below(live.size());
      const FlowKey key = live[j];
      live[j] = live.back();
      live.pop_back();
      ASSERT_TRUE(map.erase(key));
      ASSERT_EQ(ref.erase(key), 1u);
      ASSERT_EQ(map.find(key), nullptr);
      ASSERT_FALSE(map.erase(key)) << "double erase reported success";
    } else {
      // Lookup (roughly 50% hit rate over the key space).
      const FlowKey key = key_of_id(rng.next_below(key_space));
      const auto it = ref.find(key);
      const std::uint32_t* found = map.find(key);
      if (it == ref.end()) {
        ASSERT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        ASSERT_EQ(*found, it->second);
      }
    }
    if ((i & 0x3fff) == 0x3fff) {
      compare_full_state(map, ref);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  compare_full_state(map, ref);
}

class FlowMapDifferential : public testing::TestWithParam<double> {};

TEST_P(FlowMapDifferential, LockstepWithUnorderedMap) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    run_map_differential<FlowKeyFastHash>(seed, GetParam(), kOpsPerSeed);
    if (testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(LoadFactors, FlowMapDifferential,
                         testing::Values(0.25, 0.5, 0.85),
                         [](const auto& load) {
                           return "lf" + std::to_string(static_cast<int>(
                                             load.param * 100));
                         });

/// Pathological hash: 16 distinct values, so every op lands in a handful of
/// giant probe clusters and erase must repeatedly backward-shift long runs.
struct CollidingHash {
  std::uint64_t operator()(const FlowKey& key) const {
    return FlowKeyFastHash{}(key) & 0xf;
  }
};

TEST(FlowMapDifferential, SurvivesPathologicalCollisions) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // Low occupancy numbers but enormous clusters relative to capacity.
    run_map_differential<CollidingHash>(seed, 0.25, 20'000);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(FlowMap, BatchedLookupMatchesScalar) {
  constexpr std::size_t kN = 4096;
  FlowMap<> map(1 << 13);
  Rng rng(0xba7c4);
  for (std::size_t i = 0; i < kN / 2; ++i) {
    map.insert(key_of_id(i * 2), static_cast<std::uint32_t>(i));
  }
  std::vector<FlowKey> keys;
  keys.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    keys.push_back(key_of_id(rng.next_below(kN)));  // ~50% hits
  }
  std::vector<std::uint32_t*> batched(kN);
  map.find_batch(keys.data(), kN, batched.data());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(batched[i], map.find(keys[i])) << "index " << i;
  }
}

TEST(FlowMap, RefusesInsertAtOccupancyLimit) {
  FlowMap<> map(8);
  for (std::size_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(map.insert(key_of_id(i), static_cast<std::uint32_t>(i)));
  }
  // One empty slot must always remain so unsuccessful probes terminate.
  EXPECT_FALSE(map.insert(key_of_id(7), 7));
  EXPECT_EQ(map.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_NE(map.find(key_of_id(i)), nullptr);
  }
  EXPECT_EQ(map.find(key_of_id(7)), nullptr);
}

// ---------------------------------------------------------------------------
// IndexPool: never double-hands an id
// ---------------------------------------------------------------------------

TEST(IndexPool, NeverHandsOutALiveIndex) {
  constexpr std::uint32_t kCapacity = 512;
  IndexPool pool(kCapacity);
  std::unordered_set<std::uint32_t> shadow;  // ids we believe are live
  std::vector<std::uint32_t> live;
  Rng rng(0x1dc001);

  for (std::size_t op = 0; op < 50'000; ++op) {
    if (live.empty() || (pool.available() > 0 && rng.next_below(2) == 0)) {
      const std::uint32_t idx = pool.alloc();
      ASSERT_NE(idx, IndexPool::kNoIndex);
      ASSERT_LT(idx, kCapacity);
      ASSERT_TRUE(shadow.insert(idx).second)
          << "pool double-handed id " << idx;
      ASSERT_TRUE(pool.is_allocated(idx));
      live.push_back(idx);
    } else {
      const std::size_t j = rng.next_below(live.size());
      const std::uint32_t idx = live[j];
      live[j] = live.back();
      live.pop_back();
      pool.free(idx);
      ASSERT_EQ(shadow.erase(idx), 1u);
      ASSERT_FALSE(pool.is_allocated(idx));
    }
    ASSERT_EQ(pool.allocated(), shadow.size());
  }
}

TEST(IndexPool, FreshIndicesAscendAndExhaustionReturnsNoIndex) {
  IndexPool pool(4);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(pool.alloc(), i);
  EXPECT_EQ(pool.alloc(), IndexPool::kNoIndex);
  pool.free(2);
  EXPECT_EQ(pool.alloc(), 2u);  // most-recently-freed first
  EXPECT_EQ(pool.alloc(), IndexPool::kNoIndex);
}

TEST(IndexPool, GrowAppendsFreshIndicesInOrder) {
  IndexPool pool(2);
  EXPECT_EQ(pool.alloc(), 0u);
  EXPECT_EQ(pool.alloc(), 1u);
  pool.grow(5);
  EXPECT_EQ(pool.capacity(), 5u);
  EXPECT_EQ(pool.alloc(), 2u);
  EXPECT_EQ(pool.alloc(), 3u);
  EXPECT_EQ(pool.alloc(), 4u);
  EXPECT_TRUE(pool.is_allocated(1));
}

// ---------------------------------------------------------------------------
// FlowStore vs unordered_map + LRU-list reference
// ---------------------------------------------------------------------------

struct RefLru {
  struct Node {
    FlowKey key;
    Cycles last_touch;
  };
  std::list<Node> order;  // front = oldest touch, back = newest
  std::unordered_map<FlowKey, std::list<Node>::iterator, FlowKeyHash> index;

  bool contains(const FlowKey& key) const {
    return index.find(key) != index.end();
  }
  void touch(const FlowKey& key, Cycles now) {
    auto it = index.at(key);
    it->last_touch = now;
    order.splice(order.end(), order, it);
  }
  void insert(const FlowKey& key, Cycles now) {
    order.push_back({key, now});
    index.emplace(key, std::prev(order.end()));
  }
  void erase(const FlowKey& key) {
    // `key` may alias the node being freed (expire_before passes a
    // reference into order.front()), so resolve the index entry first and
    // erase it by iterator — never hash the key after the node is gone.
    auto it = index.find(key);
    order.erase(it->second);
    index.erase(it);
  }
  FlowKey evict_oldest() {
    const FlowKey victim = order.front().key;
    erase(victim);
    return victim;
  }
  std::vector<FlowKey> expire_before(Cycles deadline) {
    std::vector<FlowKey> out;
    while (!order.empty() && order.front().last_touch < deadline) {
      out.push_back(order.front().key);
      erase(order.front().key);
    }
    return out;
  }
};

using Store = FlowStore<FlowKey, std::uint32_t>;

/// Chain order, pool bookkeeping, and sizes must agree with the reference
/// after any op sequence.
void compare_store_state(const Store& store, const RefLru& ref) {
  ASSERT_EQ(store.size(), ref.index.size());
  ASSERT_EQ(store.pool().allocated(), ref.index.size());
  ASSERT_EQ(store.expirator().size(), ref.index.size());
  ASSERT_EQ(store.map().size(), ref.index.size());
  auto it = ref.order.begin();
  std::size_t walked = 0;
  bool order_ok = true;
  store.for_each([&](std::uint32_t idx, const FlowKey& key,
                     const std::uint32_t&) {
    if (it == ref.order.end() || !(it->key == key) ||
        store.expirator().last_touch(idx) != it->last_touch) {
      order_ok = false;
    } else {
      ++it;
    }
    ++walked;
  });
  ASSERT_TRUE(order_ok) << "chain order diverged from reference LRU order";
  ASSERT_EQ(walked, ref.index.size());
}

TEST(FlowStoreDifferential, FullOpMixLockstepWithLruReference) {
  constexpr std::uint32_t kMaxFlows = 4096;
  constexpr Cycles kTimeout = 5'000;
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Store store(Store::Config{.max_flows = kMaxFlows,
                              .idle_timeout = kTimeout,
                              .evict_lru_when_full = true,
                              .auto_grow = false});
    RefLru ref;
    std::vector<FlowKey> evicted;
    store.set_evict_listener(
        [&](std::uint32_t, const FlowKey& key, std::uint32_t&) {
          evicted.push_back(key);
        });
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    Cycles now = 0;
    const std::uint64_t key_space = kMaxFlows * 3;

    for (std::size_t op = 0; op < kOpsPerSeed; ++op) {
      now += 1 + static_cast<Cycles>(rng.next_below(7));
      const std::uint64_t r = rng.next_below(100);
      const FlowKey key = key_of_id(rng.next_below(key_space));
      if (r < 55) {
        // install: get-or-create, touching; may LRU-evict at capacity.
        const bool was_hit = ref.contains(key);
        const bool was_full = ref.index.size() == kMaxFlows;
        evicted.clear();
        const auto result = store.install(key, now);
        ASSERT_TRUE(store.pool().is_allocated(result.index));
        ASSERT_EQ(store.key_of(result.index), key);
        if (was_hit) {
          ASSERT_EQ(result.path, StorePath::kHit);
          ASSERT_TRUE(evicted.empty());
          ref.touch(key, now);
        } else if (was_full) {
          ASSERT_EQ(result.path, StorePath::kEvicted);
          const FlowKey victim = ref.evict_oldest();
          ASSERT_EQ(evicted.size(), 1u);
          ASSERT_EQ(evicted.front(), victim);
          ref.insert(key, now);
        } else {
          ASSERT_EQ(result.path, StorePath::kNew);
          ASSERT_TRUE(evicted.empty());
          ref.insert(key, now);
        }
      } else if (r < 75) {
        // lookup: touching on hit, kNoIndex on miss.
        const std::uint32_t idx = store.lookup(key, now);
        if (ref.contains(key)) {
          ASSERT_NE(idx, Store::kNoIndex);
          ASSERT_EQ(store.key_of(idx), key);
          ref.touch(key, now);
        } else {
          ASSERT_EQ(idx, Store::kNoIndex);
        }
      } else if (r < 85) {
        // erase by key.
        ASSERT_EQ(store.erase(key), ref.contains(key));
        if (ref.contains(key)) ref.erase(key);
      } else if (r < 97) {
        // peek: side-effect free.
        ASSERT_EQ(store.peek(key) != Store::kNoIndex, ref.contains(key));
      } else {
        // expire: sweep order must match reference last-touch order, the
        // callback must observe the id still allocated but already
        // unlinked, and afterwards every swept id must be free.
        std::vector<FlowKey> swept;
        std::vector<std::uint32_t> swept_ids;
        const std::size_t n =
            store.expire(now, [&](std::uint32_t idx, const FlowKey& k,
                                  std::uint32_t&) {
              EXPECT_TRUE(store.pool().is_allocated(idx))
                  << "expirator freed a live index before the callback";
              EXPECT_FALSE(store.expirator().linked(idx));
              swept.push_back(k);
              swept_ids.push_back(idx);
            });
        const std::vector<FlowKey> expected =
            ref.expire_before(now - kTimeout);
        ASSERT_EQ(n, expected.size());
        ASSERT_EQ(swept, expected)
            << "sweep order diverged from last-touch order";
        for (const std::uint32_t idx : swept_ids) {
          ASSERT_FALSE(store.pool().is_allocated(idx));
        }
      }
      if ((op & 0xfff) == 0xfff) {
        compare_store_state(store, ref);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
    compare_store_state(store, ref);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(FlowStoreDifferential, AutoGrowPreservesEveryLiveFlow) {
  Store store(Store::Config{.max_flows = 64,
                            .idle_timeout = 0,
                            .evict_lru_when_full = false,
                            .auto_grow = true});
  std::unordered_map<FlowKey, std::uint32_t, FlowKeyHash> ref;
  Rng rng(0xa110c);
  Cycles now = 0;
  for (std::size_t op = 0; op < 20'000; ++op) {
    ++now;
    const FlowKey key = key_of_id(rng.next_below(8192));
    const std::uint64_t r = rng.next_below(10);
    if (r < 7) {
      const auto result = store.install(key, now);
      store.state(result.index) = static_cast<std::uint32_t>(now);
      ref[key] = static_cast<std::uint32_t>(now);
    } else if (r < 8) {
      const bool present = ref.find(key) != ref.end();
      ASSERT_EQ(store.erase(key), present);
      ref.erase(key);
    } else {
      const std::uint32_t idx = store.peek(key);
      const auto it = ref.find(key);
      ASSERT_EQ(idx != Store::kNoIndex, it != ref.end());
      if (it != ref.end()) {
        ASSERT_EQ(store.state(idx), it->second);
      }
    }
  }
  ASSERT_EQ(store.size(), ref.size());
  ASSERT_GT(store.max_flows(), 64u) << "growth never triggered";
  for (const auto& [key, value] : ref) {
    const std::uint32_t idx = store.peek(key);
    ASSERT_NE(idx, Store::kNoIndex);
    ASSERT_EQ(store.state(idx), value);
  }
}

TEST(Expirator, TouchMovesToTailAndSweepPopsOldestFirst) {
  Expirator chain(8);
  chain.push_back(0, 10);
  chain.push_back(1, 20);
  chain.push_back(2, 30);
  chain.touch(0, 40);  // order now 1, 2, 0
  EXPECT_EQ(chain.oldest(), 1u);
  EXPECT_EQ(chain.newest(), 0u);
  std::vector<std::uint32_t> popped;
  EXPECT_EQ(chain.expire_before(35, [&](std::uint32_t i) {
    popped.push_back(i);
  }), 2u);
  EXPECT_EQ(popped, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(chain.size(), 1u);
  EXPECT_TRUE(chain.linked(0));
}

TEST(FlowStoreDifferential, SameSeedReproducesIdenticalFinalState) {
  auto fingerprint = [](std::uint64_t seed) {
    Store store(Store::Config{.max_flows = 512,
                              .idle_timeout = 1000,
                              .evict_lru_when_full = true,
                              .auto_grow = false});
    Rng rng(seed);
    Cycles now = 0;
    for (std::size_t op = 0; op < 30'000; ++op) {
      now += 1 + static_cast<Cycles>(rng.next_below(5));
      const FlowKey key = key_of_id(rng.next_below(2048));
      const std::uint64_t r = rng.next_below(10);
      if (r < 6) {
        store.install(key, now);
      } else if (r < 8) {
        (void)store.lookup(key, now);
      } else if (r < 9) {
        store.erase(key);
      } else {
        store.expire(now);
      }
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    store.for_each([&](std::uint32_t idx, const FlowKey& key,
                       const std::uint32_t&) {
      h = (h ^ key.src_ip) * 0x100000001b3ULL;
      h = (h ^ key.src_port) * 0x100000001b3ULL;
      h = (h ^ idx) * 0x100000001b3ULL;
    });
    h ^= store.hits() + store.misses() * 31 + store.lru_evictions() * 131 +
         store.expirations() * 1031;
    return h;
  };
  for (const std::uint64_t seed : kSeeds) {
    EXPECT_EQ(fingerprint(seed), fingerprint(seed)) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace nfv::flow
