// A stateful NF's FlowStore, built on the NF's first packet.
//
// A FlowStore sizes and zeroes every arena when it is constructed; for the
// middlebox tables here (65,536-flow caches, a 40,000-port NAT) that is
// megabytes of fresh pages. NFs are constructed while a topology is being
// set up, so an eager table charges its page faults to set-up, and an NF
// that never sees a packet pays them for nothing. The NFs below build
// their table on first use instead. FlowStore itself stays eager: a store
// that grew on demand would rehash inside the install path (DESIGN.md §13).
#pragma once

#include <optional>

namespace nfv::nfs {

template <typename Store>
class LazyFlowStore {
 public:
  explicit LazyFlowStore(typename Store::Config config) : config_(config) {}

  /// The store, built by the first call.
  Store& get() {
    if (!store_) store_.emplace(config_);
    return *store_;
  }

  /// The store for read-only queries: an empty one until get() built it.
  [[nodiscard]] const Store& view() const {
    if (store_) return *store_;
    static const Store empty(typename Store::Config{.max_flows = 1});
    return empty;
  }

  [[nodiscard]] bool built() const { return store_.has_value(); }

 private:
  typename Store::Config config_;
  std::optional<Store> store_;
};

}  // namespace nfv::nfs
