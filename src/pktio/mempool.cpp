#include "pktio/mempool.hpp"

#include <cassert>
#include <memory>
#include <new>
#include <type_traits>

namespace nfv::pktio {

// Built slots are never destroyed one by one: the storage is released whole.
static_assert(std::is_trivially_destructible_v<Mbuf>);

MbufPool::MbufPool(std::uint32_t capacity) : capacity_(capacity) {
  free_list_.reserve(capacity);
#ifndef NDEBUG
  is_free_.assign(capacity, true);
#endif
  // Last, so nothing that can throw runs between it and the destructor.
  slots_ = std::allocator<Mbuf>().allocate(capacity);
}

MbufPool::~MbufPool() { std::allocator<Mbuf>().deallocate(slots_, capacity_); }

Mbuf* MbufPool::alloc() {
  std::uint32_t index = fresh_;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
  } else if (fresh_ < capacity_) {
    ++fresh_;
  } else {
    ++alloc_failures_;
    return nullptr;
  }
#ifndef NDEBUG
  is_free_[index] = false;
#endif
  // Fresh metadata on every hand-out; only the identity field is set.
  Mbuf* mbuf = ::new (slots_ + index) Mbuf{};
  mbuf->pool_index = index;
  return mbuf;
}

std::uint32_t MbufPool::alloc_burst(Mbuf** out, std::uint32_t n) {
  if (available() < n) {
    ++alloc_failures_;
    return 0;
  }
  for (std::uint32_t i = 0; i < n; ++i) out[i] = alloc();
  return n;
}

void MbufPool::free(Mbuf* mbuf) {
  assert(mbuf != nullptr);
  assert(mbuf >= slots_ && mbuf < slots_ + fresh_ &&
         "mbuf does not belong to this pool");
  assert(mbuf == slots_ + mbuf->pool_index && "corrupted pool_index");
#ifndef NDEBUG
  assert(!is_free_[mbuf->pool_index] && "double free of mbuf");
  is_free_[mbuf->pool_index] = true;
#endif
  free_list_.push_back(mbuf->pool_index);
}

void MbufPool::free_burst(Mbuf* const* mbufs, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) free(mbufs[i]);
}

}  // namespace nfv::pktio
