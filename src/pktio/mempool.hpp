// Capacity-bounded mbuf pool (DPDK rte_mempool stand-in).
//
// The pool reserves storage for `capacity` mbufs up front but builds a slot
// only when it is first handed out: alloc() pops the most recently freed
// slot, else builds the next never-used slot, else fails. That is the LIFO
// order of a stack pre-filled with every slot [capacity-1 ... 0], index 0
// on top — the hand-out order reports and traces depend on — while set-up
// does no per-slot work and memory follows the peak number of mbufs in
// use, not the cap. An mbuf's address is stable for the pool's lifetime.
#pragma once

#include <cstdint>
#include <vector>

#include "pktio/mbuf.hpp"

namespace nfv::pktio {

class MbufPool {
 public:
  explicit MbufPool(std::uint32_t capacity);
  ~MbufPool();

  MbufPool(const MbufPool&) = delete;
  MbufPool& operator=(const MbufPool&) = delete;

  /// Allocate one mbuf; returns nullptr when the pool is exhausted (the Rx
  /// path then loses the packet at the wire, as a NIC under mbuf pressure).
  Mbuf* alloc();

  /// Allocate `n` mbufs into `out`, all-or-nothing (DPDK
  /// rte_pktmbuf_alloc_bulk semantics): returns `n` on success, 0 — with
  /// `out` untouched and one alloc failure counted — when fewer than `n`
  /// buffers are free.
  std::uint32_t alloc_burst(Mbuf** out, std::uint32_t n);

  /// Return an mbuf to the pool. The mbuf must have come from this pool and
  /// must not be referenced afterwards. Debug builds assert on double free
  /// (a release-build double free silently corrupts the free list: the slot
  /// gets handed out twice and two owners scribble over each other).
  void free(Mbuf* mbuf);

  /// Return `n` mbufs; equivalent to calling free() on each in order.
  void free_burst(Mbuf* const* mbufs, std::uint32_t n);

  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint32_t in_use() const {
    return fresh_ - static_cast<std::uint32_t>(free_list_.size());
  }
  /// Buffers an alloc_burst could take right now.
  [[nodiscard]] std::uint32_t available() const {
    return capacity_ - in_use();
  }
  [[nodiscard]] std::uint64_t alloc_failures() const { return alloc_failures_; }

 private:
  std::uint32_t capacity_;
  /// Slots [0, fresh_) have been handed out at least once; the rest of the
  /// storage is raw and never written.
  std::uint32_t fresh_ = 0;
  Mbuf* slots_ = nullptr;  ///< Raw storage for capacity_ slots.
  /// Freed slots, most recent on top.
  std::vector<std::uint32_t> free_list_;
  std::uint64_t alloc_failures_ = 0;
#ifndef NDEBUG
  std::vector<bool> is_free_;  ///< Debug-only double-free detector.
#endif
};

}  // namespace nfv::pktio
