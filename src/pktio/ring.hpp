// Bounded descriptor ring with watermark feedback (rte_ring stand-in).
//
// NFVnice's overload detection rides on the enqueue path: "Using a single
// DPDK enqueue interface, the Tx thread enqueues a packet to an NF's Rx
// queue if the queue is below the high watermark, while getting feedback
// about the queue's state in the return value" (§3.5). Enqueue here returns
// that same tri-state. Watermarks are fractions of capacity; §4.3.8 tunes
// them to HIGH=80% with a margin of 20 points (LOW=60%).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "pktio/mbuf.hpp"

namespace nfv::pktio {

enum class EnqueueResult {
  kOk,             ///< Enqueued; queue below high watermark.
  kOkOverloaded,   ///< Enqueued; queue length is at/above the high watermark.
  kFull,           ///< Ring full; caller must drop or retry.
};

class Ring {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2), matching
  /// rte_ring semantics. Watermarks are fractions of the rounded capacity.
  explicit Ring(std::uint32_t capacity, double high_watermark = 0.80,
                double low_watermark = 0.60);

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  EnqueueResult enqueue(Mbuf* mbuf);

  /// Enqueue up to `n` descriptors from `in`; returns the number accepted
  /// (fewer than `n` when the ring fills mid-burst, matching DPDK's
  /// variable-count rte_ring_enqueue_burst). Watermark feedback is read
  /// separately via above_high_watermark().
  std::size_t enqueue_burst(Mbuf* const* in, std::size_t n);

  /// Dequeue one descriptor; nullptr when empty.
  Mbuf* dequeue();

  /// Dequeue up to `max` descriptors into `out`; returns count.
  std::size_t dequeue_burst(Mbuf** out, std::size_t max);

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool full() const { return count_ == capacity_; }

  [[nodiscard]] std::size_t high_watermark() const { return high_mark_; }
  [[nodiscard]] std::size_t low_watermark() const { return low_mark_; }
  [[nodiscard]] bool above_high_watermark() const { return count_ >= high_mark_; }
  [[nodiscard]] bool below_low_watermark() const { return count_ < low_mark_; }

  /// Oldest enqueue_time in the ring (for the queuing-time threshold in the
  /// backpressure state machine); 0 when empty.
  [[nodiscard]] Cycles head_enqueue_time() const;

 private:
  std::size_t capacity_;
  std::size_t mask_;
  std::size_t high_mark_;
  std::size_t low_mark_;
  /// Not filled: a slot is written before it is read, so construction
  /// touches none of the storage.
  std::unique_ptr<Mbuf*[]> slots_;
  std::size_t head_ = 0;  // next dequeue position
  std::size_t tail_ = 0;  // next enqueue position
  std::size_t count_ = 0;
};

}  // namespace nfv::pktio
