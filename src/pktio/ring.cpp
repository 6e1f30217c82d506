#include "pktio/ring.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace nfv::pktio {

Ring::Ring(std::uint32_t capacity, double high_watermark, double low_watermark) {
  capacity_ = std::bit_ceil(std::max<std::uint32_t>(capacity, 2));
  mask_ = capacity_ - 1;
  slots_ = std::make_unique_for_overwrite<Mbuf*[]>(capacity_);
  high_watermark = std::clamp(high_watermark, 0.0, 1.0);
  low_watermark = std::clamp(low_watermark, 0.0, high_watermark);
  high_mark_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(high_watermark *
                                              static_cast<double>(capacity_))));
  low_mark_ = static_cast<std::size_t>(
      std::lround(low_watermark * static_cast<double>(capacity_)));
}

EnqueueResult Ring::enqueue(Mbuf* mbuf) {
  if (count_ == capacity_) return EnqueueResult::kFull;
  slots_[tail_] = mbuf;
  tail_ = (tail_ + 1) & mask_;
  ++count_;
  return count_ >= high_mark_ ? EnqueueResult::kOkOverloaded : EnqueueResult::kOk;
}

std::size_t Ring::enqueue_burst(Mbuf* const* in, std::size_t n) {
  const std::size_t accepted = std::min(n, capacity_ - count_);
  for (std::size_t i = 0; i < accepted; ++i) {
    slots_[tail_] = in[i];
    tail_ = (tail_ + 1) & mask_;
  }
  count_ += accepted;
  return accepted;
}

Mbuf* Ring::dequeue() {
  if (count_ == 0) return nullptr;
  Mbuf* mbuf = slots_[head_];
  head_ = (head_ + 1) & mask_;
  --count_;
  return mbuf;
}

std::size_t Ring::dequeue_burst(Mbuf** out, std::size_t max) {
  const std::size_t n = std::min(max, count_);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = slots_[head_];
    head_ = (head_ + 1) & mask_;
  }
  count_ -= n;
  return n;
}

Cycles Ring::head_enqueue_time() const {
  if (count_ == 0) return 0;
  return slots_[head_]->enqueue_time;
}

}  // namespace nfv::pktio
