#include "sim/engine.hpp"

#include <algorithm>
#include <limits>

namespace nfv::sim {

/// Destroy the slot's callback and return the slot to the free list. A
/// stale EventId or heap key can never match the slot again: both carry a
/// sequence number, and sequence numbers are never reused. Never called on
/// a slot whose callback is currently executing — dispatch tears those down
/// itself after the call returns.
void Engine::release_slot(std::uint32_t index) {
  Slot& slot = slot_ref(index);
  slot.cb.reset();
  slot.period = 0;
  slot.state = free_head_;
  free_head_ = index;
}

void Engine::heap_pop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = (i << kArityShift) + 1;
    if (first_child >= n) break;
    // Branchless min-child scan: each step is a single 128-bit compare plus
    // conditional moves — the key IS the comparison key.
    const std::size_t end =
        first_child + kArity < n ? first_child + kArity : n;
    std::size_t best = first_child;
    Key best_key = heap_[first_child];
    for (std::size_t c = first_child + 1; c < end; ++c) {
      const Key c_key = heap_[c];
      best = c_key < best_key ? c : best;
      best_key = c_key < best_key ? c_key : best_key;
    }
    if (last <= best_key) break;
    // Large heaps are sift-down-bound on memory: start pulling the next
    // level's children in while this level's store completes. A partial
    // last level ends before the fourth child, so clamp to the last entry.
    const std::size_t grandchild = (best << kArityShift) + 1;
    if (grandchild < n) {
      __builtin_prefetch(&heap_[grandchild]);
      __builtin_prefetch(&heap_[std::min(grandchild + kArity - 1, n - 1)]);
    }
    heap_[i] = best_key;
    i = best;
  }
  heap_[i] = last;
}

bool Engine::cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const std::uint32_t index = static_cast<std::uint32_t>(id >> kSeqBits);
  const std::uint64_t seq = id & kSeqMask;
  if (index >= slot_count_) return false;
  Slot& slot = slot_ref(index);
  if (slot.period > 0) {
    // Periodic: the armed sequence number advances on every re-arm, so the
    // id is matched against the tenancy's recorded birth seq instead. A
    // reused slot records a new (never-reused) birth seq, so a stale id
    // cannot cancel a new tenant.
    if (periodic_birth_[index] != seq) return false;
    if (slot.state & kArmedBit) {
      --pending_;
      release_slot(index);
      return true;
    }
    if (slot.state == kIdle) {
      // Mid-callback self-cancel: the occurrence is already popped
      // (pending_ was adjusted) and the callback is executing in place, so
      // just mark it — dispatch_periodic sees the mark when the call
      // returns and tears the slot down instead of re-arming.
      slot.state = kCancelledBit;
      return true;
    }
    return false;  // already self-cancelled in this very callback
  }
  // One-shot: pending iff armed with exactly this sequence number. A fired,
  // cancelled, or recycled slot can never match (seqs are unique), and a
  // free slot's state has no armed bit.
  if (slot.state != (kArmedBit | seq)) return false;
  // Cancellation is lazy: the slot is recycled right away (its sequence
  // number is spent, so the stale heap key can never match again) and
  // dispatch's armed check discards the key for free when it surfaces.
  --pending_;
  release_slot(index);
  return true;
}

std::uint64_t Engine::dispatch_until(Cycles deadline) {
  std::uint64_t n = 0;
  while (!heap_.empty()) {
    const Key top = heap_.front();
    const Cycles when = key_when(top);
    if (when > deadline) break;
    const std::uint64_t low = static_cast<std::uint64_t>(top);
    const std::uint32_t index = static_cast<std::uint32_t>(low) & kSlotMask;
    // Touch the slot before the sift-down so its (random-access) cache miss
    // resolves while heap_pop walks the tree.
    Slot& slot = slot_ref(index);
    __builtin_prefetch(&slot);
    heap_pop();
    if (slot.state != (kArmedBit | (low >> kSlotBits))) {
      continue;  // lazily-cancelled entry
    }
    now_ = when;
    --pending_;
    if (slot.period > 0) {
      dispatch_periodic(index);
    } else {
      // One-shot: disarm first (so a self-cancel inside the callback is a
      // no-op), invoke in place — the slot's page never moves, and the slot
      // can't be recycled because it only reaches the free list afterwards.
      slot.state = kIdle;
      slot.cb();
      slot.cb.reset();
      slot.state = free_head_;
      free_head_ = index;
    }
    ++n;
    ++dispatched_;
  }
  return n;
}

void Engine::dispatch_periodic(std::uint32_t index) {
  Slot& slot = slot_ref(index);
  slot.state = kIdle;
  slot.cb();  // in place; a self-cancel inside only sets kCancelledBit
  if (slot.state != kIdle) {
    // Cancelled from inside its own callback: now that the call returned,
    // the storage can actually be torn down.
    slot.cb.reset();
    slot.period = 0;
    slot.state = free_head_;
    free_head_ = index;
    return;
  }
  // Re-arm with a fresh sequence number: each occurrence must sort after
  // same-timestamp events scheduled before it, exactly as if it had been
  // re-scheduled by hand. The EventId's birth seq stays valid via
  // periodic_birth_.
  const std::uint64_t seq = next_seq_++;
  slot.state = kArmedBit | seq;
  heap_push(make_key(now_ + slot.period, seq, index));
  ++pending_;
}

std::uint64_t Engine::run_until(Cycles deadline) {
  const std::uint64_t n = dispatch_until(deadline);
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t Engine::run() {
  return dispatch_until(std::numeric_limits<Cycles>::max());
}

}  // namespace nfv::sim
