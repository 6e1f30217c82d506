#include "sim/engine.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace nfv::sim {

const char* to_string(EngineBackend backend) {
  switch (backend) {
    case EngineBackend::kHeap:
      return "heap";
    case EngineBackend::kWheel:
      return "wheel";
  }
  return "?";
}

bool parse_engine_backend(const char* text, EngineBackend& out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "heap") == 0) {
    out = EngineBackend::kHeap;
    return true;
  }
  if (std::strcmp(text, "wheel") == 0) {
    out = EngineBackend::kWheel;
    return true;
  }
  return false;
}

void Engine::set_backend(EngineBackend backend) {
  assert(pending_ == 0 && heap_.empty() &&
         "the ready-queue backend can only change while the queue is empty");
  backend_ = backend;
  if (backend == EngineBackend::kWheel && wheel_cells_.empty()) {
    wheel_cells_.resize(kWheelCells);
  }
  wheel_time_ = now_;
}

void Engine::reserve(std::size_t pending_hint) {
  if (pending_hint == 0) return;
  const std::size_t target_pages = (pending_hint + kPageSize - 1) >> kPageShift;
  pages_.reserve(target_pages);
  while (pages_.size() < target_pages) {
    pages_.push_back(std::make_unique<Slot[]>(kPageSize));
  }
  if (backend_ == EngineBackend::kHeap) {
    heap_.reserve(pending_hint);
  } else {
    // Wheel storage is spread across per-cell buckets that grow to their
    // working set on first contact; pre-size only the near-horizon window,
    // which sees every event once.
    window_.reserve(std::min(pending_hint, std::size_t{1} << 16));
  }
}

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
  // Cancellation is lazy on both backends: the slot is recycled right away
  // (its sequence number is spent, so the stale by-value key in the heap or
  // in a wheel bucket can never match again) and dispatch's armed check
  // discards the key for free when its timestamp comes up.
  --pending_;
  release_slot(index);
  return true;
}

// -- timer-wheel backend ------------------------------------------------------

/// How many entries ahead of the one being processed to prefetch its slot:
/// far enough to cover the per-entry work, near enough to stay inside
/// typical batches.
constexpr std::size_t kSlotLookahead = 8;

void Engine::wheel_set_bit(std::size_t cell) {
  wheel_bits_[cell >> 6] |= std::uint64_t{1} << (cell & 63);
  wheel_level_mask_ |=
      static_cast<std::uint8_t>(1u << (cell >> kWheelLevelBits));
}

void Engine::wheel_clear_bit(std::size_t cell) {
  wheel_bits_[cell >> 6] &= ~(std::uint64_t{1} << (cell & 63));
  const unsigned level = static_cast<unsigned>(cell >> kWheelLevelBits);
  const std::uint64_t* w = &wheel_bits_[level * kWheelWordsPerLevel];
  if ((w[0] | w[1] | w[2] | w[3]) == 0) {
    wheel_level_mask_ &= static_cast<std::uint8_t>(~(1u << level));
  }
}

/// First occupied cell index >= `from` at `level`, or -1.
int Engine::wheel_find_from(unsigned level, unsigned from) const {
  const std::uint64_t* words = &wheel_bits_[level * kWheelWordsPerLevel];
  std::size_t word = from >> 6;
  std::uint64_t cur = words[word] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (cur != 0) {
      return static_cast<int>((word << 6) + __builtin_ctzll(cur));
    }
    if (++word == kWheelWordsPerLevel) return -1;
    cur = words[word];
  }
}

void Engine::wheel_insert(Key key) {
  const Cycles when = key_when(key);
  assert(when >= wheel_time_ && "the wheel cursor never passes a pending event");
  const std::uint64_t w = static_cast<std::uint64_t>(when);
  const std::uint64_t base = static_cast<std::uint64_t>(wheel_time_);
  const std::uint64_t delta = w - base;
  // Smallest level whose shifted cursor distance fits one wheel turn. The
  // log2 guess can land one level low when the shift truncation adds a
  // unit (floor(w/g) - floor(base/g) can be 256 with delta < 256*g).
  unsigned level =
      delta == 0
          ? 0u
          : static_cast<unsigned>(63 - __builtin_clzll(delta)) / kWheelLevelBits;
  unsigned shift = kWheelLevelBits * level;
  if (((w >> shift) - (base >> shift)) >= kWheelSpan) {
    ++level;
    shift += kWheelLevelBits;
  }
  assert(level < kWheelLevels);
  const std::size_t cell =
      level * kWheelSpan + static_cast<std::size_t>((w >> shift) & (kWheelSpan - 1));
  std::vector<Key>& bucket = wheel_cells_[cell];
  if (bucket.empty()) wheel_set_bit(cell);
  bucket.push_back(key);
}

/// Earliest pending event time, cascading higher levels down as the search
/// narrows. Level-1 buckets are not cascaded into level 0: the whole
/// 256-cycle span becomes the sorted near-horizon window in one swap+sort,
/// so the per-event work between insert and dispatch is a streaming pass
/// instead of bucket-to-bucket shuffling. Returns a time > `deadline`
/// (without advancing the wheel) as soon as it can prove nothing is due;
/// must only be called with pending_ > 0 and the ready buffer drained.
Cycles Engine::wheel_next_time(Cycles deadline) {
  for (;;) {
    const bool have_window = wpos_ < window_.size();
    const Cycles window_time =
        have_window ? key_when(window_[wpos_]) : Cycles{0};
    bool found = false;
    unsigned best_level = 0;
    Cycles best_time = 0;
    std::size_t best_cell = 0;
    for (unsigned level = 0; level < kWheelLevels; ++level) {
      if (!(wheel_level_mask_ & (1u << level))) continue;
      const unsigned shift = kWheelLevelBits * level;
      const std::uint64_t cursor =
          static_cast<std::uint64_t>(wheel_time_) >> shift;
      const unsigned ck = static_cast<unsigned>(cursor & (kWheelSpan - 1));
      // Cells at/after the cursor hold this revolution's times; cells
      // before it wrapped into the next one. Buckets never mix revolutions
      // (see the uniqueness note at the backend overview), so the cell
      // start is exact at level 0 and a tight lower bound above.
      int idx = wheel_find_from(level, ck);
      std::uint64_t units;
      if (idx >= 0) {
        units = cursor + (static_cast<unsigned>(idx) - ck);
      } else {
        idx = wheel_find_from(level, 0);
        units = cursor + kWheelSpan - ck + static_cast<unsigned>(idx);
      }
      const Cycles t = static_cast<Cycles>(units << shift);
      // <= so ties go to the higher level: a coarse cell whose span starts
      // at the next dispatch time may hold events due exactly then, and
      // they must join the level-0 batch before it fires.
      if (!found || t <= best_time) {
        found = true;
        best_level = level;
        best_time = t;
        best_cell =
            level * kWheelSpan + static_cast<std::size_t>(static_cast<unsigned>(idx));
      }
    }
    if (!found) {
      assert(have_window && "wheel_next_time needs a pending event");
      return window_time;
    }
    // The window wins ties against coarse cells: while it holds events,
    // every level-1 cell starts at or past the window span's end, and a
    // tying level-2+ span start provably holds nothing inside the window's
    // horizon (events that near land at level 0 once the cursor caught up,
    // and were flushed below level 2 before the window filled). A tying
    // level-0 cell joins the window's batch at dispatch instead.
    if (have_window && window_time <= best_time) return window_time;
    if (best_time > deadline || best_level == 0) return best_time;
    // Advance the cursor to the cell's span start (never backwards — a
    // cell whose span straddles the cursor reports its span start).
    if (best_time > wheel_time_) wheel_time_ = best_time;
    std::vector<Key>& bucket = wheel_cells_[best_cell];
    wheel_clear_bit(best_cell);
    if (best_level == 1) {
      // Bulk-collect into the near-horizon window: the whole 256-cycle
      // span is taken by swapping the bucket's storage (the bucket keeps
      // the old window's capacity for its next revolution) and sorted once
      // — no per-event cascade into level-0 buckets. Only reachable with
      // the window drained — see the tie rule above.
      assert(wpos_ == window_.size() && "bulk-collect needs a drained window");
      window_.swap(bucket);
      bucket.clear();
      wpos_ = 0;
      std::sort(window_.begin(), window_.end());
    } else {
      // Cascade: redistribute the bucket, a streaming sweep that provably
      // lands every key at a lower level (never back in this bucket, so
      // iterating in place is safe).
      for (const Key k : bucket) wheel_insert(k);
      bucket.clear();
    }
  }
}

std::uint64_t Engine::dispatch_wheel(Cycles deadline) {
  std::uint64_t n = 0;
  while (pending_ > 0) {
    const Cycles t = wheel_next_time(deadline);
    if (t > deadline) break;
    const std::size_t cell =
        static_cast<std::uint64_t>(t) & (kWheelSpan - 1);
    now_ = t;
    if (t > wheel_time_) wheel_time_ = t;
    // One batch per timestamp: merge the window's due entries with the
    // live level-0 bucket, and keep draining until callbacks stop adding
    // same-cycle work — an event scheduled at exactly now() lands in this
    // bucket with a larger seq, and the heap would pop it within the same
    // timestamp batch.
    for (;;) {
      ready_.clear();
      // The window is sorted, so its due entries arrive already in (seq)
      // order; only a level-0 contribution forces a batch sort.
      while (wpos_ < window_.size() && key_when(window_[wpos_]) == t) {
        ready_.push_back(static_cast<std::uint64_t>(window_[wpos_]));
        ++wpos_;
      }
      bool need_sort = false;
      std::vector<Key>& bucket = wheel_cells_[cell];
      // All level-0 residents share one `when` (buckets never mix wheel
      // revolutions), so checking the first key suffices; the guard skips
      // a bucket held by a later revolution's events when the batch is fed
      // purely from the window.
      if (!bucket.empty() && key_when(bucket.front()) == t) {
        for (const Key k : bucket) {
          ready_.push_back(static_cast<std::uint64_t>(k));
        }
        bucket.clear();
        wheel_clear_bit(cell);
        need_sort = true;
      }
      if (ready_.empty()) break;
      if (need_sort) std::sort(ready_.begin(), ready_.end());
      const std::size_t batch = ready_.size();
      for (std::size_t i = 0; i < batch; ++i) {
        // Resolve the slot's (random-access) cache miss a few events
        // early; by dispatch time its line is usually already in flight.
        // When the lookahead runs past this batch it continues into the
        // window's upcoming entries, so the prefetch stream never stalls
        // at batch boundaries.
        const std::size_t ahead = i + kSlotLookahead;
        if (ahead < batch) {
          __builtin_prefetch(&slot_ref(
              static_cast<std::uint32_t>(ready_[ahead]) & kSlotMask));
        } else if (const std::size_t w = wpos_ + (ahead - batch);
                   w < window_.size()) {
          __builtin_prefetch(&slot_ref(static_cast<std::uint32_t>(
              static_cast<std::uint64_t>(window_[w]) & kSlotMask)));
        }
        const std::uint64_t key = ready_[i];
        const std::uint32_t index = static_cast<std::uint32_t>(key) & kSlotMask;
        Slot& slot = slot_ref(index);
        if (slot.state != (kArmedBit | (key >> kSlotBits))) {
          continue;  // cancelled while parked in the buffer or the window
        }
        --pending_;
        if (slot.period > 0) {
          dispatch_periodic(index);
        } else {
          slot.state = kIdle;
          slot.cb();
          slot.cb.reset();
          slot.state = free_head_;
          free_head_ = index;
        }
        ++n;
        ++dispatched_;
      }
    }
    if (wpos_ == window_.size() && !window_.empty()) {
      window_.clear();
      wpos_ = 0;
    }
  }
  return n;
}

std::uint64_t Engine::dispatch_until(Cycles deadline) {
  return backend_ == EngineBackend::kHeap ? dispatch_heap(deadline)
                                          : dispatch_wheel(deadline);
}

std::uint64_t Engine::dispatch_heap(Cycles deadline) {
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
  if (backend_ == EngineBackend::kHeap) {
    heap_push(make_key(now_ + slot.period, seq, index));
  } else {
    // On the wheel the slot keeps its storage and identity; only the
    // occurrence's key moves to the next cell's bucket.
    wheel_insert(make_key(now_ + slot.period, seq, index));
  }
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
