#include "sim/engine.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace eo::sim {

std::uint32_t Engine::alloc_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t idx = free_head_;
    Slot& s = slot(idx);
    free_head_ = s.next_free;
    s.next_free = kNoFreeSlot;
    return idx;
  }
  if ((n_slots_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return n_slots_++;
}

void Engine::retire_slot(Slot& s, std::uint32_t idx) {
  // Invalidate every id and heap entry minted for this arming. Skipping 0 on
  // wrap keeps make_id() != kInvalidEvent; a stale entry colliding after a
  // full 2^32 reuse cycle of one slot is beyond any simulated horizon.
  if (++s.gen == 0) s.gen = 1;
  s.period = 0;
  s.next_free = free_head_;
  free_head_ = idx;
}

void Engine::place_at_root(const HeapEntry& e) {
  // Floyd: walk the hole down along the earlier child to a leaf, then let
  // `e` rise from there. The heap's last entry and a re-keyed periodic one
  // usually belong near the bottom, so this costs one comparison per level
  // where a top-down sift costs two.
  HeapEntry* h = heap_.data();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (std::size_t c = 1; c < n; c = 2 * i + 1) {
    if (c + 1 < n && before(h[c + 1], h[c])) ++c;
    h[i] = h[c];
    i = c;
  }
  sift_up(i, e);
}

void Engine::sift_up(std::size_t i, const HeapEntry& e) {
  HeapEntry* h = heap_.data();
  while (i > 0) {
    const std::size_t p = (i - 1) / 2;
    if (!before(e, h[p])) break;
    h[i] = h[p];
    i = p;
  }
  h[i] = e;
}

void Engine::pop_root() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) place_at_root(last);
}

EventId Engine::arm(SimTime when, SimDuration period, EventFn&& fn) {
  EO_CHECK_GE(when, now_) << "event scheduled in the past";
  EO_CHECK(fn) << "empty event callback";
  const std::uint32_t idx = alloc_slot();
  Slot& s = slot(idx);
  s.fn = std::move(fn);
  s.period = period;
  const HeapEntry e{when, next_seq_++, idx, s.gen};
  heap_.push_back(e);
  sift_up(heap_.size() - 1, e);
  ++counts_.pushes;
  counts_.peak_depth = std::max<std::uint64_t>(counts_.peak_depth,
                                               heap_.size());
  ++live_events_;
  return make_id(idx, s.gen);
}

EventId Engine::schedule_periodic(SimDuration first_delay, SimDuration period,
                                  EventFn fn) {
  EO_CHECK_GT(period, 0);
  return arm(now_ + first_delay, period, std::move(fn));
}

void Engine::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const auto idx = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= n_slots_) return;
  Slot& s = slot(idx);
  if (s.gen != gen) return;  // already fired, canceled, or slot reused
  s.fn.reset();              // release captures immediately
  retire_slot(s, idx);
  --live_events_;
}

bool Engine::fire_next(SimTime deadline) {
  for (;;) {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_.front();
    Slot* s = &slot(top.slot);
    if (s->gen != top.gen) {
      pop_root();  // stale: canceled (or the slot was since recycled)
      ++counts_.stale_pops;
      continue;
    }
    if (top.when > deadline) return false;
    now_ = top.when;
    ++fired_;
    if (s->period > 0) {
      // Re-key the root in place: same slot, same generation, next
      // occurrence takes its sequence number now — the exact point a
      // self-re-arming callback would schedule it, preserving
      // equal-timestamp insertion order.
      place_at_root(
          HeapEntry{top.when + s->period, next_seq_++, top.slot, top.gen});
      ++counts_.pushes;
      // Borrow the callback for the call: it may cancel its own id (which
      // resets the slot) or schedule events that grow the slab.
      EventFn fn = std::move(s->fn);
      fn();
      Slot& again = slot(top.slot);
      if (again.gen == top.gen) {
        again.fn = std::move(fn);
      }
      // else: the callback canceled the timer; the borrowed fn dies here and
      // the re-armed heap entry is skipped as stale when it surfaces.
    } else {
      EventFn fn = std::move(s->fn);
      retire_slot(*s, top.slot);
      --live_events_;
      pop_root();
      fn();
    }
    return true;
  }
}

std::uint64_t Engine::run_until(SimTime deadline) {
  std::uint64_t n = 0;
  while (fire_next(deadline)) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::uint64_t Engine::run() {
  std::uint64_t n = 0;
  const SimTime forever = std::numeric_limits<SimTime>::max();
  while (fire_next(forever)) ++n;
  return n;
}

std::size_t Engine::free_slots() const {
  std::size_t n = 0;
  for (std::uint32_t i = free_head_; i != kNoFreeSlot; i = slot(i).next_free) {
    ++n;
  }
  return n;
}

}  // namespace eo::sim
