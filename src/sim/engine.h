// Discrete-event simulation engine.
//
// The engine owns the simulated clock and an exact min-heap of pending
// events. All kernel activity (scheduler ticks, timer interrupts, compute
// completions, wakeups) is expressed as events. The engine is strictly
// single-threaded: one engine per simulated machine, and benches parallelize
// across engines, never within one.
//
// Hot-path layout (see src/sim/README.md for the full story):
//
//  * Callbacks are `EventFn` — inline small-buffer callables, so scheduling
//    a kernel lambda (`[this, &c]`-shaped captures) performs no heap
//    allocation. `schedule_at`/`schedule_after` are inline: the callback is
//    built once at the call site and moved once, into its slot.
//  * Event state lives in a slab of slots recycled through a free list;
//    `EventId` encodes (slot index, generation), so `cancel` and the
//    fired-check are two array accesses — no hashing, no lazy tombstone set.
//    Stale heap entries (canceled or re-armed slots) are recognized by a
//    generation mismatch and skipped when popped.
//  * The heap is the engine's own binary heap of 24-byte `{when, seq, slot,
//    gen}` PODs. Every sift from the root runs bottom-up: the vacated root
//    walks to a leaf along the earlier child, one comparison per level, and
//    the entry that takes its place rises from there.
//  * Periodic events (`schedule_periodic`) re-arm in place: one slot and one
//    callback for the lifetime of the timer, and a fire re-keys its root
//    with one sift instead of a pop and a push.
//
// Determinism: events at equal timestamps fire in insertion order (a
// monotonically increasing sequence number breaks ties), so a run is a pure
// function of the configuration and RNG seeds, whatever the heap's layout. A
// periodic event's next occurrence takes its sequence number at fire time,
// immediately before the callback runs — exactly where a self-re-arming
// callback would schedule it, so the periodic path is order-identical to the
// pop-push pattern it replaces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sim/event_fn.h"

namespace eo::sim {

/// Identifies a scheduled event so it can be canceled: bits [0,32) are the
/// slab slot index, bits [32,64) the slot's generation at arming time.
/// Generations start at 1, so no valid id equals kInvalidEvent.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Single-threaded discrete-event executor.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= now). Returns an id
  /// usable with `cancel`.
  EventId schedule_at(SimTime when, EventFn fn) {
    return arm(when, 0, std::move(fn));
  }

  /// Schedules `fn` to run `delay` (>= 0) nanoseconds from now.
  EventId schedule_after(SimDuration delay, EventFn fn) {
    return arm(now_ + delay, 0, std::move(fn));
  }

  /// Schedules `fn` to run every `period` nanoseconds, first at
  /// now + first_delay, re-arming in place until canceled. The next
  /// occurrence is armed immediately before each fire, so the callback may
  /// cancel its own id to stop the timer. Counts as one pending event.
  EventId schedule_periodic(SimDuration first_delay, SimDuration period,
                            EventFn fn);

  /// Cancels a pending event (one-shot or periodic). O(1): bumps the slot's
  /// generation so the heap entry is skipped when popped, and recycles the
  /// slot. Canceling an already-fired or invalid id is a no-op.
  void cancel(EventId id);

  /// Runs events until the queue is empty or `deadline` is passed. The clock
  /// is left at the time of the last fired event (or `deadline` if it is
  /// reached). Returns the number of events fired.
  std::uint64_t run_until(SimTime deadline);

  /// Runs until the event queue drains completely. Never returns while a
  /// periodic event is armed.
  std::uint64_t run();

  /// True if any event (not canceled) is pending.
  bool has_pending() const { return live_events_ > 0; }

  /// Number of events fired since construction (each periodic fire counts).
  std::uint64_t events_fired() const { return fired_; }

  /// Exact heap work since construction. Any exact queue pops in the same
  /// order, so these are a function of the run, not of the heap's layout.
  struct Counts {
    std::uint64_t pushes = 0;      ///< entries armed, periodic re-arms included
    std::uint64_t stale_pops = 0;  ///< canceled entries discarded at the head
    std::uint64_t peak_depth = 0;  ///< most entries held, stale ones included
  };
  const Counts& counts() const { return counts_; }

  // --- slab introspection (tests and diagnostics) ---
  /// Slots ever allocated; bounded by the peak number of concurrently
  /// pending events, not by throughput.
  std::size_t slab_slots() const { return n_slots_; }
  /// Slots currently on the free list.
  std::size_t free_slots() const;

 private:
  // Chunked so slot references stay stable while the slab grows (a periodic
  // callback runs with its slot borrowed; growth must not move slots).
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  struct Slot {
    EventFn fn;
    SimDuration period = 0;  ///< > 0 while armed periodic
    /// Bumped on every disarm (fire or cancel); a heap entry is live iff its
    /// recorded generation equals the slot's. Starts at 1 and skips 0 on
    /// wrap so ids never collide with kInvalidEvent.
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoFreeSlot;  ///< valid while on the free list
  };

  /// Heap entries are flat PODs; the callback stays in the slab and is never
  /// touched by sifts.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;  ///< insertion order, breaks equal-timestamp ties
    std::uint32_t slot;
    std::uint32_t gen;
  };
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }

  Slot& slot(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  const Slot& slot(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  static EventId make_id(std::uint32_t idx, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | idx;
  }

  std::uint32_t alloc_slot();
  void retire_slot(Slot& s, std::uint32_t idx);
  /// Arms `fn` at `when` (>= now; one-shot when `period` is 0) and returns
  /// its id. The only move of the callback is the one into its slot.
  EventId arm(SimTime when, SimDuration period, EventFn&& fn);
  /// Writes `e` over the root and restores heap order, bottom-up.
  void place_at_root(const HeapEntry& e);
  /// Moves `e`, bound for the vacant position `i`, up to its place.
  void sift_up(std::size_t i, const HeapEntry& e);
  /// Removes the root entry.
  void pop_root();
  /// Fires the heap head if it is live and due by `deadline`. Returns false
  /// when the head is past the deadline or the heap is empty (stale entries
  /// are drained so the caller's emptiness/peek checks see a live event).
  bool fire_next(SimTime deadline);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t live_events_ = 0;
  Counts counts_;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t n_slots_ = 0;
  std::uint32_t free_head_ = kNoFreeSlot;
};

}  // namespace eo::sim
