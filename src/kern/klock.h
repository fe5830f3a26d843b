// Kernel-lock serialization model.
//
// The paper's wakeup-path analysis hinges on lock *serialization*: the futex
// hash-bucket lock and the per-core runqueue locks force concurrent wakers
// and schedulers through one-at-a-time critical sections. In a
// discrete-event simulation a lock is a resource with a `next_free` time:
// acquiring at time t waits max(0, next_free - t), then occupies it for the
// hold duration. This captures queueing delay (including convoys when many
// wakers hammer one runqueue) without simulating the lock-word cacheline.
#pragma once

#include "common/units.h"

namespace eo::kern {

class KLock {
 public:
  /// Acquires at `now`, holding for `hold`. Returns the wait time (0 if the
  /// lock was free); the caller's total cost is wait + hold.
  SimDuration acquire(SimTime now, SimDuration hold) {
    const SimTime start = now > next_free_ ? now : next_free_;
    const SimDuration wait = start - now;
    next_free_ = start + hold;
    return wait;
  }

  /// True if an acquire at `now` would not wait.
  bool free_at(SimTime now) const { return next_free_ <= now; }

 private:
  SimTime next_free_ = 0;
};

}  // namespace eo::kern
