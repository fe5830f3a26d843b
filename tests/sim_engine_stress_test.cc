// Engine stress/property tests: randomized schedule/cancel interleavings
// checked against a reference model, callbacks that arm and cancel events
// checked against a flat reference engine, id-reuse-after-generation-bump
// safety, slab recycling bounds, and order-equivalence of the periodic path
// with the self-re-arming pattern it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/engine.h"

namespace eo::sim {
namespace {

// --- randomized model check -------------------------------------------------
//
// Schedules, cancels, and run_until() calls are drawn at random from outside
// the engine; a flat reference model predicts the exact fire sequence
// (equal-timestamp ties break by insertion order) plus the has_pending /
// events_fired counters after every run.

struct RefEvent {
  SimTime when = 0;
  bool canceled = false;
  bool fired = false;
};

class ModelStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelStress, MatchesReferenceModel) {
  Rng rng(GetParam());
  Engine e;
  std::vector<RefEvent> refs;
  std::vector<EventId> ids;
  std::vector<std::size_t> log;  // indices of fired refs, in fire order
  std::vector<std::size_t> expected;

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 55) {
      // Schedule, with a deliberately coarse time grid so timestamp ties are
      // common and the insertion-order tie-break is exercised hard.
      const SimTime when = e.now() + static_cast<SimTime>(rng.next_below(40));
      const std::size_t idx = refs.size();
      refs.push_back(RefEvent{when});
      ids.push_back(e.schedule_at(when, [&log, idx] { log.push_back(idx); }));
    } else if (op < 80) {
      if (!ids.empty()) {
        // Cancel a random id: pending (real cancel), fired, or already
        // canceled (both must be no-ops, even if the slot has since been
        // recycled for a newer event — the generation tag guards reuse).
        const std::size_t j = rng.next_below(ids.size());
        e.cancel(ids[j]);
        if (!refs[j].fired) refs[j].canceled = true;
      }
    } else if (op < 85) {
      e.cancel(kInvalidEvent);
      e.cancel(0xdeadbeefdeadbeefull);  // never-issued id
    } else {
      const SimTime deadline =
          e.now() + static_cast<SimTime>(rng.next_below(60));
      e.run_until(deadline);
      for (std::size_t i = 0; i < refs.size(); ++i) {
        if (!refs[i].canceled && !refs[i].fired && refs[i].when <= deadline) {
          refs[i].fired = true;
        }
      }
      std::uint64_t live = 0;
      for (const RefEvent& r : refs) {
        if (!r.canceled && !r.fired) ++live;
      }
      ASSERT_EQ(e.has_pending(), live > 0) << "after step " << step;
    }
  }
  e.run();  // drain the stragglers
  for (RefEvent& r : refs) {
    if (!r.canceled && !r.fired) r.fired = true;
  }

  // Expected order: by (when, insertion index) over never-canceled events.
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (refs[i].fired) expected.push_back(i);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&refs](std::size_t a, std::size_t b) {
                     return refs[a].when < refs[b].when;
                   });
  EXPECT_EQ(log, expected);
  EXPECT_EQ(e.events_fired(), log.size());
  EXPECT_FALSE(e.has_pending());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelStress,
                         ::testing::Values(1u, 2u, 3u, 0xc0ffeeu, 77u));

// --- callbacks that arm events, against a flat reference engine -------------
//
// Most events in a kernel run are armed by the callback of the event that
// just fired. RefEngine keeps every pending event in one vector and fires the
// least (when, arm order) by linear scan; a periodic event takes its next arm
// order at fire time, immediately before its callback. The same scenario runs
// on both engines and must log the same fires, clocks and pending states.

class RefEngine {
 public:
  SimTime now() const { return now_; }
  EventId schedule_at(SimTime when, EventFn fn) {
    return arm(when, 0, std::move(fn));
  }
  EventId schedule_periodic(SimDuration first_delay, SimDuration period,
                            EventFn fn) {
    return arm(now_ + first_delay, period, std::move(fn));
  }
  void cancel(EventId id) {
    if (id == kInvalidEvent || id > events_.size()) return;
    events_[id - 1]->live = false;
  }
  std::uint64_t run_until(SimTime deadline) {
    std::uint64_t n = 0;
    while (fire_next(deadline)) ++n;
    if (now_ < deadline) now_ = deadline;
    return n;
  }
  std::uint64_t run() {
    std::uint64_t n = 0;
    while (fire_next(std::numeric_limits<SimTime>::max())) ++n;
    return n;
  }
  bool has_pending() const {
    return std::any_of(events_.begin(), events_.end(),
                       [](const auto& ev) { return ev->live; });
  }
  std::uint64_t events_fired() const { return fired_; }

 private:
  struct Ev {
    SimTime when;
    std::uint64_t order;
    SimDuration period;
    EventFn fn;
    bool live = true;
  };

  EventId arm(SimTime when, SimDuration period, EventFn fn) {
    events_.push_back(std::make_unique<Ev>(
        Ev{when, next_order_++, period, std::move(fn)}));
    return events_.size();
  }

  bool fire_next(SimTime deadline) {
    Ev* next = nullptr;
    for (const auto& ev : events_) {
      if (!ev->live) continue;
      if (next == nullptr || ev->when < next->when ||
          (ev->when == next->when && ev->order < next->order)) {
        next = ev.get();
      }
    }
    if (next == nullptr || next->when > deadline) return false;
    now_ = next->when;
    ++fired_;
    if (next->period > 0) {
      next->when += next->period;
      next->order = next_order_++;
      next->fn();  // may cancel itself: `next` stays allocated
    } else {
      next->live = false;
      EventFn fn = std::move(next->fn);
      fn();
    }
    return true;
  }

  SimTime now_ = 0;
  std::uint64_t next_order_ = 0;
  std::uint64_t fired_ = 0;
  std::vector<std::unique_ptr<Ev>> events_;
};

/// One log line: a fire (label >= 0, at `t`) or, after each outer
/// run_until, the clock and pending state (label -1, t = now, aux = pending).
struct LogLine {
  int label;
  SimTime t;
  int aux = 0;
  bool operator==(const LogLine&) const = default;
};

/// Drives one engine. Every choice a callback makes comes from an Rng keyed
/// by the seed and the event's label, so both engines see the same choices
/// for as long as they fire in the same order.
template <class E>
class Scenario {
 public:
  Scenario(std::uint64_t seed, int depth)
      : seed_(seed), budget_(depth + 3000), outer_(seed) {
    for (int i = 0; i < depth; ++i) {
      arm(static_cast<SimDuration>(outer_.next_below(64)));
    }
    for (int p = 0; p < 2; ++p) arm_periodic();
  }

  std::vector<LogLine> run() {
    for (int round = 0; round < 200 && e_.has_pending(); ++round) {
      const SimTime deadline =
          e_.now() + static_cast<SimTime>(outer_.next_below(120));
      e_.run_until(deadline);
      log_.push_back({-1, e_.now(), e_.has_pending() ? 1 : 0});
      if (outer_.next_below(4) == 0) arm(0);
      if (outer_.next_below(4) == 0 && !ids_.empty()) {
        e_.cancel(ids_[outer_.next_below(ids_.size())]);
      }
      if (outer_.next_below(8) == 0) arm_periodic();
    }
    for (const EventId id : periodic_) e_.cancel(id);
    e_.run();
    log_.push_back({-2, e_.now(), static_cast<int>(e_.events_fired())});
    return log_;
  }

 private:
  int next_label() {
    ids_.push_back(kInvalidEvent);
    return static_cast<int>(ids_.size()) - 1;
  }

  EventId arm(SimDuration delay) {
    if (static_cast<int>(ids_.size()) >= budget_) return kInvalidEvent;
    const int label = next_label();
    const EventId id =
        e_.schedule_at(e_.now() + delay, [this, label] { fire(label); });
    ids_[static_cast<std::size_t>(label)] = id;
    return id;
  }

  void arm_periodic() {
    const int label = next_label();
    Rng r(seed_ * 7919 + static_cast<std::uint64_t>(label));
    const auto first = static_cast<SimDuration>(r.next_below(30));
    const auto period = static_cast<SimDuration>(1 + r.next_below(40));
    const EventId id = e_.schedule_periodic(
        first, period, [this, label] { tick(label); });
    ids_[static_cast<std::size_t>(label)] = id;
    periodic_.push_back(id);
  }

  void fire(int label) {
    log_.push_back({label, e_.now()});
    Rng r(seed_ * 7919 + static_cast<std::uint64_t>(label));
    // 0, 1 or 2 successors; a quarter of them at now(), tying with whatever
    // else is due at this instant.
    const std::uint64_t roll = r.next_below(8);
    const int n = roll == 0 ? 0 : roll < 6 ? 1 : 2;
    EventId last = kInvalidEvent;
    for (int i = 0; i < n; ++i) {
      last = arm(r.next_below(4) == 0
                     ? 0
                     : static_cast<SimDuration>(r.next_below(50)));
    }
    if (r.next_below(8) == 0) {
      e_.cancel(ids_[r.next_below(ids_.size())]);  // pending, fired or self
    }
    if (r.next_below(16) == 0) e_.cancel(last);  // the id just armed
    if (r.next_below(64) == 0) {
      // Re-entrant: fire what is due soon from inside this callback, then
      // arm once more.
      e_.run_until(e_.now() + static_cast<SimTime>(r.next_below(20)));
      arm(static_cast<SimDuration>(r.next_below(10)));
    }
  }

  void tick(int label) {
    const int n = ++ticks_[label];
    log_.push_back({label, e_.now(), n});
    Rng r(seed_ * 7919 + static_cast<std::uint64_t>(label) * 131 +
          static_cast<std::uint64_t>(n));
    if (r.next_below(4) == 0) arm(static_cast<SimDuration>(r.next_below(30)));
    if (r.next_below(12) == 0) {
      e_.cancel(ids_[static_cast<std::size_t>(label)]);  // stops itself
    }
  }

  E e_;
  std::uint64_t seed_;
  int budget_;
  Rng outer_;
  std::vector<EventId> ids_;  // by label
  std::vector<EventId> periodic_;
  std::vector<LogLine> log_;
  std::map<int, int> ticks_;  // periodic label -> fires so far
};

class ArmingModel
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(ArmingModel, MatchesFlatReference) {
  const auto [depth, seed] = GetParam();
  const std::vector<LogLine> want = Scenario<RefEngine>(seed, depth).run();
  const std::vector<LogLine> got = Scenario<Engine>(seed, depth).run();
  ASSERT_GT(want.size(), 50u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i])
        << "line " << i << ": got label " << got[i].label << " at "
        << got[i].t << ", want label " << want[i].label << " at "
        << want[i].t;
  }
}

// Pending depths 1-9 and 17 leave every partial last sibling group of a
// binary or 4-ary heap; 1000 is a deep heap.
INSTANTIATE_TEST_SUITE_P(
    Depths, ArmingModel,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 1000),
                       ::testing::Values(1u, 2u, 0xc0ffeeu)));

// --- id reuse / generation safety -------------------------------------------

TEST(EngineStress, StaleIdsNeverTouchRecycledSlots) {
  Engine e;
  int fired = 0;
  std::vector<EventId> stale;
  // Churn one logical event through the same slot many times, keeping every
  // dead id around and re-canceling all of them each round.
  for (int round = 0; round < 200; ++round) {
    const EventId id = e.schedule_after(1, [&fired] { ++fired; });
    for (const EventId s : stale) e.cancel(s);  // must all be no-ops
    EXPECT_TRUE(e.has_pending());
    if (round % 2 == 0) {
      e.run_until(e.now() + 1);
      stale.push_back(id);  // fired id
    } else {
      e.cancel(id);
      stale.push_back(id);  // canceled id
    }
  }
  EXPECT_EQ(fired, 100);
  EXPECT_FALSE(e.has_pending());
  // The whole churn recycled a single slot's worth of slab.
  EXPECT_LE(e.slab_slots(), 1u);
}

TEST(EngineStress, SlabIsBoundedByPeakPendingNotThroughput) {
  Engine e;
  std::uint64_t fired = 0;
  std::uint64_t* sink = &fired;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 10; ++i) {
      e.schedule_after(i + 1, [sink] { ++*sink; });
    }
    e.run();
  }
  EXPECT_EQ(fired, 10000u);
  EXPECT_LE(e.slab_slots(), 10u);
  EXPECT_EQ(e.free_slots(), e.slab_slots());
}

// --- periodic path: order-equivalence with self-re-arming --------------------
//
// The periodic event takes its next occurrence's sequence number at fire
// time, immediately before the callback — the same point a self-re-arming
// callback schedules its successor. Run both patterns against an identical
// stream of interfering one-shots (many at exactly the timer's fire times)
// and require identical logs.

void run_interference(Engine& e, std::vector<int>& log) {
  // One-shots colliding with timer fires at t = 100, 200, ..., scheduled
  // both before the timer exists and from inside callbacks.
  for (int k = 1; k <= 5; ++k) {
    e.schedule_at(100 * k, [&e, &log, k] {
      log.push_back(1000 + k);
      e.schedule_at(e.now(), [&log, k] { log.push_back(2000 + k); });
    });
  }
  e.run_until(1000);
}

TEST(EngineStress, PeriodicPathIsOrderIdenticalToSelfRearming) {
  std::vector<int> periodic_log;
  std::vector<int> rearm_log;
  {
    Engine e;
    e.schedule_periodic(100, 100, [&] { periodic_log.push_back(7); });
    run_interference(e, periodic_log);
  }
  {
    Engine e;
    // The old RepeatingTimer pattern: re-arm first, then the body.
    struct Rearm {
      Engine* e;
      std::vector<int>* log;
      void fire() {
        e->schedule_after(100, [this] { fire(); });
        log->push_back(7);
      }
    } timer{&e, &rearm_log};
    e.schedule_after(100, [&timer] { timer.fire(); });
    run_interference(e, rearm_log);
  }
  EXPECT_EQ(periodic_log, rearm_log);
  ASSERT_FALSE(periodic_log.empty());
  EXPECT_EQ(std::count(periodic_log.begin(), periodic_log.end(), 7), 10);
}

TEST(EngineStress, ManyStaggeredPeriodicsKeepExactPhase) {
  Engine e;
  std::vector<std::vector<SimTime>> fires(8);
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(e.schedule_periodic(10 + i, 100, [&e, &fires, i] {
      fires[static_cast<size_t>(i)].push_back(e.now());
    }));
  }
  e.run_until(1000);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(fires[static_cast<size_t>(i)].size(), 10u) << "timer " << i;
    for (int k = 0; k < 10; ++k) {
      EXPECT_EQ(fires[static_cast<size_t>(i)][static_cast<size_t>(k)],
                10 + i + 100 * static_cast<SimTime>(k));
    }
  }
  for (const EventId id : ids) e.cancel(id);
  EXPECT_FALSE(e.has_pending());
  e.run_until(2000);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fires[static_cast<size_t>(i)].size(), 10u);
  }
}

}  // namespace
}  // namespace eo::sim
