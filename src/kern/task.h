// Simulated task (thread).
//
// The analogue of `task_struct`: identity, the embedded scheduling entity,
// the coroutine driving the thread's program, the pending action being
// interpreted by the kernel, and the delay record that is the task's state.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>

#include "common/units.h"
#include "futex/waiter_link.h"
#include "hw/cache_model.h"
#include "kern/action.h"
#include "obs/taskstats.h"
#include "sched/entity.h"

namespace eo::kern {

struct Task {
  Task(int tid_in, std::string name_in) : tid(tid_in), name(std::move(name_in)) {
    se.task = this;
    se.tid = tid_in;
    waiter.task = this;
  }
  ~Task() {
    if (top) top.destroy();
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  int tid;
  std::string name;
  sched::SchedEntity se;

  /// Owning handle of the thread's top-level coroutine.
  std::coroutine_handle<> top;
  /// Innermost suspended coroutine; what the kernel resumes.
  std::coroutine_handle<> resume_point;

  /// Action awaiting kernel interpretation.
  Action pending;
  /// Result delivered to the awaitable's await_resume.
  std::uint64_t action_result = 0;

  /// Cost of synchronously interpreted operations, charged as wall time at
  /// the next scheduling boundary.
  SimDuration overhead = 0;
  /// One-shot penalty (cache refill after context switch / migration)
  /// charged when the task next runs.
  SimDuration resume_penalty = 0;

  /// Memory behaviour of the current program phase.
  hw::MemProfile mem;

  int last_cpu = -1;
  bool pinned = false;
  int pin_cpu = -1;

  /// Set while the kernel is executing an asynchronous wake chain on this
  /// task's behalf (non-preemptible, as kernel code is).
  bool in_kernel = false;

  /// Intrusive wait-queue membership: spliced into a futex bucket or an
  /// in-flight WakeChain (at most one at a time). The link's vb flag is the
  /// blocking mode chosen at the last futex or epoll wait: virtual blocking
  /// (still on the runqueue) vs vanilla sleep.
  futex::WaiterLink waiter;

  /// The futex word the task waits on.
  SimWord* wait_word = nullptr;
  /// Time the task last became runnable after an unblock; -1 when it has
  /// already run since. Feeds the wakeup-latency histogram and trace.
  SimTime runnable_since = -1;

  /// The task's state and per-state delay accounting (sim-taskstats): every
  /// instant of the task's lifetime is attributed to exactly one
  /// obs::TaskDelayState. Updated at the kernel's state-transition points;
  /// the sampler checks the conservation invariant (state times sum to
  /// lifetime) on every tick. The record starts in Kernel::start_task.
  obs::TaskDelayAcct delay;

  /// Keeps the thread-function object (lambda captures) alive for the
  /// coroutine frame's lifetime.
  std::shared_ptr<void> keepalive;

  bool exited() const { return delay.finished(); }
  /// On a core. A finished record keeps its last state, kOncpu (tasks exit
  /// from a core), so an exited task must be ruled out explicitly.
  bool running() const {
    return delay.started() && !delay.finished() &&
           delay.state() == obs::TaskDelayState::kOncpu;
  }
  /// Off the runqueue: vanilla futex/epoll blocking or a timed sleep. A
  /// VB-parked task stays on its runqueue, so it is not blocked.
  bool blocked() const {
    const obs::TaskDelayState s = delay.state();
    return s == obs::TaskDelayState::kFutexBlocked ||
           s == obs::TaskDelayState::kEpollBlocked ||
           s == obs::TaskDelayState::kSleeping;
  }
};

}  // namespace eo::kern
