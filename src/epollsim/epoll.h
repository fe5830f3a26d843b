// Epoll subsystem data structures.
//
// Models event-based blocking as used by memcached/libevent: an epoll
// instance accumulates ready events; epoll_wait consumes one or blocks.
// Waiters block either by vanilla sleep or — with VB enabled for epoll, as
// the paper implemented ("we implemented VB in epoll by removing the sleep
// queue and emulating sleeping via schedule skipping") — by VB parking.
//
// As with futex, orchestration lives in the Kernel; this module owns the
// instance table.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fifo_ring.h"
#include "kern/klock.h"
#include "obs/metrics.h"
#include "trace/trace.h"

namespace eo::kern {
struct Task;
}

namespace eo::epollsim {

struct EpollInstance {
  int id = -1;
  kern::KLock lock;
  /// Posted-but-unconsumed event payloads (FIFO). A ring, not a deque: the
  /// open-loop serving path posts and consumes millions of events per run,
  /// and deque block churn would put heap traffic on every request.
  FifoRing<std::uint64_t> ready;
  /// Tasks blocked in epoll_wait (FIFO); each one's blocking mode is on its
  /// Task::waiter link.
  FifoRing<kern::Task*> waiters;
};

class EpollTable {
 public:
  /// Wires the event tracer (may be null).
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  /// Wires the metric counters: instance-lock acquisitions and the
  /// contended subset.
  void set_metrics(obs::Counter locks, obs::Counter contended) {
    m_locks_ = locks;
    m_contended_ = contended;
  }

  /// Creates a new instance; returns its fd.
  int create();

  EpollInstance& get(int epfd);
  const EpollInstance& get(int epfd) const;

  /// Acquires the instance lock at `now` for `hold`, tracing the queueing
  /// delay as a kEpollLock record attributed to `core`/`tid`. Returns the
  /// wait time; the caller's total cost is wait + hold. Inline for the same
  /// reason as FutexTable::lock_bucket.
  SimDuration lock_instance(EpollInstance& ep, SimTime now, SimDuration hold,
                            int core, std::int32_t tid) {
    const SimDuration wait = ep.lock.acquire(now, hold);
    m_locks_.inc();
    if (wait > 0) m_contended_.inc();
    EO_TRACE_EVENT(tracer_, core, trace::EventKind::kEpollLock, tid,
                   static_cast<std::uint64_t>(wait),
                   static_cast<std::uint64_t>(hold));
    return wait;
  }

  std::size_t size() const { return instances_.size(); }

 private:
  std::vector<EpollInstance> instances_;
  trace::Tracer* tracer_ = nullptr;
  obs::Counter m_locks_;
  obs::Counter m_contended_;
};

}  // namespace eo::epollsim
