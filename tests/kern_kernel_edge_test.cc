// Edge-case tests of the kernel: preemption timing, SMT throughput, epoll
// corner cases, futex wake counts, and VB interaction with wakeup ordering.
#include <gtest/gtest.h>

#include "kern/kernel.h"
#include "runtime/sim_thread.h"

namespace eo {
namespace {

using kern::Kernel;
using kern::KernelConfig;
using runtime::Env;
using runtime::SimThread;

TEST(KernelEdge, WakeupPreemptsLongRunner) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  SimTime reacted = -1;
  runtime::spawn(k, "hog", [](Env env) -> SimThread {
    co_await env.compute(100_ms);
    co_return;
  });
  runtime::spawn(k, "sleeper", [&reacted](Env env) -> SimThread {
    co_await env.sleep(5_ms);
    reacted = env.now();  // must not wait for the hog's full compute
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_GE(reacted, 5_ms);
  EXPECT_LE(reacted, 5_ms + 2_ms) << "sleeper-fairness preemption missing";
}

TEST(KernelEdge, SmtSiblingsShareThroughput) {
  auto run = [](bool smt, int threads) {
    KernelConfig c;
    c.topo = smt ? hw::Topology::make_smt(2, 1) : hw::Topology::make_cores(2, 1);
    Kernel k(c);
    for (int i = 0; i < threads; ++i) {
      runtime::spawn(k, "t", [](Env env) -> SimThread {
        co_await env.compute(10_ms);
        co_return;
      });
    }
    k.run_to_exit(10_s);
    return k.last_exit_time();
  };
  const auto cores2 = run(false, 2);
  const auto ht2 = run(true, 2);
  // Two busy hyper-threads run at ~60% each: ~1.67x the full-core time.
  EXPECT_GT(ht2, cores2 * 3 / 2);
  EXPECT_LT(ht2, cores2 * 2);
  // A lone thread on an SMT pair runs at full speed.
  const auto ht1 = run(true, 1);
  EXPECT_LE(ht1, run(false, 1) + 1_ms);
}

TEST(KernelEdge, FutexWakeCountsAndOrder) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(4, 1);
  Kernel k(c);
  kern::SimWord* w = k.alloc_word(0);
  std::vector<int> wake_order;
  for (int i = 0; i < 3; ++i) {
    runtime::spawn(k, "w" + std::to_string(i),
                   [&wake_order, w, i](Env env) -> SimThread {
                     co_await env.compute((i + 1) * 100_us);  // stagger arrival
                     co_await env.futex_wait(w, 0);
                     wake_order.push_back(i);
                     co_return;
                   });
  }
  std::uint64_t n1 = 99, n2 = 99;
  runtime::spawn(k, "waker", [&, w](Env env) -> SimThread {
    co_await env.compute(2_ms);  // let all three park
    co_await env.store(w, 1);
    n1 = co_await env.futex_wake(w, 2);
    co_await env.compute(2_ms);
    n2 = co_await env.futex_wake(w, 10);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(5_s));
  EXPECT_EQ(n1, 2u);
  EXPECT_EQ(n2, 1u);
  // FIFO: earliest waiter woken first.
  ASSERT_EQ(wake_order.size(), 3u);
  EXPECT_EQ(wake_order[0], 0);
  EXPECT_EQ(wake_order[1], 1);
  EXPECT_EQ(wake_order[2], 2);
}

TEST(KernelEdge, EpollMultipleEventsBuffered) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  const int ep = k.epoll_create();
  for (std::uint64_t d = 1; d <= 3; ++d) k.epoll_post_external(ep, d);
  std::vector<std::uint64_t> got;
  runtime::spawn(k, "w", [&, ep](Env env) -> SimThread {
    for (int i = 0; i < 3; ++i) got.push_back(co_await env.epoll_wait(ep));
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(KernelEdge, EpollTaskToTaskPost) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  Kernel k(c);
  const int ep = k.epoll_create();
  std::uint64_t got = 0;
  runtime::spawn(k, "consumer", [&, ep](Env env) -> SimThread {
    got = co_await env.epoll_wait(ep);
    co_return;
  });
  runtime::spawn(k, "producer", [ep](Env env) -> SimThread {
    co_await env.compute(1_ms);
    co_await env.epoll_post(ep, 77);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_EQ(got, 77u);
}

TEST(KernelEdge, VbWakeDuringCheckQuantum) {
  // All threads on one core VB-park; the waker (external timer via a second
  // core) clears a flag while the parked thread is mid check-quantum.
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  c.features = core::Features::optimized();
  c.features.vb_auto_disable = false;  // force VB even for single waiters
  Kernel k(c);
  kern::SimWord* w = k.alloc_word(0);
  SimTime woke = -1;
  runtime::spawn(k, "waiter", [&, w](Env env) -> SimThread {
    co_await env.futex_wait(w, 0);
    woke = env.now();
    co_return;
  });
  runtime::spawn(k, "waker", [w](Env env) -> SimThread {
    co_await env.compute(2_ms);
    co_await env.store(w, 1);
    co_await env.futex_wake(w, 1);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(5_s));
  EXPECT_GE(woke, 2_ms);
  EXPECT_LE(woke, 2_ms + 200_us);
  EXPECT_GE(k.stats().vb_parks, 1u);
}

TEST(KernelEdge, ExitWhileOthersBlockedDoesNotHang) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  kern::SimWord* w = k.alloc_word(0);
  runtime::spawn(k, "blocked-forever", [w](Env env) -> SimThread {
    co_await env.futex_wait(w, 0);
    co_return;
  });
  runtime::spawn(k, "worker", [w](Env env) -> SimThread {
    co_await env.compute(1_ms);
    co_await env.store(w, 1);
    co_await env.futex_wake(w, 1);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(2_s));
}

TEST(KernelEdge, ZeroWakeOnEmptyAndMismatchedWord) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  kern::SimWord* a = k.alloc_word(0);
  kern::SimWord* b = k.alloc_word(0);
  std::uint64_t woken_b = 99;
  runtime::spawn(k, "waiter-a", [a](Env env) -> SimThread {
    co_await env.futex_wait(a, 0);
    co_return;
  });
  runtime::spawn(k, "waker-b", [&, a, b](Env env) -> SimThread {
    co_await env.compute(1_ms);
    woken_b = co_await env.futex_wake(b, 10);  // nobody waits on b
    co_await env.store(a, 1);
    co_await env.futex_wake(a, 1);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(2_s));
  EXPECT_EQ(woken_b, 0u) << "wake must match the futex word, not the bucket";
}

TEST(KernelEdge, OncpuTimeAccumulates) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(1, 1);
  Kernel k(c);
  runtime::spawn(k, "a", [](Env env) -> SimThread {
    for (int i = 0; i < 10; ++i) {
      co_await env.compute(500_us);
      co_await env.yield();
    }
    co_return;
  });
  runtime::spawn(k, "b", [](Env env) -> SimThread {
    co_await env.compute(5_ms);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(2_s));
  const auto& a = *k.tasks()[0];
  const SimDuration oncpu =
      a.delay.snapshot(k.now())[obs::TaskDelayState::kOncpu];
  EXPECT_NEAR(static_cast<double>(oncpu), 5e6, 5e5);
  EXPECT_GE(k.stats().voluntary_switches, 10u);
}

// Task state is read off the delay record: never started, blocked inside a
// vanilla futex_wait, and exited even though the sealed record's last state
// is kOncpu (tasks exit from a core).
TEST(KernelEdge, TaskPredicatesFollowTheDelayRecord) {
  KernelConfig c;
  c.topo = hw::Topology::make_cores(2, 1);
  Kernel k(c);  // vanilla features: futex_wait really sleeps
  const kern::Task* fresh = k.create_task("never-started");
  EXPECT_FALSE(fresh->running());
  EXPECT_FALSE(fresh->exited());
  kern::SimWord* w = k.alloc_word(0);
  kern::Task* waiter = runtime::spawn(k, "waiter", [w](Env env) -> SimThread {
    co_await env.futex_wait(w, 0);
    co_return;
  });
  bool waiter_blocked = false;
  bool waiter_running = true;
  bool waker_running = false;
  runtime::spawn(k, "waker", [&, w](Env env) -> SimThread {
    co_await env.compute(1_ms);
    waiter_blocked = waiter->blocked();
    waiter_running = waiter->running();
    waker_running = Kernel::current()->running();
    co_await env.store(w, 1);
    co_await env.futex_wake(w, 1);
    co_return;
  });
  ASSERT_TRUE(k.run_to_exit(1_s));
  EXPECT_TRUE(waiter_blocked);
  EXPECT_FALSE(waiter_running);
  EXPECT_TRUE(waker_running);
  EXPECT_TRUE(waiter->exited());
  EXPECT_FALSE(waiter->running());
  EXPECT_FALSE(waiter->blocked());
  EXPECT_EQ(waiter->delay.state(), obs::TaskDelayState::kOncpu);
}

// Advances the kernel one nanosecond at a time until `done` holds (false if
// `limit` passes first), so state one event sets can be read before the next
// event changes it.
template <typename Pred>
bool step_until(Kernel& k, SimTime limit, Pred done) {
  while (!done()) {
    if (k.now() >= limit) return false;
    k.run_until(k.now() + 1);
  }
  return true;
}

// All three migration sources (a balance pull, a wakeup placed on another
// core, eviction by set_online_cores) keep the same books: the move counts
// once, as in-node or cross-node; last_cpu is the destination; and the task
// waits in kMigrating until it first runs there, unless it is a VB-parked
// evictee, which keeps kVbParked.
TEST(KernelEdge, MigrationSourcesShareBookkeeping) {
  const auto hog = [](Env env) -> SimThread {
    co_await env.compute(20_ms);
    co_return;
  };
  {
    // Balance pull: idle core 1 pulls a queued hog from core 0.
    KernelConfig c;
    c.topo = hw::Topology::make_cores(2, 1);
    Kernel k(c);
    runtime::SpawnOpts on0;
    on0.cpu = 0;
    for (int i = 0; i < 3; ++i) runtime::spawn(k, "hog", hog, on0);
    ASSERT_TRUE(step_until(k, 20_ms, [&] {
      return k.stats().total_migrations() > 0;
    }));
    EXPECT_EQ(k.stats().migrations_in_node, 1u);
    EXPECT_EQ(k.stats().migrations_cross_node, 0u);
    int moved = 0;
    for (const auto& t : k.tasks()) {
      if (t->last_cpu != 1) continue;
      ++moved;
      EXPECT_EQ(t->delay.state(), obs::TaskDelayState::kMigrating);
    }
    EXPECT_EQ(moved, 1);
  }
  {
    // Wake placement: the sleeper blocked on core 0, which two pinned hogs
    // keep busy, so its wakeup lands on idle core 1.
    KernelConfig c;
    c.topo = hw::Topology::make_cores(2, 1);
    Kernel k(c);
    runtime::SpawnOpts on0;
    on0.cpu = 0;
    kern::Task* sleeper = runtime::spawn(
        k, "sleeper",
        [](Env env) -> SimThread {
          co_await env.sleep(1_ms);
          co_await env.compute(1_ms);
          co_return;
        },
        on0);
    k.run_until(100_us);
    ASSERT_TRUE(sleeper->blocked());
    ASSERT_EQ(sleeper->last_cpu, 0);
    runtime::SpawnOpts pinned0 = on0;
    pinned0.pin_cpu = 0;
    runtime::spawn(k, "hog-a", hog, pinned0);
    runtime::spawn(k, "hog-b", hog, pinned0);
    const sched::SchedStats before = k.stats();
    ASSERT_TRUE(step_until(k, 20_ms, [&] { return !sleeper->blocked(); }));
    EXPECT_EQ(k.stats().wakeup_migrations, before.wakeup_migrations + 1);
    EXPECT_EQ(k.stats().migrations_in_node, before.migrations_in_node + 1);
    EXPECT_EQ(k.stats().migrations_cross_node, before.migrations_cross_node);
    EXPECT_EQ(sleeper->last_cpu, 1);
    EXPECT_EQ(sleeper->delay.state(), obs::TaskDelayState::kMigrating);
  }
  {
    // Eviction: offlining core 1 (its own socket) moves a VB-parked waiter
    // and a hog, both pinned there, to core 0.
    KernelConfig c;
    c.topo = hw::Topology::make_cores(2, 2);
    c.features = core::Features::optimized();
    c.features.vb_auto_disable = false;
    Kernel k(c);
    kern::SimWord* w = k.alloc_word(0);
    runtime::SpawnOpts pinned1;
    pinned1.cpu = 1;
    pinned1.pin_cpu = 1;
    kern::Task* waiter = runtime::spawn(
        k, "waiter",
        [w](Env env) -> SimThread {
          co_await env.futex_wait(w, 0);
          co_return;
        },
        pinned1);
    kern::Task* runner = runtime::spawn(k, "hog", hog, pinned1);
    k.run_until(500_us);
    ASSERT_TRUE(waiter->se.vb_blocked);
    ASSERT_FALSE(runner->se.vb_blocked);
    const sched::SchedStats before = k.stats();
    k.set_online_cores(1);
    EXPECT_EQ(k.stats().migrations_cross_node,
              before.migrations_cross_node + 2);
    EXPECT_EQ(k.stats().migrations_in_node, before.migrations_in_node);
    EXPECT_EQ(waiter->last_cpu, 0);
    EXPECT_EQ(runner->last_cpu, 0);
    EXPECT_EQ(waiter->delay.state(), obs::TaskDelayState::kVbParked);
    EXPECT_EQ(runner->delay.state(), obs::TaskDelayState::kMigrating);
    EXPECT_TRUE(k.pinned_violation());
  }
}

}  // namespace
}  // namespace eo
