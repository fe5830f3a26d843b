#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <vector>

namespace eo {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DestructorDrains) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { count.fetch_add(1); });
  }  // destructor joins after draining
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(64);
  ThreadPool::parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); },
                           8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  int calls = 0;
  ThreadPool::parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ThreadPool::parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

// OS threads in this process, from the Threads: line of /proc/self/status.
int os_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(ThreadPool, ParallelForStartsNoMoreWorkersThanTasks) {
  const int baseline = os_threads();
  ASSERT_GT(baseline, 0);
  std::atomic<int> peak{0};
  ThreadPool::parallel_for(
      3,
      [&](std::size_t) {
        const int n = os_threads();
        int p = peak.load();
        while (n > p && !peak.compare_exchange_weak(p, n)) {
        }
      },
      16);
  EXPECT_GT(peak.load(), 0);
  EXPECT_LE(peak.load(), baseline + 3);
}

TEST(ThreadPool, TasksRunConcurrently) {
  // Two tasks that each wait for the other's side effect would deadlock on a
  // single thread; with 2 workers they complete.
  std::atomic<bool> a{false}, b{false};
  ThreadPool pool(2);
  pool.submit([&] {
    a = true;
    while (!b) std::this_thread::yield();
  });
  pool.submit([&] {
    b = true;
    while (!a) std::this_thread::yield();
  });
  pool.wait_idle();
  EXPECT_TRUE(a && b);
}

}  // namespace
}  // namespace eo
