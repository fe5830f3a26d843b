// Host-side thread pool.
//
// Simulations are single-threaded and deterministic; the parallelism in this
// repository lives at the *experiment* level: a bench sweeps dozens of
// independent configurations (thread counts x core counts x policies), and
// each configuration's simulation runs on its own host thread. This pool is
// the shared harness for that fan-out.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eo {

/// Fixed-size pool of host worker threads with a FIFO task queue.
class ThreadPool {
 public:
  /// Creates `n_threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t n_threads = 0);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  std::size_t size() const { return workers_.size(); }

  /// Runs `fn(i)` for i in [0, n) on a pool of min(n_threads, n) workers
  /// (n_threads 0 as in the constructor) and waits for completion.
  /// Exceptions escaping a task abort the process (tasks are experiment
  /// bodies; a failed experiment must not be silently dropped).
  static void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                           std::size_t n_threads = 0);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace eo
