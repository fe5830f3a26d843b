#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace eo {

namespace {
// 0 means one worker per hardware thread (4 when that is unknown).
std::size_t resolve_threads(std::size_t n_threads) {
  if (n_threads != 0) return n_threads;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 4;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  n_threads = resolve_threads(n_threads);
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    EO_CHECK(!stopping_) << "submit on stopped pool";
    queue_.push_back(std::move(fn));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_task_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::unique_lock<std::mutex> lk(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t n_threads) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // More workers than tasks would only sit idle.
  ThreadPool pool(std::min(resolve_threads(n_threads), n));
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&fn, i] { fn(i); });
  }
  pool.wait_idle();
}

}  // namespace eo
