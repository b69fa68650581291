#include "impatience/engine/thread_pool.hpp"

#include <utility>

namespace impatience::engine {

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return idle_locked(); });
}

bool ThreadPool::wait_idle_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(lock, timeout, [this] { return idle_locked(); });
}

unsigned ThreadPool::resolve_threads(int requested) noexcept {
  if (requested >= 1) return static_cast<unsigned>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1u;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_;
      if (idle_locked()) idle_cv_.notify_all();
    }
  }
}

}  // namespace impatience::engine
