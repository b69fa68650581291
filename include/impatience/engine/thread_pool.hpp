// Fixed-size thread pool: a mutex/condvar task queue drained by N worker
// threads. No work stealing — jobs are coarse (whole simulation trials),
// so a single shared queue is contention-free in practice and keeps each
// worker's cache hot on its own simulation state.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace impatience::engine {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(unsigned num_threads);
  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; never blocks. Tasks must not throw (wrap work that
  /// can throw — the runner does).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle. The pool
  /// stays usable afterwards.
  void wait_idle();

  /// Like wait_idle but gives up after `timeout`; returns true when idle.
  bool wait_idle_for(std::chrono::milliseconds timeout);

  unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Resolves a --threads request: values < 1 mean "use all hardware
  /// threads" (hardware_concurrency, itself falling back to 1).
  static unsigned resolve_threads(int requested) noexcept;

 private:
  void worker_loop();
  bool idle_locked() const { return queue_.empty() && busy_ == 0; }

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals workers: task or stop
  std::condition_variable idle_cv_;   ///< signals waiters: pool drained
  std::size_t busy_ = 0;              ///< workers currently running a task
  bool stop_ = false;
};

}  // namespace impatience::engine
