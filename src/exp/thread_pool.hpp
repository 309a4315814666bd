// Fixed-size thread pool for running independent simulation jobs.
//
// The pool owns a FIFO job queue and N worker threads. submit() returns a
// std::future so exceptions thrown inside a job propagate to whoever waits
// on it instead of killing the worker. Workers are work-conserving: an idle
// worker picks up the next queued job immediately, and the destructor drains
// the queue (every job already submitted runs to completion) before joining.
//
// The pool itself is thread-safe; the jobs it runs are not synchronized with
// each other. Simulation code is safe to run here one Scenario per job (see
// net/packet_slab.hpp for the shared-state contract).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace cebinae::exp {

class ThreadPool {
 public:
  // threads < 1 is clamped to 1. A one-thread pool is still asynchronous
  // (jobs run on the worker, not the caller), which keeps the jobs=1 and
  // jobs=N code paths identical for determinism tests.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueue `fn` and return a future for its result. Throws
  // std::runtime_error if the pool is already shutting down.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // Jobs queued but not yet picked up by a worker (diagnostic).
  [[nodiscard]] std::size_t queued() const;

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace cebinae::exp
