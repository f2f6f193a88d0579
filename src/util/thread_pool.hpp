#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hpop::util {

/// Fixed-size worker pool for embarrassingly parallel batches (one
/// Simulator per task). Tasks are independent by contract — the pool
/// provides no ordering guarantees, so anything order-sensitive (like
/// merging sweep results by seed) belongs to the caller.
class ThreadPool {
 public:
  /// threads == 0 runs every task inline on the submitting thread; the
  /// serial reference mode the sweeper's determinism check compares with.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished running.
  void wait_idle();

  std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + currently executing
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace hpop::util
