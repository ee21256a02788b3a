// Fixed-size compilation thread pool with a bounded submission queue.
//
// Schedule compilation is CPU-bound and seconds-scale at large cluster
// sizes, so the service runs it on a dedicated pool instead of the
// request threads. The queue is bounded: when every worker is busy and
// the queue is full, submit() throws PoolSaturated instead of letting
// the backlog grow without bound — the service layer translates that
// into a reject-with-retry-after response (backpressure contract, see
// docs/SERVICE.md).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "aapc/common/error.hpp"

namespace aapc::service {

/// Thrown by CompilerPool::submit when the bounded queue is full.
class PoolSaturated : public Error {
 public:
  explicit PoolSaturated(const std::string& what) : Error(what) {}
};

class CompilerPool {
 public:
  struct Stats {
    std::int64_t submitted = 0;
    std::int64_t executed = 0;
    std::int64_t rejected = 0;
    std::int64_t queue_depth = 0;       // current
    std::int64_t peak_queue_depth = 0;
  };

  /// Starts `threads` workers. At most `queue_capacity` tasks may wait
  /// beyond the ones currently executing.
  CompilerPool(std::int32_t threads, std::int32_t queue_capacity);

  /// Drains nothing: pending tasks are completed, then workers join.
  ~CompilerPool();

  CompilerPool(const CompilerPool&) = delete;
  CompilerPool& operator=(const CompilerPool&) = delete;

  /// Enqueues `task` for execution on a worker thread. Tasks must not
  /// throw (wrap compilation in a promise and store exceptions there).
  /// Throws PoolSaturated when the queue is at capacity.
  void submit(std::function<void()> task);

  /// Runs every task in `tasks` and returns when all have finished.
  /// The calling thread participates: it pulls tasks from a shared
  /// cursor alongside helper jobs, which are offered only to idle
  /// workers that no queued task has claimed (and never beyond the
  /// queue's capacity). A pool of busy workers — for instance one
  /// calling this from inside its own task — therefore leaves the queue
  /// untouched and runs the batch inline instead of deadlocking. Tasks
  /// must not throw. Shaped as the core::TaskRunner contract — the
  /// service installs this as the assignment's and the verifier's
  /// runner.
  void run_tasks(const std::vector<std::function<void()>>& tasks);

  Stats stats() const;
  std::int32_t thread_count() const {
    return static_cast<std::int32_t>(workers_.size());
  }

 private:
  void worker_loop();

  const std::size_t queue_capacity_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::size_t busy_ = 0;  // workers running a task
  std::int64_t submitted_ = 0;
  std::int64_t executed_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t peak_queue_depth_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace aapc::service
