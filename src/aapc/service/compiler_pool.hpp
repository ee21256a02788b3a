// Fixed-size pool of helper threads for a caller's task batches.
//
// A schedule compilation runs on the thread that requested it. Its
// assignment and verification passes are batches of independent tasks,
// and run_tasks lends them whatever workers are idle: the caller drains
// the batch alongside them, so a pool with no idle worker only makes
// the batch run inline. The queue holds nothing but those helper jobs,
// never more than the idle workers, so it needs no rejection path.
// Backpressure lives with the callers (docs/SERVICE.md).
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

class CompilerPool {
 public:
  struct Stats {
    std::int64_t submitted = 0;  // helper jobs queued
    std::int64_t executed = 0;
    std::int64_t queue_depth = 0;  // current
    std::int64_t peak_queue_depth = 0;
  };

  /// Starts `threads` workers. At most `queue_capacity` helper jobs wait
  /// beyond the ones currently executing.
  CompilerPool(std::int32_t threads, std::int32_t queue_capacity);

  /// Queued helper jobs still run, then workers join.
  ~CompilerPool();

  CompilerPool(const CompilerPool&) = delete;
  CompilerPool& operator=(const CompilerPool&) = delete;

  /// Runs every task in `tasks` and returns when all have finished.
  /// The calling thread participates: it pulls tasks from a shared
  /// cursor alongside helper jobs, which are offered only to idle
  /// workers that no queued helper has claimed (and never beyond the
  /// queue's capacity). A pool of busy workers — for instance one
  /// calling this from inside a helper's task — therefore leaves the
  /// queue untouched and runs the batch inline instead of deadlocking.
  /// Tasks must not throw. Shaped as the core::TaskRunner contract —
  /// the service installs this as the assignment's and the verifier's
  /// runner.
  void run_tasks(const std::vector<std::function<void()>>& tasks);

  Stats stats() const;

 private:
  void worker_loop();

  const std::size_t queue_capacity_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::size_t busy_ = 0;  // workers running a helper job
  std::int64_t submitted_ = 0;
  std::int64_t executed_ = 0;
  std::int64_t peak_queue_depth_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace aapc::service
