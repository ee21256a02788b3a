#include "aapc/service/compiler_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

namespace aapc::service {

CompilerPool::CompilerPool(std::int32_t threads, std::int32_t queue_capacity)
    : queue_capacity_(static_cast<std::size_t>(std::max(queue_capacity, 1))) {
  AAPC_REQUIRE(threads >= 1, "compiler pool needs >= 1 thread");
  AAPC_REQUIRE(queue_capacity >= 1, "compiler pool queue capacity must be >= 1");
  workers_.reserve(static_cast<std::size_t>(threads));
  for (std::int32_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

CompilerPool::~CompilerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void CompilerPool::run_tasks(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    tasks[0]();
    return;
  }
  // Shared between the caller and its helper jobs. Helpers may outlive
  // the call (a straggler that finds the cursor exhausted), so the state
  // they touch after the last task completes lives behind a shared_ptr
  // and never dereferences the caller's vector: `data` is only read for
  // indices below `n`, and a task at index i keeps `done < n` until it
  // returns, which keeps the caller (and the vector) alive.
  struct Shared {
    const std::function<void()>* data;
    std::size_t n;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable all_done;
  };
  auto shared = std::make_shared<Shared>();
  shared->data = tasks.data();
  shared->n = tasks.size();
  auto drain = [shared] {
    for (;;) {
      const std::size_t i = shared->next.fetch_add(1);
      if (i >= shared->n) return;
      shared->data[i]();
      if (shared->done.fetch_add(1) + 1 == shared->n) {
        const std::lock_guard<std::mutex> lock(shared->mutex);
        shared->all_done.notify_all();
      }
    }
  };
  // Helpers go only to idle workers that no queued helper has claimed,
  // so a helper never waits behind another batch's helper. With every
  // worker busy (or the pool shutting down) the caller drains the
  // whole batch itself.
  std::size_t helpers = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t idle = workers_.size() - busy_;
    const std::size_t queued = queue_.size();
    if (!shutting_down_ && idle > queued && queue_capacity_ > queued) {
      helpers = std::min(
          {idle - queued, queue_capacity_ - queued, tasks.size() - 1});
    }
    for (std::size_t h = 0; h < helpers; ++h) queue_.push_back(drain);
    submitted_ += static_cast<std::int64_t>(helpers);
    peak_queue_depth_ = std::max(peak_queue_depth_,
                                 static_cast<std::int64_t>(queue_.size()));
  }
  for (std::size_t h = 0; h < helpers; ++h) work_available_.notify_one();
  drain();
  std::unique_lock<std::mutex> lock(shared->mutex);
  shared->all_done.wait(
      lock, [&shared] { return shared->done.load() >= shared->n; });
}

void CompilerPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down with nothing pending
      task = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
    }
    task();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --busy_;
      ++executed_;
    }
  }
}

CompilerPool::Stats CompilerPool::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.submitted = submitted_;
  stats.executed = executed_;
  stats.queue_depth = static_cast<std::int64_t>(queue_.size());
  stats.peak_queue_depth = peak_queue_depth_;
  return stats;
}

}  // namespace aapc::service
