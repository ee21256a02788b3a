// Compiler-pool unit tests: execution, bounded-queue backpressure,
// shutdown draining, and run_tasks fan-out. (Coalescing lives in the
// service layer and is covered by service_test.cpp.)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "aapc/service/compiler_pool.hpp"

namespace aapc::service {
namespace {

TEST(CompilerPoolTest, ExecutesEverySubmittedTask) {
  std::atomic<int> executed{0};
  {
    CompilerPool pool(4, 64);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&executed] { executed.fetch_add(1); });
    }
  }  // destructor drains the queue and joins
  EXPECT_EQ(executed.load(), 50);
}

TEST(CompilerPoolTest, StatsCountSubmissions) {
  CompilerPool pool(2, 16);
  std::atomic<int> executed{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&executed] { executed.fetch_add(1); });
  }
  // Spin until the queue drains (bounded by the test timeout).
  while (executed.load() < 10) std::this_thread::yield();
  const CompilerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 10);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_GE(stats.peak_queue_depth, 0);
}

TEST(CompilerPoolTest, SaturatedQueueRejects) {
  // One worker blocked on a latch; queue capacity 2. The third queued
  // submission must throw PoolSaturated, and the counter must show it.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  CompilerPool pool(1, 2);
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
  });
  // Wait until the worker has picked up the blocking task, so both
  // subsequent submissions sit in the queue.
  while (pool.stats().queue_depth > 0) std::this_thread::yield();
  pool.submit([] {});
  pool.submit([] {});
  EXPECT_THROW(pool.submit([] {}), PoolSaturated);
  EXPECT_EQ(pool.stats().rejected, 1);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
}

TEST(CompilerPoolTest, RejectsInvalidConfig) {
  EXPECT_THROW(CompilerPool(0, 4), InvalidArgument);
  EXPECT_THROW(CompilerPool(2, 0), InvalidArgument);
}

TEST(CompilerPoolTest, ParallelismActuallyOverlaps) {
  // With 4 workers, 4 tasks that each wait for all 4 to start can only
  // finish if they run concurrently.
  CompilerPool pool(4, 8);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  for (int i = 0; i < 4; ++i) {
    pool.submit([&] {
      started.fetch_add(1);
      while (started.load() < 4) std::this_thread::yield();
      finished.fetch_add(1);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (finished.load() < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(finished.load(), 4);
}

TEST(CompilerPoolTest, QueuedTasksRunInSubmissionOrder) {
  // One worker parked on a latch while two tasks queue behind it: they
  // must run first in, first out.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;
  std::mutex order_mutex;
  auto record = [&](int tag) {
    return [&, tag] {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    };
  };
  {
    CompilerPool pool(1, 8);
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return release; });
    });
    while (pool.stats().queue_depth > 0) std::this_thread::yield();
    pool.submit(record(1));
    pool.submit(record(2));
    {
      const std::lock_guard<std::mutex> lock(mutex);
      release = true;
    }
    cv.notify_all();
  }  // destructor drains the queue and joins
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(CompilerPoolTest, RunTasksRunsEveryTaskExactlyOnce) {
  // From outside the pool (idle workers help) and from inside a worker's
  // own task (the caller drains alongside whatever helpers it got).
  CompilerPool pool(4, 64);
  constexpr int kTasks = 1000;
  const auto check_batch = [&pool] {
    std::vector<std::atomic<int>> runs(kTasks);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < kTasks; ++i) {
      tasks.push_back([&runs, i] { runs[i].fetch_add(1); });
    }
    pool.run_tasks(tasks);
    int wrong = 0;
    for (const std::atomic<int>& r : runs) wrong += r.load() != 1;
    return wrong;
  };
  EXPECT_EQ(check_batch(), 0);
  std::atomic<int> nested_wrong{-1};
  pool.submit([&] { nested_wrong = check_batch(); });
  CompilerPool::Stats stats = pool.stats();
  while (stats.queue_depth > 0 || nested_wrong.load() < 0) {
    std::this_thread::yield();
    stats = pool.stats();
  }
  EXPECT_EQ(nested_wrong.load(), 0);
}

TEST(CompilerPoolTest, RunTasksWithEveryWorkerBusyRunsInline) {
  // Both workers are busy — one of them is the caller — so no helper is
  // offered: the whole batch runs on the calling worker, and the queue
  // never sees a helper job.
  CompilerPool pool(2, 8);
  std::atomic<int> started{0};
  std::atomic<bool> batch_done{false};
  std::vector<std::thread::id> ran(16);
  std::thread::id caller;
  CompilerPool::Stats before;
  CompilerPool::Stats after;
  pool.submit([&] {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < ran.size(); ++i) {
      tasks.push_back([&ran, i] { ran[i] = std::this_thread::get_id(); });
    }
    before = pool.stats();
    pool.run_tasks(tasks);
    after = pool.stats();
    caller = std::this_thread::get_id();
    batch_done = true;
  });
  pool.submit([&] {
    started.fetch_add(1);
    while (!batch_done.load()) std::this_thread::yield();
  });
  // The pool counts a task after it returns; waiting on that count
  // also makes the first task's writes visible here.
  while (pool.stats().executed < 2) std::this_thread::yield();
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
  EXPECT_EQ(before.queue_depth, 0);
  EXPECT_EQ(after.queue_depth, 0);
  EXPECT_EQ(after.submitted, before.submitted);
  EXPECT_EQ(pool.stats().submitted, 2);  // the two submits, no helper
}

}  // namespace
}  // namespace aapc::service
