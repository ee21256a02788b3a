// Compiler-pool unit tests: run_tasks fan-out onto idle workers, the
// inline fallback when none is idle, and configuration checks.
// (Coalescing lives in the service layer and is covered by
// service_test.cpp.)
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

using Clock = std::chrono::steady_clock;

TEST(CompilerPoolTest, RejectsInvalidConfig) {
  EXPECT_THROW(CompilerPool(0, 4), InvalidArgument);
  EXPECT_THROW(CompilerPool(2, 0), InvalidArgument);
}

TEST(CompilerPoolTest, ParallelismActuallyOverlaps) {
  // With 4 idle workers, a batch of 5 tasks that each wait for all 5 to
  // start can only finish in time if the caller and 4 helpers run them
  // at once.
  constexpr int kWorkers = 4;
  constexpr int kTasks = kWorkers + 1;
  CompilerPool pool(kWorkers, 8);
  std::atomic<int> started{0};
  std::atomic<int> overlapped{0};
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  std::vector<std::function<void()>> tasks(kTasks, [&] {
    started.fetch_add(1);
    while (started.load() < kTasks && Clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (started.load() == kTasks) overlapped.fetch_add(1);
  });
  pool.run_tasks(tasks);
  EXPECT_EQ(overlapped.load(), kTasks);
  const CompilerPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, kWorkers);  // one helper per idle worker
  EXPECT_LE(stats.peak_queue_depth, kWorkers);
}

TEST(CompilerPoolTest, RunTasksRunsEveryTaskExactlyOnce) {
  // From outside the pool (idle workers help) and from inside a helper's
  // task (a nested batch gets whatever workers are still idle).
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

  // Two outer tasks that wait for each other run on two threads, so at
  // least one of them runs on a helper and nests its batch there. Wait
  // out the first batch's straggling helpers so a worker is idle.
  while (pool.stats().executed < pool.stats().submitted) {
    std::this_thread::yield();
  }
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<int> nested_wrong{0};
  std::atomic<int> nested_on_helper{0};
  std::vector<std::function<void()>> outer(2, [&] {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    if (std::this_thread::get_id() != caller) nested_on_helper.fetch_add(1);
    nested_wrong.fetch_add(check_batch());
  });
  pool.run_tasks(outer);
  EXPECT_GE(nested_on_helper.load(), 1);
  EXPECT_EQ(nested_wrong.load(), 0);
}

TEST(CompilerPoolTest, RunTasksWithEveryWorkerHeldRunsInline) {
  // Another thread's batch holds both workers (and its own thread) in
  // tasks blocked on a latch, so a second batch gets no helper: it runs
  // wholly on its caller, and the queue never sees a helper job for it.
  constexpr int kWorkers = 2;
  CompilerPool pool(kWorkers, 8);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> held{0};
  std::thread blocked([&] {
    std::vector<std::function<void()>> tasks(kWorkers + 1, [&] {
      held.fetch_add(1);
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return release; });
    });
    pool.run_tasks(tasks);
  });
  while (held.load() < kWorkers + 1) std::this_thread::yield();

  const CompilerPool::Stats before = pool.stats();
  std::vector<std::thread::id> ran(16);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < ran.size(); ++i) {
    tasks.push_back([&ran, i] { ran[i] = std::this_thread::get_id(); });
  }
  pool.run_tasks(tasks);
  const CompilerPool::Stats after = pool.stats();
  for (const std::thread::id& id : ran) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(before.submitted, kWorkers);  // the blocked batch's helpers
  EXPECT_EQ(after.submitted, before.submitted);
  EXPECT_EQ(after.queue_depth, 0);

  {
    const std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  blocked.join();
}

}  // namespace
}  // namespace aapc::service
