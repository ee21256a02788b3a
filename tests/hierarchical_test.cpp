// Tests for the hierarchical/parallel message assignment: bit-identity
// with the flat Figure-4 path on random trees, determinism under a
// multi-threaded task runner, and the peak-bound (min-phase optimality)
// check on hierarchical schedules.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/core/hierarchical.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::core {
namespace {

using topology::make_fat_tree;
using topology::make_paper_figure1;
using topology::make_random_tree;
using topology::make_single_switch;
using topology::Topology;

/// A deliberately adversarial runner: four threads pull tasks from a
/// shared cursor in whatever interleaving the scheduler produces, so any
/// cross-task ordering dependence shows up as a flaky diff against the
/// sequential output.
void threaded_runner(const std::vector<Task>& tasks) {
  std::atomic<std::size_t> next{0};
  auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= tasks.size()) return;
      tasks[i]();
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(drain);
  for (std::thread& t : threads) t.join();
}

void expect_bit_identical(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.phase_begin, b.phase_begin);
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    ASSERT_EQ(a.messages[i], b.messages[i]) << "arena index " << i;
  }
}

TEST(HierarchicalTest, MatchesFlatOnPaperExample) {
  const Topology topo = make_paper_figure1();
  const Decomposition dec = decompose_at(topo, *topo.find_node("s1"));
  expect_bit_identical(assign_messages(dec),
                       assign_messages_hierarchical(dec));
}

TEST(HierarchicalTest, MatchesFlatOnSingleSwitch) {
  const Topology topo = make_single_switch(16);
  const Decomposition dec = decompose(topo);
  expect_bit_identical(assign_messages(dec),
                       assign_messages_hierarchical(dec));
}

TEST(HierarchicalTest, MatchesFlatOnBothStep6Patterns) {
  const Topology topo = topology::make_chain({4, 3, 2});
  const Decomposition dec = decompose(topo);
  for (const auto pattern : {AssignmentOptions::Step6Pattern::kBroadcast,
                             AssignmentOptions::Step6Pattern::kRotate}) {
    AssignmentOptions options;
    options.step6 = pattern;
    expect_bit_identical(assign_messages(dec, options),
                         assign_messages_hierarchical(dec, options));
  }
}

class HierarchicalRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HierarchicalRandomTest, FlatEquivalenceOnRandomTrees) {
  // Property: hierarchical == flat, bit for bit, on random trees up to
  // 256 ranks — including under a threaded runner with tiny tasks (to
  // force many task boundaries) and the verifier's full §4 conditions
  // (coverage, contention-freeness, peak-bound phase count).
  Rng rng(GetParam());
  topology::RandomTreeOptions topt;
  topt.switches = static_cast<std::int32_t>(rng.next_in(2, 12));
  topt.machines = static_cast<std::int32_t>(rng.next_in(3, 256));
  const Topology topo = make_random_tree(rng, topt);
  const Decomposition dec = decompose(topo);

  const Schedule flat = assign_messages(dec);
  const Schedule sequential = assign_messages_hierarchical(dec);
  expect_bit_identical(flat, sequential);

  HierarchicalOptions small_tasks;
  small_tasks.messages_per_task = 64;
  const Schedule parallel =
      assign_messages_hierarchical(dec, small_tasks, threaded_runner);
  expect_bit_identical(flat, parallel);

  const VerifyReport report = verify_schedule(topo, parallel);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(parallel.phase_count(), topo.aapc_load());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchicalRandomTest,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST(HierarchicalTest, ParallelRunsAreMutuallyIdentical) {
  // Determinism golden: repeated threaded runs must agree with each
  // other exactly (not only with the flat path).
  const Topology topo = make_fat_tree(2, 3, 4);
  const Decomposition dec = decompose(topo);
  HierarchicalOptions small_tasks;
  small_tasks.messages_per_task = 32;
  const Schedule first =
      assign_messages_hierarchical(dec, small_tasks, threaded_runner);
  for (int run = 0; run < 3; ++run) {
    expect_bit_identical(
        first, assign_messages_hierarchical(dec, small_tasks,
                                            threaded_runner));
  }
}

TEST(HierarchicalTest, MatchesFlatAcrossManyPhaseBlocks) {
  // 1024 ranks: 61 440 phases, so the count, scatter and settle passes
  // work on 15 phase blocks, and 64-message tasks put hundreds of task
  // runs into each block.
  const Topology topo = make_fat_tree(16, 8, 8);
  const Decomposition dec = decompose(topo);
  const Schedule flat = assign_messages(dec);
  ASSERT_EQ(flat.phase_count(), 61440);
  HierarchicalOptions small_tasks;
  small_tasks.messages_per_task = 64;
  expect_bit_identical(
      flat, assign_messages_hierarchical(dec, small_tasks, threaded_runner));
  expect_bit_identical(flat, assign_messages_hierarchical(dec));
}

TEST(HierarchicalTest, PeakBoundHoldsOnHierarchicalSchedules) {
  // The merge across the root must not cost phases: the hierarchical
  // schedule meets the theoretical minimum |M0|*(|M|-|M0|) = aapc_load
  // exactly (the verifier's optimal-phase-count condition), on shapes
  // with deep subtrees and very unbalanced subtree sizes.
  for (const Topology& topo :
       {make_fat_tree(3, 2, 5), topology::make_star({12, 1, 1, 1}),
        topology::make_binary_tree(4, 3)}) {
    const Decomposition dec = decompose(topo);
    const Schedule schedule =
        assign_messages_hierarchical(dec, AssignmentOptions{},
                                     threaded_runner);
    EXPECT_EQ(schedule.phase_count(), topo.aapc_load());
    EXPECT_EQ(schedule.phase_count(), dec.total_phases());
    const VerifyReport report = verify_schedule(topo, schedule);
    EXPECT_TRUE(report.ok) << report.summary();
  }
}

TEST(HierarchicalTest, BuildAapcScheduleEqualsFlatAssignment) {
  const Topology topo = topology::make_chain({5, 4, 3});
  const Decomposition dec = decompose(topo);
  SchedulerOptions options;
  options.runner = threaded_runner;
  expect_bit_identical(assign_messages(dec), build_aapc_schedule(topo));
  expect_bit_identical(assign_messages(dec),
                       build_aapc_schedule(topo, options));
}

TEST(HierarchicalTest, TaskErrorsSurfaceAfterJoin) {
  // A runner that drops a task on the floor must be detected (part of
  // the arena would be unwritten), not silently accepted — in the
  // count, the scatter and the settle pass alike.
  const Topology topo = make_single_switch(8);
  const Decomposition dec = decompose(topo);
  const TaskRunner lossy = [](const std::vector<Task>& tasks) {
    for (std::size_t i = 0; i + 1 < tasks.size(); ++i) tasks[i]();
  };
  HierarchicalOptions small_tasks;
  small_tasks.messages_per_task = 8;
  EXPECT_THROW(assign_messages_hierarchical(dec, small_tasks, lossy),
               Error);
  for (int pass = 0; pass < 3; ++pass) {
    int calls = 0;
    const TaskRunner drops_in_one_pass =
        [&calls, pass](const std::vector<Task>& tasks) {
          const bool drop = calls++ == pass;
          for (std::size_t i = drop ? 1 : 0; i < tasks.size(); ++i) {
            tasks[i]();
          }
        };
    EXPECT_THROW(
        assign_messages_hierarchical(dec, small_tasks, drops_in_one_pass),
        InternalError)
        << "pass " << pass;
    EXPECT_EQ(calls, pass + 1) << "the join check stops the passes";
  }
}

}  // namespace
}  // namespace aapc::core
