// Tests for the verifier's task runner: on schedules large enough to be
// cut into several phase ranges, a report (violations, their order and
// max_edge_multiplicity) and every throw must be the same with a
// threaded runner as inline. The planted faults mirror the
// AssignTest.Verifier* cases, spread over early, middle and late
// ranges.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/core/collectives.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::core {
namespace {

using topology::Topology;

/// Four threads pull tasks from a shared cursor in whatever
/// interleaving the scheduler produces.
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

/// A runner that counts the tasks it is handed, then runs them.
struct CountingRunner {
  std::shared_ptr<std::size_t> tasks = std::make_shared<std::size_t>(0);
  void operator()(const std::vector<Task>& batch) const {
    *tasks += batch.size();
    for (const Task& task : batch) task();
  }
};

/// What a call threw, or "" when it returned.
std::string thrown(const std::function<void()>& call) {
  try {
    call();
  } catch (const std::exception& error) {
    return error.what();
  }
  return "";
}

/// 384 ranks: 147 072 messages, above kTaskGrain, so a runner splits
/// every check into three phase ranges.
const Topology& large_tree() {
  static const Topology topo = topology::make_fat_tree(4, 4, 24);
  return topo;
}

std::vector<std::vector<Message>> large_phases() {
  static const std::vector<std::vector<Message>> phases =
      build_aapc_schedule(large_tree()).phase_lists();
  return phases;
}

/// Moves into phase `into` a message from the nearest later (else
/// earlier) phase that shares a source with it: coverage holds, and the
/// source's uplink contends in `into`.
void plant_contention(std::vector<std::vector<Message>>& phases,
                      std::size_t into) {
  for (std::size_t delta = 1; delta < phases.size(); ++delta) {
    const std::size_t from =
        into + delta < phases.size() ? into + delta : into - delta;
    for (const Message& a : phases[into]) {
      auto& source = phases[from];
      for (auto it = source.begin(); it != source.end(); ++it) {
        if (it->src == a.src) {
          phases[into].push_back(*it);
          source.erase(it);
          return;
        }
      }
    }
  }
  FAIL() << "no phase shares a source with phase " << into;
}

void expect_same_reports(const Topology& topo, const Schedule& schedule) {
  const VerifyReport inline_report = verify_schedule(topo, schedule);
  const VerifyReport runner_report =
      verify_schedule(topo, schedule, {}, threaded_runner);
  EXPECT_FALSE(inline_report.ok);
  EXPECT_EQ(runner_report.ok, inline_report.ok);
  EXPECT_EQ(runner_report.violations, inline_report.violations);
  EXPECT_EQ(runner_report.max_edge_multiplicity,
            inline_report.max_edge_multiplicity);
  EXPECT_EQ(thrown([&] { require_contention_free(topo, schedule); }),
            thrown([&] {
              require_contention_free(topo, schedule, threaded_runner);
            }));
}

TEST(VerifyRunnerTest, LargeScheduleIsCutIntoRanges) {
  const Schedule schedule = build_aapc_schedule(large_tree());
  ASSERT_GT(schedule.message_count(), kTaskGrain);
  const CountingRunner runner;
  const VerifyReport report =
      verify_schedule(large_tree(), schedule, {}, runner);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.max_edge_multiplicity, 1);
  EXPECT_GE(*runner.tasks, 3u);
  require_contention_free(large_tree(), schedule, runner);
  EXPECT_GE(*runner.tasks, 6u);
}

TEST(VerifyRunnerTest, SmallScheduleStaysInOneRange) {
  // 256 ranks: 65 280 messages, below the grain, so one task.
  const Topology topo = topology::make_fat_tree(8, 4, 8);
  const Schedule schedule = build_aapc_schedule(topo);
  ASSERT_LE(schedule.message_count(), kTaskGrain);
  const CountingRunner runner;
  EXPECT_TRUE(verify_schedule(topo, schedule, {}, runner).ok);
  EXPECT_EQ(*runner.tasks, 1u);
}

TEST(VerifyRunnerTest, PlantedContentionReportsMatch) {
  auto phases = large_phases();
  const std::size_t last = phases.size() - 1;
  plant_contention(phases, 0);
  plant_contention(phases, last / 2);
  plant_contention(phases, last);
  const Schedule schedule = Schedule::from_phase_lists(phases);
  expect_same_reports(large_tree(), schedule);
  const VerifyReport report = verify_schedule(large_tree(), schedule);
  EXPECT_GE(report.violations.size(), 3u);
  EXPECT_EQ(report.max_edge_multiplicity, 2);
}

TEST(VerifyRunnerTest, PlantedDuplicateReportsMatch) {
  auto phases = large_phases();
  phases[phases.size() / 2].push_back(phases[5].front());
  phases.back().push_back(phases[7].front());
  expect_same_reports(large_tree(), Schedule::from_phase_lists(phases));
}

TEST(VerifyRunnerTest, PlantedMissingMessageReportsMatch) {
  auto phases = large_phases();
  phases.front().pop_back();
  phases.back().pop_back();
  const Schedule schedule = Schedule::from_phase_lists(phases);
  expect_same_reports(large_tree(), schedule);
  EXPECT_EQ(verify_schedule(large_tree(), schedule).violations.size(), 2u);
}

TEST(VerifyRunnerTest, PlantedSelfMessageReportsMatch) {
  auto phases = large_phases();
  phases[phases.size() / 2].push_back(Message{3, 3});
  phases.back().push_back(Message{7, 7});
  const Schedule schedule = Schedule::from_phase_lists(phases);
  expect_same_reports(large_tree(), schedule);
  EXPECT_NE(thrown([&] { require_contention_free(large_tree(), schedule); })
                .find("malformed message 3->3"),
            std::string::npos);
}

TEST(VerifyRunnerTest, PlantedWrongPhaseCountReportsMatch) {
  auto phases = large_phases();
  phases.emplace_back();  // padding phase
  expect_same_reports(large_tree(), Schedule::from_phase_lists(phases));
}

TEST(VerifyRunnerTest, FirstOutOfRangeRankThrowsEitherWay) {
  // Out-of-range ranks in the middle and the last range: both paths
  // throw for the earlier one.
  auto phases = large_phases();
  const Rank machines = large_tree().machine_count();
  phases[phases.size() / 2].push_back(Message{0, machines});
  phases.back().push_back(Message{machines + 1, 0});
  const Schedule schedule = Schedule::from_phase_lists(phases);
  const std::string inline_error =
      thrown([&] { verify_schedule(large_tree(), schedule); });
  EXPECT_NE(inline_error.find("phase " + std::to_string(phases.size() / 2)),
            std::string::npos)
      << inline_error;
  EXPECT_EQ(thrown([&] {
              verify_schedule(large_tree(), schedule, {}, threaded_runner);
            }),
            inline_error);
}

TEST(VerifyRunnerTest, DroppedRangeIsAnError) {
  const Schedule schedule = build_aapc_schedule(large_tree());
  const TaskRunner lossy = [](const std::vector<Task>& tasks) {
    for (std::size_t i = 0; i + 1 < tasks.size(); ++i) tasks[i]();
  };
  EXPECT_THROW(verify_schedule(large_tree(), schedule, {}, lossy),
               InternalError);
}

TEST(VerifyRunnerTest, CollectiveReportsMatch) {
  // An allgather ring on 384 ranks (147 072 messages): one message
  // moved a phase early keeps the ring's shape and coverage but
  // contends, so the pattern kernel reports it.
  const Topology& topo = large_tree();
  auto phases = build_allgather_schedule(topo).phase_lists();
  plant_contention(phases, 0);
  Schedule schedule = Schedule::from_phase_lists(phases);
  schedule.kind = CollectiveKind::kAllgather;
  const VerifyReport inline_report = verify_collective_schedule(topo, schedule);
  const VerifyReport runner_report =
      verify_collective_schedule(topo, schedule, {}, threaded_runner);
  EXPECT_FALSE(inline_report.ok);
  EXPECT_EQ(runner_report.violations, inline_report.violations);
  EXPECT_EQ(runner_report.max_edge_multiplicity,
            inline_report.max_edge_multiplicity);
}

}  // namespace
}  // namespace aapc::core
