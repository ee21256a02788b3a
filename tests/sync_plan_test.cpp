// Tests for the contention-dependence graph and redundant-synchronization
// elimination (§5).
#include <gtest/gtest.h>

#include <set>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::sync {
namespace {

using core::Message;
using core::Schedule;
using topology::make_paper_figure1;
using topology::make_single_switch;
using topology::Topology;

Schedule make_schedule(
    const std::vector<std::vector<Message>>& phases) {
  return Schedule::from_phase_lists(phases);
}

TEST(SyncPlanTest, ChainIsTransitivelyReduced) {
  // Three phases, all messages from rank 0 (share its uplink): the full
  // graph has edges 0->1, 0->2, 1->2; reduction drops 0->2.
  const Topology topo = make_single_switch(4);
  const Schedule schedule =
      make_schedule({{Message{0, 1}}, {Message{0, 2}}, {Message{0, 3}}});
  SyncPlanOptions keep_all;
  keep_all.remove_redundant = false;
  const SyncPlan full = build_sync_plan(topo, schedule, keep_all);
  EXPECT_EQ(full.edges_before_reduction, 3);
  EXPECT_EQ(full.edges.size(), 3u);

  const SyncPlan reduced = build_sync_plan(topo, schedule);
  EXPECT_EQ(reduced.edges_before_reduction, 3);
  ASSERT_EQ(reduced.edges.size(), 2u);
  EXPECT_EQ(reduced.edges[0], (SyncEdge{0, 1}));
  EXPECT_EQ(reduced.edges[1], (SyncEdge{1, 2}));
}

TEST(SyncPlanTest, NoEdgesWithinAPhase) {
  const Topology topo = make_single_switch(4);
  // Two disjoint messages in one phase; no dependencies possible.
  const Schedule schedule =
      make_schedule({{Message{0, 1}, Message{2, 3}}});
  const SyncPlan plan = build_sync_plan(topo, schedule);
  EXPECT_TRUE(plan.edges.empty());
}

TEST(SyncPlanTest, DisjointPathsNeedNoSync) {
  const Topology topo = make_single_switch(4);
  // Phase 0: 0->1; phase 1: 2->3. No shared edge -> no dependency.
  const Schedule schedule =
      make_schedule({{Message{0, 1}}, {Message{2, 3}}});
  const SyncPlan plan = build_sync_plan(topo, schedule);
  EXPECT_TRUE(plan.edges.empty());
}

TEST(SyncPlanTest, ReceiverSideContentionDetected) {
  const Topology topo = make_single_switch(4);
  // Same destination in consecutive phases: the downlink is shared.
  const Schedule schedule =
      make_schedule({{Message{0, 3}}, {Message{1, 3}}});
  const SyncPlan plan = build_sync_plan(topo, schedule);
  ASSERT_EQ(plan.edges.size(), 1u);
  EXPECT_EQ(plan.edges[0], (SyncEdge{0, 1}));
  EXPECT_EQ(plan.cross_node_edges, 1);
}

TEST(SyncPlanTest, SameSenderEdgesAreNotCrossNode) {
  const Topology topo = make_single_switch(4);
  const Schedule schedule =
      make_schedule({{Message{0, 1}}, {Message{0, 2}}});
  const SyncPlan plan = build_sync_plan(topo, schedule);
  ASSERT_EQ(plan.edges.size(), 1u);
  EXPECT_EQ(plan.cross_node_edges, 0);
}

TEST(SyncPlanTest, NonAdjacentPhaseDependencySurvivesWhenDirect) {
  const Topology topo = make_single_switch(4);
  // Phase 0: 0->1. Phase 1: 2->3 (unrelated). Phase 2: 0->2.
  // The only ordering for (0->1, 0->2) is the direct edge — reduction
  // must keep it even though the messages are two phases apart.
  const Schedule schedule = make_schedule(
      {{Message{0, 1}}, {Message{2, 3}}, {Message{0, 2}}});
  const SyncPlan plan = build_sync_plan(topo, schedule);
  ASSERT_EQ(plan.edges.size(), 1u);
  EXPECT_EQ(plan.edges[0], (SyncEdge{0, 2}));
}

TEST(SyncPlanTest, ReductionPreservesReachability) {
  // On the paper's worked example: the reduced graph must order exactly
  // the same message pairs as the full dependence graph (transitively).
  const Topology topo = make_paper_figure1();
  const Schedule schedule = core::build_aapc_schedule(topo);
  SyncPlanOptions keep_all;
  keep_all.remove_redundant = false;
  const SyncPlan full = build_sync_plan(topo, schedule, keep_all);
  const SyncPlan reduced = build_sync_plan(topo, schedule);
  EXPECT_LT(reduced.edges.size(), full.edges.size());

  const auto n = static_cast<std::size_t>(schedule.messages.size());
  auto closure = [n](const std::vector<SyncEdge>& edges) {
    std::vector<std::set<std::int32_t>> reach(n);
    // Edges point forward in index order; process sources descending.
    std::vector<std::vector<std::int32_t>> succ(n);
    for (const SyncEdge& e : edges) succ[e.from].push_back(e.to);
    for (std::size_t i = n; i-- > 0;) {
      for (const std::int32_t j : succ[i]) {
        reach[i].insert(j);
        reach[i].insert(reach[j].begin(), reach[j].end());
      }
    }
    return reach;
  };
  EXPECT_EQ(closure(full.edges), closure(reduced.edges));
}

TEST(SyncPlanTest, PaperExampleReductionShrinksPlan) {
  const Topology topo = make_paper_figure1();
  const Schedule schedule = core::build_aapc_schedule(topo);
  const SyncPlan plan = build_sync_plan(topo, schedule);
  EXPECT_GT(plan.edges_before_reduction, 0);
  // §5: redundant synchronizations are the common case.
  EXPECT_LT(static_cast<double>(plan.edges.size()),
            0.5 * static_cast<double>(plan.edges_before_reduction));
}

TEST(SyncPlanTest, DecreasingPhaseOffsetsRejected) {
  // A message's phase is its position, so offsets that step back would
  // put message 1 in two phases at once.
  const Topology topo = make_single_switch(3);
  Schedule schedule = make_schedule(
      {{Message{0, 1}}, {Message{1, 2}}, {Message{2, 0}}});
  schedule.phase_begin = {0, 2, 1, 3};
  EXPECT_THROW(build_sync_plan(topo, schedule), aapc::InvalidArgument);
}

TEST(SyncPlanTest, PhaseOffsetsMustSpanTheMessages) {
  const Topology topo = make_single_switch(3);
  Schedule schedule = make_schedule({{Message{0, 1}}, {Message{1, 2}}});
  ASSERT_NO_THROW(build_sync_plan(topo, schedule));
  for (const std::int64_t last : {1, 3}) {
    schedule.phase_begin.back() = last;
    EXPECT_THROW(build_sync_plan(topo, schedule), aapc::InvalidArgument)
        << "last offset " << last << " with 2 messages";
  }
  schedule.phase_begin = {1, 1, 2};
  EXPECT_THROW(build_sync_plan(topo, schedule), aapc::InvalidArgument);
  schedule.phase_begin.clear();
  EXPECT_THROW(build_sync_plan(topo, schedule), aapc::InvalidArgument);
}

TEST(SyncPlanTest, EmptyScheduleYieldsEmptyPlan) {
  const Topology topo = make_single_switch(3);
  const SyncPlan plan = build_sync_plan(topo, Schedule{});
  EXPECT_TRUE(plan.edges.empty());
  EXPECT_EQ(plan.edges_before_reduction, 0);
}

class SyncPlanRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SyncPlanRandomTest, ReductionPreservesPairwiseOrdering) {
  Rng rng(GetParam() * 31 + 5);
  topology::RandomTreeOptions options;
  options.switches = static_cast<std::int32_t>(rng.next_in(1, 5));
  options.machines = static_cast<std::int32_t>(rng.next_in(3, 12));
  const Topology topo = topology::make_random_tree(rng, options);
  const Schedule schedule = core::build_aapc_schedule(topo);
  SyncPlanOptions keep_all;
  keep_all.remove_redundant = false;
  const SyncPlan full = build_sync_plan(topo, schedule, keep_all);
  const SyncPlan reduced = build_sync_plan(topo, schedule);

  // Every removed edge must still be ordered through surviving edges.
  const auto n = static_cast<std::size_t>(schedule.messages.size());
  std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
  std::vector<std::vector<std::int32_t>> succ(n);
  for (const SyncEdge& e : reduced.edges) succ[e.from].push_back(e.to);
  for (std::size_t i = n; i-- > 0;) {
    for (const std::int32_t j : succ[i]) {
      reach[i][j] = 1;
      for (std::size_t k = 0; k < n; ++k) {
        if (reach[j][k]) reach[i][k] = 1;
      }
    }
  }
  for (const SyncEdge& e : full.edges) {
    EXPECT_TRUE(reach[e.from][e.to])
        << "reduction lost ordering " << e.from << "->" << e.to;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyncPlanRandomTest,
                         ::testing::Range<std::uint64_t>(0, 25));

class EdgeChainEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EdgeChainEquivalenceTest, SameTransitiveOrderingAsAllPairs) {
  // The scalable construction must order exactly the pairs the §5
  // all-pairs graph orders (same transitive closure).
  Rng rng(GetParam() * 101 + 9);
  topology::RandomTreeOptions options;
  options.switches = static_cast<std::int32_t>(rng.next_in(1, 5));
  options.machines = static_cast<std::int32_t>(rng.next_in(3, 10));
  const Topology topo = topology::make_random_tree(rng, options);
  const Schedule schedule = core::build_aapc_schedule(topo);

  SyncPlanOptions all_pairs;
  all_pairs.construction = SyncPlanOptions::Construction::kAllPairs;
  SyncPlanOptions chains;
  chains.construction = SyncPlanOptions::Construction::kEdgeChains;

  const auto n = static_cast<std::size_t>(schedule.messages.size());
  auto closure = [n](const std::vector<SyncEdge>& edges) {
    std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
    std::vector<std::vector<std::int32_t>> succ(n);
    for (const SyncEdge& e : edges) succ[e.from].push_back(e.to);
    for (std::size_t i = n; i-- > 0;) {
      for (const std::int32_t j : succ[i]) {
        reach[i][j] = 1;
        for (std::size_t k = 0; k < n; ++k) {
          if (reach[j][k]) reach[i][k] = 1;
        }
      }
    }
    return reach;
  };
  const SyncPlan a = build_sync_plan(topo, schedule, all_pairs);
  const SyncPlan b = build_sync_plan(topo, schedule, chains);
  EXPECT_EQ(closure(a.edges), closure(b.edges));
  // And the chain construction produces a much smaller raw graph.
  EXPECT_LE(b.edges_before_reduction, a.edges_before_reduction);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdgeChainEquivalenceTest,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(SyncPlanScalingTest, LargeClusterPlansStayTractable) {
  // 80-machine chain: 6320 messages; the all-pairs construction would
  // do ~20M pair tests with a 40M-entry closure — the auto mode must
  // pick edge chains and finish fast with a sound plan.
  const Topology topo = topology::make_chain({40, 40});
  const Schedule schedule = core::build_aapc_schedule(topo);
  const SyncPlan plan = build_sync_plan(topo, schedule);
  EXPECT_GT(plan.edges.size(), 0u);
  // Sound plan: every pair of same-edge messages must be ordered. Spot
  // check the heaviest edge (the trunk) — consecutive trunk users must
  // be chained.
  const PlanAnalysis analysis =
      analyze_plan(plan, schedule.message_count());
  EXPECT_GE(analysis.critical_path_messages, 1600);  // trunk chain depth
}

}  // namespace
}  // namespace aapc::sync
