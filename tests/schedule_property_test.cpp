// Randomized end-to-end property tests for the paper's Theorem: for any
// tree topology, the generated schedule (1) realizes every AAPC message
// exactly once, (2) is contention-free in every phase, and (3) uses
// exactly aapc_load(topology) phases.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "aapc/common/rng.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::core {
namespace {

using topology::make_chain;
using topology::make_paper_topology_a;
using topology::make_paper_topology_b;
using topology::make_paper_topology_c;
using topology::make_random_tree;
using topology::make_star;
using topology::RandomTreeOptions;
using topology::Topology;

void expect_theorem_holds(const Topology& topo) {
  const Schedule schedule = build_aapc_schedule(topo);
  const VerifyReport report = verify_schedule(topo, schedule);
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.max_edge_multiplicity, 1);
  EXPECT_EQ(schedule.phase_count(), topo.aapc_load());
}

TEST(ScheduleTheoremTest, PaperTopologies) {
  expect_theorem_holds(make_paper_topology_a());
  expect_theorem_holds(make_paper_topology_b());
  expect_theorem_holds(make_paper_topology_c());
  expect_theorem_holds(topology::make_paper_figure1());
}

TEST(ScheduleTheoremTest, StarsAndChains) {
  expect_theorem_holds(make_star({4, 4, 4}));
  expect_theorem_holds(make_star({7, 5, 3, 1}));
  expect_theorem_holds(make_star({1, 1, 1}));
  expect_theorem_holds(make_chain({2, 2, 2, 2, 2}));
  expect_theorem_holds(make_chain({10, 1, 1}));
  expect_theorem_holds(make_chain({5, 0, 0, 5}));
  expect_theorem_holds(make_chain({1, 0, 2}));
}

TEST(ScheduleTheoremTest, EqualSubtreeSizes) {
  // |M0| = |M1| ties exercise the deterministic tie-breaking and the
  // i = 1 step-5 case where |M(i-1)| == |Mi|.
  expect_theorem_holds(make_star({6, 6}));
  expect_theorem_holds(make_star({6, 6, 6, 6, 6}));
}

class ScheduleTheoremRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleTheoremRandomTest, RandomTrees) {
  Rng rng(GetParam() * 7919 + 13);
  RandomTreeOptions options;
  options.switches = static_cast<std::int32_t>(rng.next_in(1, 12));
  options.machines = static_cast<std::int32_t>(rng.next_in(3, 36));
  options.max_switch_degree = static_cast<std::int32_t>(rng.next_in(1, 5));
  const Topology topo = make_random_tree(rng, options);
  expect_theorem_holds(topo);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleTheoremRandomTest,
                         ::testing::Range<std::uint64_t>(0, 120));

class ScheduleStep6RandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleStep6RandomTest, RotateVariantOnRandomTrees) {
  Rng rng(GetParam() * 104729 + 7);
  RandomTreeOptions options;
  options.switches = static_cast<std::int32_t>(rng.next_in(2, 8));
  options.machines = static_cast<std::int32_t>(rng.next_in(4, 28));
  const Topology topo = make_random_tree(rng, options);
  SchedulerOptions sched;
  sched.assignment.step6 = AssignmentOptions::Step6Pattern::kRotate;
  const Schedule schedule = build_aapc_schedule(topo, sched);
  const VerifyReport report = verify_schedule(topo, schedule);
  EXPECT_TRUE(report.ok) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleStep6RandomTest,
                         ::testing::Range<std::uint64_t>(0, 40));

// The phases in which each directed switch-to-switch edge carries a
// message, one entry per crossing message, in phase order. Edges with
// a machine endpoint map to an empty list.
std::vector<std::vector<std::int32_t>> trunk_phases(const Topology& topo,
                                                    const Schedule& schedule) {
  std::vector<std::vector<std::int32_t>> phases(
      static_cast<std::size_t>(topo.directed_edge_count()));
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    for (const Message& m : schedule.phase(p)) {
      for (const topology::EdgeId e :
           topo.path(topo.machine_node(m.src), topo.machine_node(m.dst))) {
        if (!topo.is_machine(topo.edge_source(e)) &&
            !topo.is_machine(topo.edge_target(e))) {
          phases[static_cast<std::size_t>(e)].push_back(p);
        }
      }
    }
  }
  return phases;
}

// Every trunk either carries nothing or is a bottleneck in its
// direction: one message in every phase. A slower trunk then slows
// every phase equally, so no schedule over the same load does better.
void expect_trunks_idle_or_full(const Topology& topo) {
  const Schedule schedule = build_aapc_schedule(topo);
  std::vector<std::int32_t> every_phase(
      static_cast<std::size_t>(schedule.phase_count()));
  std::iota(every_phase.begin(), every_phase.end(), 0);
  const auto phases = trunk_phases(topo, schedule);
  for (topology::EdgeId e = 0; e < topo.directed_edge_count(); ++e) {
    const auto& crossed = phases[static_cast<std::size_t>(e)];
    EXPECT_TRUE(crossed.empty() || crossed == every_phase)
        << "edge " << e << " crosses " << crossed.size() << " of "
        << schedule.phase_count() << " phases";
  }
}

TEST(BottleneckTrafficTest, NetdStarTrunksAreIdleOrFull) {
  // aapc_netd --fabric-switches S --fabric-machines M elects a
  // machine-less hub with S leaves of M machines.
  for (std::int32_t switches = 1; switches <= 8; ++switches) {
    for (std::int32_t machines = 1; machines <= 6; ++machines) {
      std::vector<std::int32_t> per_switch(
          static_cast<std::size_t>(switches) + 1, machines);
      per_switch[0] = 0;
      SCOPED_TRACE(testing::Message() << switches << " leaves of "
                                      << machines);
      expect_trunks_idle_or_full(make_star(per_switch));
    }
  }
}

TEST(BottleneckTrafficTest, TwoSwitchFabricTrunkIsFull) {
  expect_trunks_idle_or_full(make_chain({3, 3}));
}

TEST(BottleneckTrafficTest, EdgeStarLightTrunkCarriesBothWaysInTheSamePhases) {
  // The aapc_churn fabric: s1 holds one machine, s2 and s3 four each.
  // Link 0 joins the hub s0 to s1 and carries 8 messages each way; the
  // loaded trunks need 20 phases. The up and down messages share their
  // phases, so a slower link 0 costs the same phases in either order.
  const Topology topo = make_star({0, 1, 4, 4});
  const Schedule schedule = build_aapc_schedule(topo);
  ASSERT_EQ(schedule.phase_count(), 20);
  const auto [hub, leaf] = topo.link_endpoints(0);
  const auto phases = trunk_phases(topo, schedule);
  const auto& up = phases[static_cast<std::size_t>(topo.edge_between(leaf, hub))];
  const auto& down =
      phases[static_cast<std::size_t>(topo.edge_between(hub, leaf))];
  EXPECT_EQ(up.size(), 8u);
  EXPECT_EQ(up, down);
}

TEST(ScheduleStressTest, WideSingleSwitch) {
  expect_theorem_holds(topology::make_single_switch(64));
}

TEST(ScheduleStressTest, DeepChain) {
  expect_theorem_holds(make_chain({3, 2, 1, 2, 3, 1, 2, 4}));
}

TEST(ScheduleStressTest, LargeTwoLevel) {
  expect_theorem_holds(make_star({16, 12, 9, 5, 3, 2, 1}));
}

TEST(ScheduleStressTest, VeryWideSingleSwitch) {
  // 128 machines: 127 phases, 16256 messages — schedule + full
  // verification must stay fast (sub-second).
  expect_theorem_holds(topology::make_single_switch(128));
}

TEST(ScheduleStressTest, LargeChainCluster) {
  // 96 machines over a chain: 48*48 = 2304 phases.
  expect_theorem_holds(make_chain({48, 48}));
}

TEST(ScheduleStressTest, DeepBinaryTreeCluster) {
  expect_theorem_holds(topology::make_binary_tree(4, 3));  // 24 machines
}

}  // namespace
}  // namespace aapc::core
