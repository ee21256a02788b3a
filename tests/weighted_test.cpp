// Tests for the heterogeneous-link (weighted bottleneck) scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/core/greedy.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/core/weighted.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::core {
namespace {

using topology::make_chain;
using topology::make_paper_figure1;
using topology::make_single_switch;
using topology::Topology;

VerifyOptions lax() {
  VerifyOptions options;
  options.require_optimal_phase_count = false;
  return options;
}

LinkRates nominal(const Topology& topo) {
  return LinkRates(static_cast<std::size_t>(topo.link_count()), 1.0);
}

bool same_schedule(const Schedule& a, const Schedule& b) {
  return a.messages == b.messages && a.phase_begin == b.phase_begin;
}

TEST(WeightedTest, UniformRatesReturnThePaperScheduleVerbatim) {
  for (const Topology& topo :
       {make_single_switch(6), make_chain({3, 4}), make_paper_figure1()}) {
    const Schedule paper = build_aapc_schedule(topo);
    const Schedule weighted = build_aapc_schedule_weighted(topo, nominal(topo));
    EXPECT_TRUE(same_schedule(paper, weighted));
    // Any uniform rate, not just 1.0, is the unweighted model.
    const Schedule half = build_aapc_schedule_weighted(
        topo, LinkRates(static_cast<std::size_t>(topo.link_count()), 0.5));
    EXPECT_TRUE(same_schedule(paper, half));
  }
}

TEST(WeightedTest, NominalWeightedLoadEqualsPatternLoad) {
  for (const Topology& topo :
       {make_single_switch(5), make_chain({4, 3}), make_paper_figure1()}) {
    const Pattern pattern = aapc_pattern(topo);
    EXPECT_DOUBLE_EQ(weighted_pattern_load(topo, pattern, nominal(topo)),
                     static_cast<double>(pattern_load(topo, pattern)));
  }
}

TEST(WeightedTest, NominalCostEqualsPhaseCount) {
  const Topology topo = make_chain({3, 3});
  const Schedule schedule = build_aapc_schedule(topo);
  EXPECT_DOUBLE_EQ(weighted_schedule_cost(topo, schedule, nominal(topo)),
                   static_cast<double>(schedule.phase_count()));
}

TEST(WeightedTest, RejectsDownLinksAndBadRateVectors) {
  const Topology topo = make_single_switch(4);
  LinkRates rates = nominal(topo);
  rates[0] = 0.0;
  EXPECT_THROW(build_aapc_schedule_weighted(topo, rates), InvalidArgument);
  EXPECT_THROW(
      build_aapc_schedule_weighted(topo, LinkRates{1.0}),
      InvalidArgument);
}

TEST(WeightedTest, SchedulesAreContentionFreeAndAboveTheWeightedBound) {
  Rng rng(4242);
  for (int trial = 0; trial < 15; ++trial) {
    topology::RandomTreeOptions options;
    options.switches = static_cast<std::int32_t>(rng.next_in(1, 5));
    options.machines = static_cast<std::int32_t>(rng.next_in(4, 14));
    const Topology topo = topology::make_random_tree(rng, options);
    LinkRates rates = nominal(topo);
    for (double& r : rates) {
      const std::uint64_t pick = rng.next_in(0, 3);
      r = pick == 0 ? 0.25 : (pick == 1 ? 0.5 : 1.0);
    }
    const Pattern pattern = aapc_pattern(topo);
    const Schedule schedule = build_aapc_schedule_weighted(topo, rates);
    const VerifyReport report =
        verify_schedule_pattern(topo, schedule, pattern, lax());
    EXPECT_TRUE(report.ok) << report.summary();
    const double load = weighted_pattern_load(topo, pattern, rates);
    const double cost = weighted_schedule_cost(topo, schedule, rates);
    EXPECT_GE(cost, load - 1e-9);
  }
}

TEST(WeightedTest, NeverCostsMoreThanSchedulingRateBlind) {
  Rng rng(99);
  for (int trial = 0; trial < 15; ++trial) {
    topology::RandomTreeOptions options;
    options.switches = static_cast<std::int32_t>(rng.next_in(1, 4));
    options.machines = static_cast<std::int32_t>(rng.next_in(4, 12));
    const Topology topo = topology::make_random_tree(rng, options);
    LinkRates rates = nominal(topo);
    for (double& r : rates) r = rng.next_in(0, 2) == 0 ? 0.5 : 1.0;
    const Schedule blind = build_aapc_schedule(topo);
    const Schedule weighted = build_aapc_schedule_weighted(topo, rates);
    EXPECT_LE(weighted_schedule_cost(topo, weighted, rates),
              weighted_schedule_cost(topo, blind, rates) + 1e-9);
  }
}

TEST(WeightedTest, GreedyAlignsSlowTrafficOfDegradedAccessLinks) {
  // Two switches, three machines each; the access links of one machine
  // per switch degrade to 1/4 speed. The rate-blind schedules smear the
  // slow machines' messages over many phases (each such phase costs 4x);
  // the slowest-first greedy concentrates them into few shared slow
  // phases. The weighted scheduler must be at least as cheap as both
  // rate-blind baselines, and strictly cheaper than the rate-blind
  // greedy it replaces on the repair path.
  const Topology topo = make_chain({3, 3});
  LinkRates rates = nominal(topo);
  // Access links of machine 0 (switch 0) and machine 3 (switch 1).
  const topology::LinkId slow_a =
      topo.edge_link(topo.edge_between(topo.machine_node(0),
                                       topo.parent(topo.machine_node(0))));
  const topology::LinkId slow_b =
      topo.edge_link(topo.edge_between(topo.machine_node(3),
                                       topo.parent(topo.machine_node(3))));
  rates[static_cast<std::size_t>(slow_a)] = 0.25;
  rates[static_cast<std::size_t>(slow_b)] = 0.25;

  const Pattern pattern = aapc_pattern(topo);
  const Schedule weighted = build_aapc_schedule_weighted(topo, rates);
  const Schedule blind_greedy = greedy_schedule(topo, pattern);
  const double weighted_cost = weighted_schedule_cost(topo, weighted, rates);
  const double greedy_cost = weighted_schedule_cost(topo, blind_greedy, rates);
  EXPECT_LT(weighted_cost, greedy_cost);
  EXPECT_GE(weighted_cost,
            weighted_pattern_load(topo, pattern, rates) - 1e-9);
}

TEST(WeightedTest, SlownessFollowsTheMinimumRateOnThePath) {
  const Topology topo = make_chain({2, 2});
  LinkRates rates = nominal(topo);
  // Degrade the trunk: cross-switch messages slow down, local ones not.
  topology::LinkId trunk = -1;
  for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
    const auto [a, b] = topo.link_endpoints(l);
    if (!topo.is_machine(a) && !topo.is_machine(b)) trunk = l;
  }
  ASSERT_GE(trunk, 0);
  rates[static_cast<std::size_t>(trunk)] = 0.5;
  EXPECT_DOUBLE_EQ(message_slowness(topo, Message{0, 1}, rates), 1.0);
  EXPECT_DOUBLE_EQ(message_slowness(topo, Message{0, 2}, rates), 2.0);
}

// The cases below degrade a switch-to-switch trunk: the only links a
// churn event (a bridge-link event) can reach.

TEST(WeightedTest, DegradedEdgeTrunkOfAChainIsAStrictWin) {
  // s0 - s1 - s2 - s3, four machines each. Trunk s0-s1 (link 0) carries
  // 4 x 12 = 48 messages each way; at half rate its weighted load is
  // 96. The paper schedule's 64 phases all cost 2 and sum to 128; the
  // weighted greedy packs the slow traffic into fewer phases.
  const Topology topo = make_chain({4, 4, 4, 4});
  LinkRates rates = nominal(topo);
  const auto [a, b] = topo.link_endpoints(0);
  ASSERT_FALSE(topo.is_machine(a) || topo.is_machine(b));
  rates[0] = 0.5;
  const Pattern pattern = aapc_pattern(topo);
  const Schedule paper = build_aapc_schedule(topo);
  const Schedule weighted = build_aapc_schedule_weighted(topo, rates);
  EXPECT_TRUE(verify_schedule_pattern(topo, weighted, pattern, lax()).ok);
  EXPECT_DOUBLE_EQ(weighted_pattern_load(topo, pattern, rates), 96.0);
  EXPECT_EQ(paper.phase_count(), 64);
  EXPECT_DOUBLE_EQ(weighted_schedule_cost(topo, paper, rates), 128.0);
  EXPECT_DOUBLE_EQ(weighted_schedule_cost(topo, weighted, rates), 112.0);
}

TEST(WeightedTest, DegradedTrunkOfTheNetdStarKeepsThePaperSchedule) {
  // The tree aapc_netd --fabric-switches 8 --fabric-machines 6 elects:
  // a machine-less hub and eight leaves of six machines, trunks are
  // links 0-7. Degrading any one trunk never beats the paper schedule.
  const Topology topo = topology::make_star({0, 6, 6, 6, 6, 6, 6, 6, 6});
  const Schedule paper = build_aapc_schedule(topo);
  for (topology::LinkId trunk = 0; trunk < 8; ++trunk) {
    for (const double factor : {0.5, 0.1}) {
      LinkRates rates = nominal(topo);
      rates[static_cast<std::size_t>(trunk)] = factor;
      EXPECT_TRUE(
          same_schedule(paper, build_aapc_schedule_weighted(topo, rates)))
          << "trunk " << trunk << " at " << factor;
    }
  }
}

}  // namespace
}  // namespace aapc::core
