// Fault plans (validation, JSON, compilation) and schedule repair on
// the residual topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/faults/repair.hpp"
#include "aapc/harness/resilience.hpp"
#include "aapc/stp/stp.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::faults {
namespace {

/// Two switches joined by a primary trunk (bridge link 0) and a
/// parallel equal-cost backup (bridge link 1) that the healthy 802.1D
/// election blocks via the link-id tie-break.
stp::BridgeNetwork make_redundant_pair(std::int32_t machines_per_switch) {
  stp::BridgeNetwork net;
  const stp::BridgeId s0 = net.add_bridge("s0", 1);
  const stp::BridgeId s1 = net.add_bridge("s1", 2);
  net.add_bridge_link(s0, s1, 19);  // 0: primary
  net.add_bridge_link(s0, s1, 19);  // 1: backup
  for (std::int32_t m = 0; m < machines_per_switch; ++m) {
    net.add_machine(str_cat("a", m), s0);
  }
  for (std::int32_t m = 0; m < machines_per_switch; ++m) {
    net.add_machine(str_cat("b", m), s1);
  }
  return net;
}

TEST(FaultPlanTest, ValidateRejectsMalformedEvents) {
  FaultPlan negative_time;
  negative_time.add(FaultEvent::link_down(-1.0, 0));
  EXPECT_THROW(negative_time.validate(), InvalidArgument);

  FaultPlan bad_link;
  bad_link.add(FaultEvent::link_up(0, -3));
  EXPECT_THROW(bad_link.validate(), InvalidArgument);

  FaultPlan bad_fraction;
  bad_fraction.add(FaultEvent::link_degrade(0, 0, 1.5));
  EXPECT_THROW(bad_fraction.validate(), InvalidArgument);
  bad_fraction.events[0].factor = 0.0;
  EXPECT_THROW(bad_fraction.validate(), InvalidArgument);

  FaultPlan bad_slowdown;
  bad_slowdown.add(FaultEvent::node_slowdown(0, 1, 0.5));
  EXPECT_THROW(bad_slowdown.validate(), InvalidArgument);

  FaultPlan ok;
  ok.add(FaultEvent::link_degrade(1.0, 2, 0.25))
      .add(FaultEvent::node_slowdown(2.0, 3, 2.0));
  EXPECT_NO_THROW(ok.validate());
}

TEST(FaultPlanTest, OnsetAndSortedAreStable) {
  FaultPlan plan;
  plan.add(FaultEvent::link_down(0.3, 1))
      .add(FaultEvent::link_down(0.1, 2))
      .add(FaultEvent::link_up(0.1, 3));
  EXPECT_EQ(plan.onset(), 0.1);
  const FaultPlan ordered = plan.sorted();
  ASSERT_EQ(ordered.events.size(), 3u);
  // Stable among equal times: link 2's event stays ahead of link 3's.
  EXPECT_EQ(ordered.events[0].link, 2);
  EXPECT_EQ(ordered.events[1].link, 3);
  EXPECT_EQ(ordered.events[2].link, 1);
  EXPECT_EQ(FaultPlan{}.onset(), 0);
}

TEST(FaultPlanTest, JsonRoundTripIsAFixedPoint) {
  FaultPlan plan;
  plan.add(FaultEvent::link_degrade(milliseconds(120.0), 3, 0.5))
      .add(FaultEvent::link_down(milliseconds(10.0), 0))
      .add(FaultEvent::link_up(milliseconds(50.0), 0))
      .add(FaultEvent::node_slowdown(0, 2, 3.0))
      .add(FaultEvent::node_slowdown(milliseconds(80.0), 1, 1.5));
  const std::string json = fault_plan_to_json(plan);
  const FaultPlan parsed = fault_plan_from_json(json);
  ASSERT_EQ(parsed.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(parsed.events[i].link, plan.events[i].link) << i;
    EXPECT_EQ(parsed.events[i].rank, plan.events[i].rank) << i;
    EXPECT_EQ(parsed.events[i].factor, plan.events[i].factor) << i;
    EXPECT_NEAR(parsed.events[i].when, plan.events[i].when, 1e-15) << i;
  }
  // Serialize-parse-serialize is a fixed point (round-trip formatting).
  EXPECT_EQ(fault_plan_to_json(parsed), json);
}

TEST(FaultPlanTest, JsonRejectsUnknownFieldsAndKinds) {
  EXPECT_THROW(fault_plan_from_json(
                   R"({"events":[{"kind":"link_down","time_ms":1,"link":0,)"
                   R"("bogus":3}]})"),
               InvalidArgument);
  EXPECT_THROW(
      fault_plan_from_json(R"({"stuff":[]})"), InvalidArgument);
  EXPECT_THROW(fault_plan_from_json(
                   R"({"events":[{"kind":"meteor","time_ms":1,"link":0}]})"),
               InvalidArgument);
  EXPECT_THROW(fault_plan_from_json(
                   R"({"events":[{"kind":"node_crash","time_ms":5,"rank":3}]})"),
               InvalidArgument);
  EXPECT_THROW(
      fault_plan_from_json(R"({"events":[{"kind":"link_down","link":0}]})"),
      InvalidArgument);
  EXPECT_THROW(fault_plan_from_json(R"({"events":[])"), InvalidArgument);
}

TEST(FaultPlanTest, CompileLowersToExecutorPrimitives) {
  simnet::NetworkParams params;
  FaultPlan plan;
  plan.add(FaultEvent::link_degrade(0.2, 1, 0.5))
      .add(FaultEvent::link_down(0.1, 0))
      .add(FaultEvent::node_slowdown(0.0, 2, 4.0))
      .add(FaultEvent::node_slowdown(0.3, 1, 2.0));
  const CompiledFaults compiled = compile(plan, params, 4);
  ASSERT_EQ(compiled.capacity_events.size(), 2u);
  // Time-sorted: the down at 0.1 precedes the degrade at 0.2.
  EXPECT_EQ(compiled.capacity_events[0].link, 0);
  EXPECT_EQ(compiled.capacity_events[0].bandwidth_bytes_per_sec, 0.0);
  EXPECT_EQ(compiled.capacity_events[1].link, 1);
  EXPECT_EQ(compiled.capacity_events[1].bandwidth_bytes_per_sec,
            params.link_bandwidth_bytes_per_sec * 0.5);
  ASSERT_EQ(compiled.rank_faults.size(), 2u);
  EXPECT_EQ(compiled.rank_faults[0].rank, 2);
  EXPECT_EQ(compiled.rank_faults[0].cpu_slowdown, 4.0);
  EXPECT_EQ(compiled.rank_faults[1].rank, 1);
  EXPECT_EQ(compiled.rank_faults[1].cpu_slowdown, 2.0);
  EXPECT_EQ(compiled.rank_faults[1].slowdown_onset, 0.3);
  ASSERT_EQ(compiled.markers.size(), 4u);
  EXPECT_EQ(compiled.markers[1].label, "link 0 down");
  EXPECT_EQ(compiled.markers[2].label, "link 1 degraded to 50%");
}

TEST(FaultPlanTest, CompileTranslatesThroughLinkMap) {
  FaultPlan plan;
  plan.add(FaultEvent::link_down(0.1, 0))  // maps to -1: dropped
      .add(FaultEvent::link_degrade(0.2, 1, 0.5));
  const std::vector<std::int32_t> link_map = {-1, 5};
  const CompiledFaults compiled = compile(plan, {}, 6, link_map);
  ASSERT_EQ(compiled.capacity_events.size(), 1u);
  EXPECT_EQ(compiled.capacity_events[0].link, 5);
  // Markers keep plan-space numbering (the human scripted bridge links).
  ASSERT_EQ(compiled.markers.size(), 1u);
  EXPECT_EQ(compiled.markers[0].label, "link 1 degraded to 50%");

  FaultPlan outside;
  outside.add(FaultEvent::link_down(0, 7));
  EXPECT_THROW(compile(outside, {}, 6, link_map), InvalidArgument);
}

TEST(FaultPlanTest, LinkFactorsReplayTimeline) {
  FaultPlan plan;
  plan.add(FaultEvent::link_degrade(1.0, 0, 0.5))
      .add(FaultEvent::link_down(2.0, 0))
      .add(FaultEvent::link_up(3.0, 0))
      .add(FaultEvent::link_down(1.5, 1));
  EXPECT_EQ(link_factors_at(plan, 0.5, 2), (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(link_factors_at(plan, 1.0, 2), (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(link_factors_at(plan, 2.5, 2), (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(link_factors_at(plan, 4.0, 2), (std::vector<double>{1.0, 0.0}));
}

TEST(RepairTest, ResidualElectionSwitchesToBackupTrunk) {
  const stp::BridgeNetwork net = make_redundant_pair(2);
  const stp::SpanningTree healthy = stp::compute_spanning_tree(net);
  ASSERT_EQ(healthy.forwarding.size(), 2u);
  EXPECT_TRUE(healthy.forwarding[0]);   // primary wins the tie-break
  EXPECT_FALSE(healthy.forwarding[1]);  // backup blocked
  EXPECT_GE(healthy.link_of_bridge_link[0], 0);
  EXPECT_EQ(healthy.link_of_bridge_link[1], -1);

  // 50% degrade: ceil(19 / 0.5) = 38 > 19 — the backup wins.
  FaultPlan degrade;
  degrade.add(FaultEvent::link_degrade(0.0, 0, 0.5));
  const stp::SpanningTree repaired = elect_residual(net, degrade, 1.0);
  EXPECT_FALSE(repaired.forwarding[0]);
  EXPECT_TRUE(repaired.forwarding[1]);
  EXPECT_EQ(repaired.link_of_bridge_link[0], -1);
  EXPECT_GE(repaired.link_of_bridge_link[1], 0);

  // Hard failure: the primary is removed outright.
  FaultPlan down;
  down.add(FaultEvent::link_down(0.0, 0));
  const stp::SpanningTree failed_over = elect_residual(net, down, 1.0);
  EXPECT_FALSE(failed_over.forwarding[0]);
  EXPECT_TRUE(failed_over.forwarding[1]);

  // Both trunks down: the residual graph is disconnected.
  down.add(FaultEvent::link_down(0.0, 1));
  EXPECT_THROW(elect_residual(net, down, 1.0), InvalidArgument);
}

TEST(RepairTest, MildDegradeKeepsPrimary) {
  // ceil(19 / 0.95) = 20: still ahead only if < backup's 19? No — 20 >
  // 19, so even a mild degrade switches when a pristine backup exists.
  // With no backup, the degraded primary must keep forwarding.
  stp::BridgeNetwork net;
  const stp::BridgeId s0 = net.add_bridge("s0", 1);
  const stp::BridgeId s1 = net.add_bridge("s1", 2);
  net.add_bridge_link(s0, s1, 19);
  net.add_machine("a", s0);
  net.add_machine("b", s1);
  FaultPlan degrade;
  degrade.add(FaultEvent::link_degrade(0.0, 0, 0.5));
  const stp::SpanningTree repaired = elect_residual(net, degrade, 1.0);
  EXPECT_TRUE(repaired.forwarding[0]);
}

TEST(RepairTest, ResidualCapacitiesFollowTheTreeInForce) {
  const stp::BridgeNetwork net = make_redundant_pair(2);
  const stp::SpanningTree healthy = stp::compute_spanning_tree(net);
  simnet::NetworkParams params;
  FaultPlan degrade;
  degrade.add(FaultEvent::link_degrade(0.0, 0, 0.5));

  // On the healthy tree the degraded primary carries the traffic.
  const std::vector<double> stale =
      residual_link_capacities(healthy, params, degrade, 1.0);
  EXPECT_EQ(stale[static_cast<std::size_t>(healthy.link_of_bridge_link[0])],
            0.5 * params.link_bandwidth_bytes_per_sec);

  // On the repaired tree the backup carries it at full speed.
  const stp::SpanningTree repaired = elect_residual(net, degrade, 1.0);
  const std::vector<double> residual =
      residual_link_capacities(repaired, params, degrade, 1.0);
  for (const double capacity : residual) {
    EXPECT_EQ(capacity, params.link_bandwidth_bytes_per_sec);
  }
}

TEST(RepairTest, PeakThroughputMatchesClosedForm) {
  const topology::Topology topo = topology::make_single_switch(4);
  simnet::NetworkParams params;
  const std::vector<double> nominal =
      params.link_capacities(topo.link_count());
  // 12 ordered pairs; each access direction carries 3 of them.
  const double expected = 12.0 * params.link_bandwidth_bytes_per_sec *
                          params.protocol_efficiency / 3.0;
  EXPECT_NEAR(aapc_peak_throughput(topo, params, nominal), expected, 1e-6);

  // A down loaded link collapses the bound to zero.
  std::vector<double> one_down = nominal;
  one_down[0] = 0;
  EXPECT_EQ(aapc_peak_throughput(topo, params, one_down), 0.0);
}

TEST(RepairTest, RepairScheduleCoversExactlyTheTail) {
  const stp::BridgeNetwork net = make_redundant_pair(3);
  const stp::SpanningTree tree = stp::compute_spanning_tree(net);
  const core::Schedule schedule = core::build_aapc_schedule(tree.topology);
  ASSERT_GE(schedule.phase_count(), 3);
  const std::int32_t splice = 2;
  FaultPlan degrade;
  degrade.add(FaultEvent::link_degrade(0.0, 0, 0.5));
  const RepairResult result =
      repair_schedule(net, schedule, splice, degrade, 1.0);

  std::vector<core::Message> expected;
  for (std::int32_t p = splice; p < schedule.phase_count(); ++p) {
    for (const core::Message& m : schedule.phase(p)) expected.push_back(m);
  }
  std::vector<core::Message> got = result.remainder.messages;
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);

  EXPECT_THROW(repair_schedule(net, schedule, -1, degrade, 1.0),
               InvalidArgument);
  EXPECT_THROW(repair_schedule(net, schedule, schedule.phase_count() + 1,
                               degrade, 1.0),
               InvalidArgument);
}

TEST(ResilienceTest, RepairRecoversDegradedTrunkThroughput) {
  const stp::BridgeNetwork net = make_redundant_pair(3);
  harness::ResilienceScenario scenario;
  scenario.msize = 16_KiB;
  scenario.exec.wakeup_jitter_max = 0;
  scenario.plan.add(FaultEvent::link_degrade(milliseconds(2.0), 0, 0.5));
  const harness::ResilienceReport report =
      harness::run_resilience(net, scenario);

  EXPECT_GT(report.healthy_completion, 0);
  ASSERT_TRUE(report.stale_completed);
  EXPECT_GT(report.stale_completion, report.healthy_completion);
  EXPECT_GE(report.splice_phase, 1);
  EXPECT_GT(report.remainder_phases, 0);
  EXPECT_GT(report.prefix_completion, 0);
  EXPECT_GT(report.remainder_completion, 0);
  EXPECT_NEAR(report.repaired_completion,
              report.prefix_completion + harness::kDetectionLatency +
                  harness::kRepairOverhead + report.remainder_completion,
              1e-12);
  // The degraded trunk halves the stale bound; the backup restores it.
  EXPECT_NEAR(report.degraded_peak_ratio(), 0.5, 1e-9);
  EXPECT_NEAR(report.residual_peak_mbps, report.healthy_peak_mbps, 1e-9);
  // The acceptance inequality of the bench, on a small instance.
  EXPECT_GE(report.recovered_ratio(), report.degraded_peak_ratio());
  EXPECT_FALSE(report.to_string().empty());
}

TEST(ResilienceTest, OnsetPastTheRunSplicesAtTheEnd) {
  // The onset fraction times the phase count is far past INT32_MAX: the
  // whole schedule runs before the fault, so nothing is left to repair.
  const stp::BridgeNetwork net = make_redundant_pair(2);
  harness::ResilienceScenario scenario;
  scenario.msize = 16_KiB;
  scenario.exec.wakeup_jitter_max = 0;
  scenario.plan.add(FaultEvent::link_degrade(1e9, 0, 0.5));
  const harness::ResilienceReport report =
      harness::run_resilience(net, scenario);
  EXPECT_EQ(report.splice_phase, report.healthy_phases);
  EXPECT_EQ(report.remainder_phases, 0);
}

TEST(ResilienceTest, HardFailureStaleRunFailsRepairSucceeds) {
  const stp::BridgeNetwork net = make_redundant_pair(2);
  harness::ResilienceScenario scenario;
  scenario.msize = 16_KiB;
  scenario.exec.wakeup_jitter_max = 0;
  scenario.exec.transfer_timeout = milliseconds(20.0);
  scenario.exec.transfer_max_retries = 1;
  scenario.plan.add(FaultEvent::link_down(milliseconds(1.0), 0));
  const harness::ResilienceReport report =
      harness::run_resilience(net, scenario);
  EXPECT_FALSE(report.stale_completed);
  EXPECT_NE(report.stale_failure.find("rank"), std::string::npos)
      << report.stale_failure;
  EXPECT_GT(report.repaired_completion, 0);
  EXPECT_EQ(report.degraded_peak_mbps, 0.0);
  EXPECT_NEAR(report.residual_peak_mbps, report.healthy_peak_mbps, 1e-9);
}

}  // namespace
}  // namespace aapc::faults
