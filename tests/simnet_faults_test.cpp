// Time-varying link capacities and flow cancellation in the fluid
// network — the simnet half of the fault-injection subsystem.
#include <gtest/gtest.h>

#include "aapc/common/error.hpp"
#include "aapc/simnet/fluid_network.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::simnet {
namespace {

using topology::make_chain;
using topology::make_single_switch;
using topology::Topology;

/// The switch-to-switch link of a chain (netprobe uses the same scan).
topology::LinkId trunk_link(const Topology& topo) {
  for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
    if (!topo.is_machine(topo.edge_source(2 * l)) &&
        !topo.is_machine(topo.edge_target(2 * l))) {
      return l;
    }
  }
  return -1;
}

SimTime drain(FluidNetwork& network) {
  std::vector<FlowId> completed;
  while (!network.idle()) {
    const SimTime next = network.next_event_time();
    if (next == kNever) break;
    network.advance_to(next, completed);
  }
  return network.now();
}

TEST(ParamsTest, LinkCapacitiesAppliesOverrides) {
  NetworkParams params;
  params.link_bandwidth_overrides = {{2, 5.0e6}};
  const std::vector<double> caps = params.link_capacities(4);
  ASSERT_EQ(caps.size(), 4u);
  EXPECT_EQ(caps[0], params.link_bandwidth_bytes_per_sec);
  EXPECT_EQ(caps[2], 5.0e6);
  EXPECT_EQ(caps[3], params.link_bandwidth_bytes_per_sec);
}

TEST(ParamsTest, LinkCapacitiesRejectsBadOverride) {
  NetworkParams params;
  params.link_bandwidth_overrides = {{7, 5.0e6}};
  EXPECT_THROW(params.link_capacities(4), InvalidArgument);
}

TEST(FaultNetworkTest, ImmediateCapacityChangeScalesRate) {
  const Topology topo = make_chain({1, 1});
  const topology::LinkId trunk = trunk_link(topo);
  ASSERT_GE(trunk, 0);
  const NetworkParams params;
  const Bytes bytes = 1'000'000;

  FluidNetwork healthy(topo, params);
  std::vector<FlowId> completed;
  healthy.add_flow(topo.machine_node(0), topo.machine_node(1), bytes, 0);
  const SimTime t_healthy = drain(healthy);

  FluidNetwork degraded(topo, params);
  degraded.schedule_capacity_change(degraded.now(), trunk,
                                    params.link_bandwidth_bytes_per_sec / 2.0);
  degraded.add_flow(topo.machine_node(0), topo.machine_node(1), bytes, 0);
  const SimTime t_degraded = drain(degraded);

  EXPECT_NEAR(t_degraded, 2.0 * t_healthy, 1e-9);
  EXPECT_EQ(degraded.stats().capacity_changes, 1);
  EXPECT_EQ(degraded.link_capacity(trunk),
            params.link_bandwidth_bytes_per_sec / 2.0);
}

TEST(FaultNetworkTest, ScheduledChangeIsASimulationEvent) {
  const Topology topo = make_chain({1, 1});
  const topology::LinkId trunk = trunk_link(topo);
  const NetworkParams params;
  const double rate = params.effective_bandwidth();
  const Bytes bytes = 1'000'000;

  FluidNetwork network(topo, params);
  network.add_flow(topo.machine_node(0), topo.machine_node(1), bytes, 0);
  const SimTime t_change = 0.5 * static_cast<double>(bytes) / rate;
  network.schedule_capacity_change(t_change, trunk,
                                   params.link_bandwidth_bytes_per_sec / 2.0);
  // The scheduled change preempts the nominal completion.
  EXPECT_NEAR(network.next_event_time(), t_change, 1e-12);
  const SimTime done = drain(network);
  // Half the bytes at full rate, half at half rate.
  EXPECT_NEAR(done, t_change + 0.5 * static_cast<double>(bytes) / (rate / 2),
              1e-9);
  EXPECT_EQ(network.stats().capacity_changes, 1);
}

TEST(FaultNetworkTest, DownLinkStallsAndRecovers) {
  const Topology topo = make_chain({1, 1});
  const topology::LinkId trunk = trunk_link(topo);
  const NetworkParams params;
  FluidNetwork network(topo, params);
  const FlowId flow =
      network.add_flow(topo.machine_node(0), topo.machine_node(1),
                       1'000'000, 0);
  std::vector<FlowId> completed;
  network.advance_to(0, completed);
  EXPECT_GT(network.flow_rate(flow), 0);

  network.schedule_capacity_change(network.now(), trunk, 0);
  EXPECT_EQ(network.flow_rate(flow), 0);
  EXPECT_GT(network.flow_remaining(flow), 0);
  EXPECT_FALSE(network.idle());
  // Nothing will ever complete while the link is down.
  EXPECT_EQ(network.next_event_time(), kNever);

  network.schedule_capacity_change(network.now(), trunk,
                                   params.link_bandwidth_bytes_per_sec);
  EXPECT_GT(network.flow_rate(flow), 0);
  drain(network);
  EXPECT_TRUE(network.idle());
  EXPECT_EQ(network.stats().completed_flows, 1);
}

TEST(FaultNetworkTest, CancelPendingFlow) {
  const Topology topo = make_single_switch(2);
  FluidNetwork network(topo, {});
  const FlowId flow = network.add_flow(topo.machine_node(0),
                                       topo.machine_node(1), 1000, 1.0);
  EXPECT_TRUE(network.cancel_flow(flow));
  EXPECT_TRUE(network.idle());
  EXPECT_EQ(network.stats().canceled_flows, 1);
  EXPECT_EQ(network.flow_remaining(flow), 0);
  // Advancing past the (stale) activation entry must not resurrect it.
  std::vector<FlowId> completed;
  network.advance_to(2.0, completed);
  EXPECT_TRUE(completed.empty());
  EXPECT_TRUE(network.idle());
  // Double cancel is a no-op.
  EXPECT_FALSE(network.cancel_flow(flow));
}

TEST(FaultNetworkTest, CancelActiveFlowCreditsMovedBytes) {
  const Topology topo = make_single_switch(2);
  const NetworkParams params;
  FluidNetwork network(topo, params);
  const FlowId flow = network.add_flow(topo.machine_node(0),
                                       topo.machine_node(1), 1'000'000, 0);
  std::vector<FlowId> completed;
  const SimTime halfway =
      0.5 * 1'000'000 / params.effective_bandwidth();
  network.advance_to(halfway, completed);
  EXPECT_TRUE(completed.empty());
  EXPECT_TRUE(network.cancel_flow(flow));
  EXPECT_TRUE(network.idle());
  EXPECT_EQ(network.stats().canceled_flows, 1);
  EXPECT_EQ(network.flow_rate(flow), 0);
  // The bytes moved before cancellation stay on the path accounting.
  double moved = 0;
  for (const double b : network.stats().edge_bytes) moved += b;
  EXPECT_NEAR(moved / 2.0, 500'000, 1.0);  // 2 directed edges on the path
}

TEST(FaultNetworkTest, ScheduledChangeInPastThrows) {
  const Topology topo = make_single_switch(2);
  FluidNetwork network(topo, {});
  std::vector<FlowId> completed;
  network.add_flow(topo.machine_node(0), topo.machine_node(1), 1000, 0);
  network.advance_to(network.next_event_time(), completed);
  EXPECT_GT(network.now(), 0);
  EXPECT_THROW(network.schedule_capacity_change(network.now() / 2, 0, 1.0e6),
               InvalidArgument);
}

TEST(FaultNetworkTest, RestorationEventWakesStuckFlow) {
  // down at t1, up at t2, both scheduled ahead of time: the flow stalls
  // during [t1, t2] and completes late by exactly the outage.
  const Topology topo = make_chain({1, 1});
  const topology::LinkId trunk = trunk_link(topo);
  const NetworkParams params;
  const double rate = params.effective_bandwidth();
  const Bytes bytes = 1'000'000;
  const SimTime t_nominal = static_cast<double>(bytes) / rate;
  const SimTime t1 = 0.25 * t_nominal;
  const SimTime t2 = t1 + 0.5;

  FluidNetwork network(topo, params);
  network.schedule_capacity_change(t1, trunk, 0.0);
  network.schedule_capacity_change(t2, trunk,
                                   params.link_bandwidth_bytes_per_sec);
  network.add_flow(topo.machine_node(0), topo.machine_node(1), bytes, 0);
  const SimTime done = drain(network);
  EXPECT_NEAR(done, t_nominal + (t2 - t1), 1e-9);
  EXPECT_EQ(network.stats().capacity_changes, 2);
}

TEST(FaultNetworkTest, ZeroScheduledChangesBitIdentical) {
  // The fault path must be inert when unused: same flows, same times,
  // exactly (==, not near) the pre-fault behaviour.
  const Topology topo = make_single_switch(4);
  const NetworkParams params;
  auto run = [&](bool touch_fault_api) {
    FluidNetwork network(topo, params);
    std::vector<SimTime> times;
    for (topology::Rank src = 0; src < 4; ++src) {
      for (topology::Rank dst = 0; dst < 4; ++dst) {
        if (src == dst) continue;
        network.add_flow(topo.machine_node(src), topo.machine_node(dst),
                         64_KiB, 1e-5 * src);
      }
    }
    if (touch_fault_api) {
      // Scheduling nothing and querying capacities must not perturb.
      for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
        (void)network.link_capacity(l);
      }
    }
    std::vector<FlowId> completed;
    while (!network.idle()) {
      network.advance_to(network.next_event_time(), completed);
      times.push_back(network.now());
    }
    return times;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace aapc::simnet
