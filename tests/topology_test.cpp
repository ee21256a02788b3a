// Unit and property tests for the tree network model (§3).
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/common/units.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::topology {
namespace {

TEST(TopologyBuildTest, SingleSwitchCounts) {
  const Topology topo = make_single_switch(5);
  EXPECT_EQ(topo.machine_count(), 5);
  EXPECT_EQ(topo.switch_count(), 1);
  EXPECT_EQ(topo.link_count(), 5);
  EXPECT_EQ(topo.directed_edge_count(), 10);
}

TEST(TopologyBuildTest, RejectsDisconnected) {
  Topology topo;
  const NodeId s0 = topo.add_switch();
  const NodeId s1 = topo.add_switch();
  const NodeId m0 = topo.add_machine();
  const NodeId m1 = topo.add_machine();
  topo.add_link(m0, s0);
  topo.add_link(m1, s1);
  // 4 nodes, 2 links: not a spanning tree.
  EXPECT_THROW(topo.finalize(), InvalidArgument);
}

TEST(TopologyBuildTest, RejectsCycle) {
  Topology topo;
  const NodeId s0 = topo.add_switch();
  const NodeId s1 = topo.add_switch();
  const NodeId s2 = topo.add_switch();
  topo.add_link(s0, s1);
  topo.add_link(s1, s2);
  topo.add_link(s2, s0);
  const NodeId m = topo.add_machine();
  topo.add_link(m, s0);
  EXPECT_THROW(topo.finalize(), InvalidArgument);
}

TEST(TopologyBuildTest, RejectsMachineWithTwoLinks) {
  Topology topo;
  const NodeId s0 = topo.add_switch();
  const NodeId s1 = topo.add_switch();
  const NodeId m = topo.add_machine();
  topo.add_link(m, s0);
  topo.add_link(m, s1);
  EXPECT_THROW(topo.finalize(), InvalidArgument);
}

TEST(TopologyBuildTest, RejectsSelfLink) {
  Topology topo;
  const NodeId s0 = topo.add_switch();
  EXPECT_THROW(topo.add_link(s0, s0), InvalidArgument);
}

TEST(TopologyBuildTest, RejectsMutationAfterFinalize) {
  Topology topo = make_single_switch(3);
  EXPECT_THROW(topo.add_switch(), InvalidArgument);
}

TEST(TopologyBuildTest, QueriesRequireFinalize) {
  Topology topo;
  const NodeId s0 = topo.add_switch();
  const NodeId m = topo.add_machine();
  topo.add_link(m, s0);
  EXPECT_THROW(topo.path(m, s0), InvalidArgument);
}

TEST(TopologyBuildTest, RanksFollowInsertionOrder) {
  const Topology topo = make_paper_figure1();
  for (Rank r = 0; r < topo.machine_count(); ++r) {
    EXPECT_EQ(topo.rank_of(topo.machine_node(r)), r);
    EXPECT_EQ(topo.name(topo.machine_node(r)),
              std::string("n") + std::to_string(r));
  }
}

TEST(TopologyPathTest, PaperFigure1Path) {
  // §3: path(n0, n3) = {(n0,s0), (s0,s1), (s1,s3), (s3,n3)}.
  const Topology topo = make_paper_figure1();
  const NodeId n0 = *topo.find_node("n0");
  const NodeId n3 = *topo.find_node("n3");
  const auto path = topo.path(n0, n3);
  ASSERT_EQ(path.size(), 4u);
  const char* expected_nodes[] = {"n0", "s0", "s1", "s3", "n3"};
  for (std::size_t i = 0; i < path.size(); ++i) {
    EXPECT_EQ(topo.name(topo.edge_source(path[i])), expected_nodes[i]);
    EXPECT_EQ(topo.name(topo.edge_target(path[i])), expected_nodes[i + 1]);
  }
}

TEST(TopologyPathTest, PathToSelfIsEmpty) {
  const Topology topo = make_single_switch(3);
  EXPECT_TRUE(topo.path(topo.machine_node(0), topo.machine_node(0)).empty());
}

TEST(TopologyPathTest, ReverseEdgeFlipsEndpoints) {
  const Topology topo = make_single_switch(3);
  const NodeId m = topo.machine_node(0);
  const NodeId s = topo.neighbors(m)[0];
  const EdgeId e = topo.edge_between(m, s);
  EXPECT_EQ(topo.edge_source(topo.reverse(e)), s);
  EXPECT_EQ(topo.edge_target(topo.reverse(e)), m);
}

TEST(TopologyPathTest, PathIsContiguousAndSimpleOnRandomTrees) {
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    RandomTreeOptions options;
    options.switches = static_cast<std::int32_t>(rng.next_in(1, 8));
    options.machines = static_cast<std::int32_t>(rng.next_in(2, 20));
    const Topology topo = make_random_tree(rng, options);
    for (int pair = 0; pair < 20; ++pair) {
      const Rank a = static_cast<Rank>(rng.next_below(topo.machine_count()));
      const Rank b = static_cast<Rank>(rng.next_below(topo.machine_count()));
      if (a == b) continue;
      const NodeId u = topo.machine_node(a);
      const NodeId v = topo.machine_node(b);
      const auto path = topo.path(u, v);
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(topo.edge_source(path.front()), u);
      EXPECT_EQ(topo.edge_target(path.back()), v);
      std::set<NodeId> visited{u};
      for (std::size_t i = 0; i < path.size(); ++i) {
        if (i > 0) {
          EXPECT_EQ(topo.edge_source(path[i]), topo.edge_target(path[i - 1]));
        }
        // Simple path: no node repeats.
        EXPECT_TRUE(visited.insert(topo.edge_target(path[i])).second);
      }
      EXPECT_EQ(static_cast<std::int32_t>(path.size()), topo.path_length(u, v));
    }
  }
}

TEST(TopologyPathTest, Lemma3PathsFromSharedEndpointAreDisjoint) {
  // Lemma 3: for distinct x, y, z in a tree,
  // path(x, y) ∩ path(y, z) = ∅ (as directed edge sets).
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    RandomTreeOptions options;
    options.switches = static_cast<std::int32_t>(rng.next_in(1, 6));
    options.machines = static_cast<std::int32_t>(rng.next_in(3, 15));
    const Topology topo = make_random_tree(rng, options);
    for (int triple = 0; triple < 30; ++triple) {
      const NodeId x = static_cast<NodeId>(rng.next_below(topo.node_count()));
      const NodeId y = static_cast<NodeId>(rng.next_below(topo.node_count()));
      const NodeId z = static_cast<NodeId>(rng.next_below(topo.node_count()));
      if (x == y || y == z || x == z) continue;
      const auto p1 = topo.path(x, y);
      const auto p2 = topo.path(y, z);
      for (const EdgeId e1 : p1) {
        for (const EdgeId e2 : p2) {
          EXPECT_NE(e1, e2);
        }
      }
    }
  }
}

TEST(TopologyContentionTest, SharedEdgeDetected) {
  // Two messages into the same switch from distinct sources to distinct
  // destinations on another switch share the inter-switch edge.
  const Topology topo = make_chain({2, 2});
  const NodeId n0 = topo.machine_node(0);
  const NodeId n1 = topo.machine_node(1);
  const NodeId n2 = topo.machine_node(2);
  const NodeId n3 = topo.machine_node(3);
  EXPECT_TRUE(topo.paths_share_edge(n0, n2, n1, n3));
  // Opposite directions never share a directed edge.
  EXPECT_FALSE(topo.paths_share_edge(n0, n2, n3, n1));
}

TEST(TopologyLoadTest, SingleSwitchLoads) {
  const Topology topo = make_single_switch(24);
  EXPECT_EQ(topo.aapc_load(), 23);
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    EXPECT_EQ(topo.aapc_link_load(l), 23);
  }
}

TEST(TopologyLoadTest, StarLoads) {
  // Paper topology (b): 4 switches, 8 machines each, S0 the hub.
  const Topology topo = make_paper_topology_b();
  EXPECT_EQ(topo.machine_count(), 32);
  EXPECT_EQ(topo.aapc_load(), 8 * 24);
}

TEST(TopologyLoadTest, ChainLoads) {
  // Paper topology (c): the middle link carries 16 x 16.
  const Topology topo = make_paper_topology_c();
  EXPECT_EQ(topo.aapc_load(), 16 * 16);
  const LinkId bottleneck = topo.bottleneck_link();
  const auto [a, b] = topo.link_endpoints(bottleneck);
  const std::set<std::string> names{topo.name(a), topo.name(b)};
  EXPECT_TRUE(names.count("s1"));
  EXPECT_TRUE(names.count("s2"));
}

TEST(TopologyLoadTest, MachinesOnSideSumsToTotal) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    RandomTreeOptions options;
    options.switches = static_cast<std::int32_t>(rng.next_in(1, 8));
    options.machines = static_cast<std::int32_t>(rng.next_in(2, 24));
    const Topology topo = make_random_tree(rng, options);
    for (LinkId l = 0; l < topo.link_count(); ++l) {
      const auto [a, b] = topo.link_endpoints(l);
      EXPECT_EQ(topo.machines_on_side(l, a) + topo.machines_on_side(l, b),
                topo.machine_count());
      EXPECT_EQ(topo.aapc_link_load(l),
                static_cast<std::int64_t>(topo.machines_on_side(l, a)) *
                    topo.machines_on_side(l, b));
    }
  }
}

TEST(TopologyLoadTest, PeakThroughputMatchesPaperNumbers) {
  const double B = mbps_to_bytes_per_sec(100.0);
  // Topology (a): 24*23*100/23 = 2400 Mbps.
  EXPECT_NEAR(
      bytes_per_sec_to_mbps(make_paper_topology_a().peak_aggregate_throughput(B)),
      2400.0, 1e-9);
  // Topology (b): 32*31*100/192 ≈ 516.7 Mbps.
  EXPECT_NEAR(
      bytes_per_sec_to_mbps(make_paper_topology_b().peak_aggregate_throughput(B)),
      516.6667, 1e-3);
  // Topology (c): 32*31*100/256 = 387.5 Mbps.
  EXPECT_NEAR(
      bytes_per_sec_to_mbps(make_paper_topology_c().peak_aggregate_throughput(B)),
      387.5, 1e-9);
}

TEST(TopologyGeneratorTest, PaperFigure1Structure) {
  const Topology topo = make_paper_figure1();
  EXPECT_EQ(topo.machine_count(), 6);
  EXPECT_EQ(topo.switch_count(), 4);
  EXPECT_EQ(topo.aapc_load(), 9);  // (s0,s1): 3 x 3
}

TEST(TopologyGeneratorTest, PaperTopologyByName) {
  const std::pair<const char*, Topology> cases[] = {
      {"a", make_paper_topology_a()},
      {"b", make_paper_topology_b()},
      {"c", make_paper_topology_c()},
      {"fig1", make_paper_figure1()},
  };
  for (const auto& [name, expected] : cases) {
    const Topology topo = make_paper_topology(name);
    EXPECT_EQ(topo.machine_count(), expected.machine_count()) << name;
    EXPECT_EQ(topo.switch_count(), expected.switch_count()) << name;
    EXPECT_EQ(topo.aapc_load(), expected.aapc_load()) << name;
  }
  EXPECT_THROW(make_paper_topology("d"), InvalidArgument);
  EXPECT_THROW(make_paper_topology("paper-a"), InvalidArgument);
}

TEST(TopologyGeneratorTest, RandomTreeRespectsMinMachines) {
  Rng rng(5);
  RandomTreeOptions options;
  options.switches = 5;
  options.machines = 20;
  options.min_machines_per_switch = 2;
  const Topology topo = make_random_tree(rng, options);
  EXPECT_EQ(topo.machine_count(), 20);
  // Every switch must host at least 2 machine links.
  for (NodeId node = 0; node < topo.node_count(); ++node) {
    if (topo.is_machine(node)) continue;
    int machine_links = 0;
    for (const NodeId w : topo.neighbors(node)) {
      if (topo.is_machine(w)) ++machine_links;
    }
    EXPECT_GE(machine_links, 2);
  }
}

TEST(TopologyGeneratorTest, FindNode) {
  const Topology topo = make_paper_topology_c();
  EXPECT_TRUE(topo.find_node("s3").has_value());
  EXPECT_TRUE(topo.find_node("n31").has_value());
  EXPECT_FALSE(topo.find_node("bogus").has_value());
}

}  // namespace
}  // namespace aapc::topology
