// Topology generators: the paper's experimental topologies (Figure 5)
// plus parameterized families (single switch, star-of-switches, chains,
// binary-ish random trees) used by tests and benchmarks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aapc/common/rng.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::topology {

/// One switch with `machines` machines attached (paper topology (a) uses
/// machines = 24).
Topology make_single_switch(std::int32_t machines);

/// A hub switch s0 with `machines_per_switch[0]` machines, plus one leaf
/// switch per further entry, each holding that many machines. Paper
/// topology (b) is make_star({8, 8, 8, 8}).
Topology make_star(const std::vector<std::int32_t>& machines_per_switch);

/// A chain of switches s0 — s1 — ... with machines_per_switch[i] machines
/// on switch i. Paper topology (c) is make_chain({8, 8, 8, 8}).
Topology make_chain(const std::vector<std::int32_t>& machines_per_switch);

/// The 24-node single-switch cluster from Figure 5(a).
Topology make_paper_topology_a();

/// The 32-node, 4-switch star from Figure 5(b): S0 holds n0..n7 and
/// connects to S1, S2, S3 with 8 machines each.
Topology make_paper_topology_b();

/// The 32-node, 4-switch chain from Figure 5(c): S0—S1—S2—S3, 8 machines
/// per switch; the S1—S2 link is the bottleneck (16 × 16).
Topology make_paper_topology_c();

/// The example cluster from Figure 1 (the §4 worked example): root
/// switch s1 whose machine-bearing subtrees are ts0 = {n0,n1,n2}
/// (n2 one switch deeper, on s2 under s0), ts3 = {n3,n4}, and
/// tn5 = {n5} directly attached to the root. Subtree machine counts are
/// {3, 2, 1}, matching Figure 3 and Table 4.
Topology make_paper_figure1();

/// The built-in topology called `name`: "a", "b" and "c" for Figure
/// 5(a)-(c), "fig1" for the Figure-1 example. Throws InvalidArgument on
/// any other name.
Topology make_paper_topology(const std::string& name);

/// A complete binary tree of switches with `depth` levels (depth 1 =
/// a single switch) and `machines_per_leaf` machines on each leaf
/// switch. Exercises deep multi-hop paths.
Topology make_binary_tree(std::int32_t depth,
                          std::int32_t machines_per_leaf);

struct RandomTreeOptions {
  std::int32_t switches = 4;
  std::int32_t machines = 12;
  /// Maximum switch-children a switch may have (>= 1).
  std::int32_t max_switch_degree = 3;
  /// Every switch gets at least this many machines (may be 0).
  std::int32_t min_machines_per_switch = 0;
};

/// Random machine-leaf tree: a random tree over `switches` switches, with
/// `machines` machines distributed over them (each switch that would
/// otherwise isolate the tree is still valid: machines are leaves only).
/// Guarantees at least one machine; the result is finalized.
Topology make_random_tree(Rng& rng, const RandomTreeOptions& options);

/// Uniform multi-level switch fabric: one root switch; every switch at
/// level l (root = level 0) has fanout[l] child switches; each
/// deepest-level switch holds `machines_per_leaf` machines. An empty
/// fanout degenerates to make_single_switch. Switches are named in
/// creation (breadth-first) order; the result is finalized.
Topology make_switch_fabric(const std::vector<std::int32_t>& fanout,
                            std::int32_t machines_per_leaf);

/// The spanning-tree view of a fat-tree datacenter fabric: a core
/// switch over `pods` aggregation switches, each over `edges_per_pod`
/// edge switches, each holding `hosts_per_edge` machines (one active
/// uplink per switch, as STP would leave it). 8 x 16 x 32 = 4096 hosts.
Topology make_fat_tree(std::int32_t pods, std::int32_t edges_per_pod,
                       std::int32_t hosts_per_edge);

struct RandomLanOptions {
  std::int32_t switches = 64;
  std::int32_t machines = 1024;
  /// Maximum switch-children a switch may have (>= 1).
  std::int32_t max_switch_degree = 8;
  /// Percent of switches acting as dense wiring closets; they receive
  /// `dense_machine_percent` of the machines between them, the rest
  /// scatter uniformly (0 disables the skew).
  std::int32_t dense_switch_percent = 25;
  std::int32_t dense_machine_percent = 75;
};

/// Random campus-LAN-shaped tree at benchmark scale: a bounded-degree
/// random recursive tree of switches with a skewed machine
/// distribution (most hosts concentrate under a minority of "wiring
/// closet" switches, the remainder spread thin). Deterministic for a
/// fixed Rng state; the result is finalized.
Topology make_random_lan(Rng& rng, const RandomLanOptions& options);

}  // namespace aapc::topology
