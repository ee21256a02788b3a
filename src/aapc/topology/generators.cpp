#include "aapc/topology/generators.hpp"

#include <algorithm>
#include <utility>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"

namespace aapc::topology {

Topology make_single_switch(std::int32_t machines) {
  AAPC_REQUIRE(machines >= 1, "need at least one machine");
  Topology topo;
  const NodeId sw = topo.add_switch("s0");
  for (std::int32_t i = 0; i < machines; ++i) {
    const NodeId m = topo.add_machine(str_cat("n", i));
    topo.add_link(m, sw);
  }
  topo.finalize();
  return topo;
}

Topology make_star(const std::vector<std::int32_t>& machines_per_switch) {
  AAPC_REQUIRE(!machines_per_switch.empty(), "need at least one switch");
  Topology topo;
  std::vector<NodeId> switches;
  switches.reserve(machines_per_switch.size());
  for (std::size_t i = 0; i < machines_per_switch.size(); ++i) {
    switches.push_back(topo.add_switch(str_cat("s", i)));
    if (i > 0) topo.add_link(switches[0], switches[i]);
  }
  std::int32_t machine = 0;
  for (std::size_t i = 0; i < machines_per_switch.size(); ++i) {
    AAPC_REQUIRE(machines_per_switch[i] >= 0, "negative machine count");
    for (std::int32_t j = 0; j < machines_per_switch[i]; ++j) {
      const NodeId m = topo.add_machine(str_cat("n", machine++));
      topo.add_link(m, switches[i]);
    }
  }
  topo.finalize();
  return topo;
}

Topology make_chain(const std::vector<std::int32_t>& machines_per_switch) {
  AAPC_REQUIRE(!machines_per_switch.empty(), "need at least one switch");
  Topology topo;
  std::vector<NodeId> switches;
  switches.reserve(machines_per_switch.size());
  for (std::size_t i = 0; i < machines_per_switch.size(); ++i) {
    switches.push_back(topo.add_switch(str_cat("s", i)));
    if (i > 0) topo.add_link(switches[i - 1], switches[i]);
  }
  std::int32_t machine = 0;
  for (std::size_t i = 0; i < machines_per_switch.size(); ++i) {
    AAPC_REQUIRE(machines_per_switch[i] >= 0, "negative machine count");
    for (std::int32_t j = 0; j < machines_per_switch[i]; ++j) {
      const NodeId m = topo.add_machine(str_cat("n", machine++));
      topo.add_link(m, switches[i]);
    }
  }
  topo.finalize();
  return topo;
}

Topology make_paper_topology_a() { return make_single_switch(24); }

Topology make_paper_topology_b() { return make_star({8, 8, 8, 8}); }

Topology make_paper_topology_c() { return make_chain({8, 8, 8, 8}); }

Topology make_paper_figure1() {
  // Figure 1's worked example: root switch s1 with subtrees
  //   ts0 = {n0, n1, n2}  (n0, n1 on s0; n2 one level deeper on s2),
  //   ts3 = {n3, n4},
  //   tn5 = {n5}          (a machine attached directly to the root).
  // The figure's exact placement of s2 is ambiguous in the scanned
  // text; we hang it under s0 so the example keeps all four switches,
  // keeps path(n0, n3) = {(n0,s0),(s0,s1),(s1,s3),(s3,n3)} as stated in
  // §3, and keeps the subtree machine counts {3, 2, 1} used throughout
  // §4's worked example.
  Topology topo;
  const NodeId s0 = topo.add_switch("s0");
  const NodeId s1 = topo.add_switch("s1");
  const NodeId s2 = topo.add_switch("s2");
  const NodeId s3 = topo.add_switch("s3");
  topo.add_link(s0, s1);
  topo.add_link(s0, s2);
  topo.add_link(s1, s3);
  const NodeId n0 = topo.add_machine("n0");
  const NodeId n1 = topo.add_machine("n1");
  const NodeId n2 = topo.add_machine("n2");
  const NodeId n3 = topo.add_machine("n3");
  const NodeId n4 = topo.add_machine("n4");
  const NodeId n5 = topo.add_machine("n5");
  topo.add_link(n0, s0);
  topo.add_link(n1, s0);
  topo.add_link(n2, s2);
  topo.add_link(n3, s3);
  topo.add_link(n4, s3);
  topo.add_link(n5, s1);
  topo.finalize();
  return topo;
}

Topology make_paper_topology(const std::string& name) {
  if (name == "a") return make_paper_topology_a();
  if (name == "b") return make_paper_topology_b();
  if (name == "c") return make_paper_topology_c();
  if (name == "fig1") return make_paper_figure1();
  throw InvalidArgument("unknown paper topology '" + name + "'");
}

Topology make_binary_tree(std::int32_t depth,
                          std::int32_t machines_per_leaf) {
  AAPC_REQUIRE(depth >= 1, "depth >= 1");
  AAPC_REQUIRE(machines_per_leaf >= 1, "machines_per_leaf >= 1");
  Topology topo;
  std::vector<NodeId> level{topo.add_switch("s0")};
  std::int32_t next_switch = 1;
  for (std::int32_t d = 1; d < depth; ++d) {
    std::vector<NodeId> next_level;
    for (const NodeId parent : level) {
      for (int child = 0; child < 2; ++child) {
        const NodeId sw = topo.add_switch(str_cat("s", next_switch++));
        topo.add_link(parent, sw);
        next_level.push_back(sw);
      }
    }
    level = std::move(next_level);
  }
  std::int32_t machine = 0;
  for (const NodeId leaf : level) {
    for (std::int32_t i = 0; i < machines_per_leaf; ++i) {
      const NodeId m = topo.add_machine(str_cat("n", machine++));
      topo.add_link(m, leaf);
    }
  }
  topo.finalize();
  return topo;
}

Topology make_random_tree(Rng& rng, const RandomTreeOptions& options) {
  AAPC_REQUIRE(options.switches >= 1, "need at least one switch");
  AAPC_REQUIRE(options.machines >= 1, "need at least one machine");
  AAPC_REQUIRE(options.max_switch_degree >= 1, "max_switch_degree >= 1");

  Topology topo;
  std::vector<NodeId> switches;
  std::vector<std::int32_t> switch_children;  // switch-to-switch fanout
  switches.push_back(topo.add_switch());
  switch_children.push_back(0);
  // Attach each new switch to a uniformly random existing switch whose
  // fanout is below the cap (random recursive tree, bounded degree).
  for (std::int32_t i = 1; i < options.switches; ++i) {
    std::vector<std::size_t> eligible;
    for (std::size_t j = 0; j < switches.size(); ++j) {
      if (switch_children[j] < options.max_switch_degree) eligible.push_back(j);
    }
    // The cap can exclude everyone only if max_switch_degree is tiny and
    // the tree saturated; fall back to any switch to stay well-formed.
    const std::size_t parent_index =
        eligible.empty()
            ? static_cast<std::size_t>(rng.next_below(switches.size()))
            : eligible[rng.next_below(eligible.size())];
    const NodeId sw = topo.add_switch();
    topo.add_link(switches[parent_index], sw);
    switch_children[parent_index] += 1;
    switches.push_back(sw);
    switch_children.push_back(0);
  }

  // Distribute machines: honor the per-switch minimum, then place the
  // remainder uniformly at random.
  std::vector<std::int32_t> machine_count(switches.size(), 0);
  std::int32_t placed = 0;
  for (std::size_t j = 0; j < switches.size() && placed < options.machines;
       ++j) {
    const std::int32_t take = std::min(options.min_machines_per_switch,
                                       options.machines - placed);
    machine_count[j] += take;
    placed += take;
  }
  while (placed < options.machines) {
    machine_count[rng.next_below(switches.size())] += 1;
    ++placed;
  }
  std::int32_t machine = 0;
  for (std::size_t j = 0; j < switches.size(); ++j) {
    for (std::int32_t c = 0; c < machine_count[j]; ++c) {
      const NodeId m = topo.add_machine(str_cat("n", machine++));
      topo.add_link(m, switches[j]);
    }
  }
  topo.finalize();
  return topo;
}

Topology make_switch_fabric(const std::vector<std::int32_t>& fanout,
                            std::int32_t machines_per_leaf) {
  AAPC_REQUIRE(machines_per_leaf >= 1, "machines_per_leaf >= 1");
  for (const std::int32_t f : fanout) {
    AAPC_REQUIRE(f >= 1, "every fabric level needs fanout >= 1");
  }
  Topology topo;
  std::int32_t next_switch = 0;
  std::vector<NodeId> level{topo.add_switch(str_cat("s", next_switch++))};
  for (const std::int32_t f : fanout) {
    std::vector<NodeId> next_level;
    next_level.reserve(level.size() * static_cast<std::size_t>(f));
    for (const NodeId parent : level) {
      for (std::int32_t c = 0; c < f; ++c) {
        const NodeId sw = topo.add_switch(str_cat("s", next_switch++));
        topo.add_link(parent, sw);
        next_level.push_back(sw);
      }
    }
    level = std::move(next_level);
  }
  std::int32_t machine = 0;
  for (const NodeId leaf : level) {
    for (std::int32_t i = 0; i < machines_per_leaf; ++i) {
      const NodeId m = topo.add_machine(str_cat("n", machine++));
      topo.add_link(m, leaf);
    }
  }
  topo.finalize();
  return topo;
}

Topology make_fat_tree(std::int32_t pods, std::int32_t edges_per_pod,
                       std::int32_t hosts_per_edge) {
  AAPC_REQUIRE(pods >= 1, "pods >= 1");
  AAPC_REQUIRE(edges_per_pod >= 1, "edges_per_pod >= 1");
  return make_switch_fabric({pods, edges_per_pod}, hosts_per_edge);
}

Topology make_random_lan(Rng& rng, const RandomLanOptions& options) {
  AAPC_REQUIRE(options.switches >= 1, "need at least one switch");
  AAPC_REQUIRE(options.machines >= 1, "need at least one machine");
  AAPC_REQUIRE(options.max_switch_degree >= 1, "max_switch_degree >= 1");
  AAPC_REQUIRE(options.dense_switch_percent >= 0 &&
                   options.dense_switch_percent <= 100,
               "dense_switch_percent in [0, 100]");
  AAPC_REQUIRE(options.dense_machine_percent >= 0 &&
                   options.dense_machine_percent <= 100,
               "dense_machine_percent in [0, 100]");

  Topology topo;
  std::vector<NodeId> switches;
  std::vector<std::int32_t> switch_children;
  switches.reserve(static_cast<std::size_t>(options.switches));
  switches.push_back(topo.add_switch());
  switch_children.push_back(0);
  for (std::int32_t i = 1; i < options.switches; ++i) {
    // Same bounded-degree recursive tree as make_random_tree, but the
    // eligible scan would be quadratic at thousands of switches, so
    // retry-sample instead and fall back to a linear scan only when the
    // tree is nearly saturated.
    std::size_t parent_index = switches.size();
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto candidate =
          static_cast<std::size_t>(rng.next_below(switches.size()));
      if (switch_children[candidate] < options.max_switch_degree) {
        parent_index = candidate;
        break;
      }
    }
    if (parent_index == switches.size()) {
      for (std::size_t j = 0; j < switches.size(); ++j) {
        if (switch_children[j] < options.max_switch_degree) {
          parent_index = j;
          break;
        }
      }
      // Fully saturated (tiny degree cap): any parent keeps the tree
      // well-formed, matching make_random_tree's fallback.
      if (parent_index == switches.size()) {
        parent_index = static_cast<std::size_t>(
            rng.next_below(switches.size()));
      }
    }
    const NodeId sw = topo.add_switch();
    topo.add_link(switches[parent_index], sw);
    switch_children[parent_index] += 1;
    switches.push_back(sw);
    switch_children.push_back(0);
  }

  // Skewed placement: a minority of "wiring closet" switches absorbs
  // most machines; the remainder scatter uniformly over all switches.
  const auto dense_count = static_cast<std::size_t>(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(switches.size()) *
             options.dense_switch_percent / 100));
  std::vector<std::size_t> dense;
  dense.reserve(dense_count);
  for (std::size_t d = 0; d < dense_count; ++d) {
    dense.push_back(static_cast<std::size_t>(rng.next_below(switches.size())));
  }
  const std::int32_t dense_machines =
      static_cast<std::int32_t>(static_cast<std::int64_t>(options.machines) *
                                options.dense_machine_percent / 100);
  std::vector<std::int32_t> machine_count(switches.size(), 0);
  for (std::int32_t p = 0; p < dense_machines; ++p) {
    machine_count[dense[rng.next_below(dense.size())]] += 1;
  }
  for (std::int32_t p = dense_machines; p < options.machines; ++p) {
    machine_count[rng.next_below(switches.size())] += 1;
  }
  std::int32_t machine = 0;
  for (std::size_t j = 0; j < switches.size(); ++j) {
    for (std::int32_t c = 0; c < machine_count[j]; ++c) {
      const NodeId m = topo.add_machine(str_cat("n", machine++));
      topo.add_link(m, switches[j]);
    }
  }
  topo.finalize();
  return topo;
}

}  // namespace aapc::topology
