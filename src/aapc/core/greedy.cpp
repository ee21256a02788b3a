#include "aapc/core/greedy.hpp"

#include <algorithm>
#include <numeric>

#include "aapc/common/error.hpp"

namespace aapc::core {

std::int64_t pattern_load(const topology::Topology& topo,
                          const Pattern& pattern) {
  std::vector<std::int64_t> edge_load(
      static_cast<std::size_t>(topo.directed_edge_count()), 0);
  for (const Message& m : pattern) {
    for (const topology::EdgeId e :
         topo.path(topo.machine_node(m.src), topo.machine_node(m.dst))) {
      edge_load[static_cast<std::size_t>(e)] += 1;
    }
  }
  std::int64_t load = 0;
  for (const std::int64_t l : edge_load) load = std::max(load, l);
  return load;
}

Pattern aapc_pattern(const topology::Topology& topo) {
  Pattern pattern;
  const std::int32_t machines = topo.machine_count();
  pattern.reserve(static_cast<std::size_t>(machines) * (machines - 1));
  for (Rank src = 0; src < machines; ++src) {
    for (Rank dst = 0; dst < machines; ++dst) {
      if (src != dst) pattern.push_back(Message{src, dst});
    }
  }
  return pattern;
}

Pattern scatter_pattern(const topology::Topology& topo, Rank root) {
  AAPC_REQUIRE(root >= 0 && root < topo.machine_count(),
               "bad scatter root " << root);
  Pattern pattern;
  for (Rank dst = 0; dst < topo.machine_count(); ++dst) {
    if (dst != root) pattern.push_back(Message{root, dst});
  }
  return pattern;
}

Pattern gather_pattern(const topology::Topology& topo, Rank root) {
  AAPC_REQUIRE(root >= 0 && root < topo.machine_count(),
               "bad gather root " << root);
  Pattern pattern;
  for (Rank src = 0; src < topo.machine_count(); ++src) {
    if (src != root) pattern.push_back(Message{src, root});
  }
  return pattern;
}

Pattern neighbor_exchange_pattern(const topology::Topology& topo,
                                  std::int32_t k) {
  const std::int32_t machines = topo.machine_count();
  AAPC_REQUIRE(k >= 1 && k < machines,
               "neighbor radius " << k << " out of range for " << machines
                                  << " machines");
  Pattern pattern;
  std::vector<char> seen(static_cast<std::size_t>(machines), 0);
  for (Rank src = 0; src < machines; ++src) {
    // Radii can wrap onto each other on small rings (e.g. +d and
    // -(|M|-d) are the same destination); emit each neighbor once.
    std::fill(seen.begin(), seen.end(), 0);
    for (std::int32_t d = 1; d <= k; ++d) {
      for (const Rank dst :
           {static_cast<Rank>((src + d) % machines),
            static_cast<Rank>((src - d + machines) % machines)}) {
        if (dst != src && !seen[static_cast<std::size_t>(dst)]) {
          seen[static_cast<std::size_t>(dst)] = 1;
          pattern.push_back(Message{src, dst});
        }
      }
    }
  }
  return pattern;
}

Schedule greedy_schedule(const topology::Topology& topo,
                         const Pattern& pattern) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  const std::int32_t machines = topo.machine_count();

  // Precompute paths, and validate.
  std::vector<std::vector<topology::EdgeId>> paths;
  paths.reserve(pattern.size());
  for (const Message& m : pattern) {
    AAPC_REQUIRE(m.src >= 0 && m.src < machines && m.dst >= 0 &&
                     m.dst < machines,
                 "message rank out of range");
    AAPC_REQUIRE(m.src != m.dst, "self message " << m.src << "->" << m.dst);
    paths.push_back(
        topo.path(topo.machine_node(m.src), topo.machine_node(m.dst)));
  }

  // Placement order: longest path first, then input order.
  std::vector<std::size_t> order(pattern.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return paths[a].size() > paths[b].size();
                   });

  // First-fit: per phase, a bitmap of used directed edges.
  std::vector<std::vector<char>> phase_edges;  // [phase][edge]
  std::vector<std::int32_t> assigned_phase(pattern.size(), -1);
  for (const std::size_t index : order) {
    const auto& path = paths[index];
    std::size_t phase = 0;
    for (;; ++phase) {
      if (phase == phase_edges.size()) {
        phase_edges.emplace_back(
            static_cast<std::size_t>(topo.directed_edge_count()), 0);
        break;
      }
      bool free = true;
      for (const topology::EdgeId e : path) {
        if (phase_edges[phase][static_cast<std::size_t>(e)]) {
          free = false;
          break;
        }
      }
      if (free) break;
    }
    for (const topology::EdgeId e : path) {
      phase_edges[phase][static_cast<std::size_t>(e)] = 1;
    }
    assigned_phase[index] = static_cast<std::int32_t>(phase);
  }

  // Stage in input order so each phase keeps input order.
  ScheduleBuilder builder;
  builder.reserve(static_cast<std::int64_t>(pattern.size()));
  for (std::size_t index = 0; index < pattern.size(); ++index) {
    builder.add(assigned_phase[index], pattern[index].src, pattern[index].dst);
  }
  return std::move(builder)
      .build(static_cast<std::int64_t>(phase_edges.size()));
}

}  // namespace aapc::core
