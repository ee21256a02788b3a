#include "aapc/core/collectives.hpp"

#include <algorithm>
#include <utility>

#include "aapc/common/error.hpp"
#include "aapc/core/scheduler.hpp"

namespace aapc::core {

using topology::NodeId;
using topology::kInvalidNode;

std::vector<Rank> dfs_machine_order(const topology::Topology& topo) {
  NodeId root = kInvalidNode;
  for (NodeId node = 0; node < topo.node_count(); ++node) {
    if (topo.parent(node) == kInvalidNode) {
      root = node;
      break;
    }
  }
  AAPC_REQUIRE(root != kInvalidNode || topo.node_count() == 0,
               "topology has no root");
  std::vector<Rank> order;
  order.reserve(static_cast<std::size_t>(topo.machine_count()));
  if (root == kInvalidNode) return order;
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId node = stack.back();
    stack.pop_back();
    if (topo.is_machine(node)) order.push_back(topo.rank_of(node));
    const auto& adj = topo.neighbors(node);
    // Push children in reverse so they pop in stored neighbor order.
    for (auto it = adj.rbegin(); it != adj.rend(); ++it) {
      if (*it != topo.parent(node)) stack.push_back(*it);
    }
  }
  AAPC_CHECK(static_cast<std::int32_t>(order.size()) == topo.machine_count());
  return order;
}

namespace {

Schedule build_ring_pipeline(const topology::Topology& topo, bool forward,
                             CollectiveKind kind) {
  const std::vector<Rank> order = dfs_machine_order(topo);
  const auto n = static_cast<std::int64_t>(order.size());
  if (n <= 1) {
    Schedule empty;
    empty.kind = kind;
    return empty;
  }
  const std::int64_t rounds = n - 1;
  ScheduleBuilder builder;
  builder.reserve(rounds * n);
  for (std::int64_t round = 0; round < rounds; ++round) {
    for (std::int64_t p = 0; p < n; ++p) {
      const std::int64_t q = forward ? (p + 1) % n : (p + n - 1) % n;
      builder.add(round, order[static_cast<std::size_t>(p)],
                  order[static_cast<std::size_t>(q)]);
    }
  }
  Schedule schedule = std::move(builder).build(rounds);
  schedule.kind = kind;
  return schedule;
}

}  // namespace

Schedule build_allgather_schedule(const topology::Topology& topo) {
  return build_ring_pipeline(topo, /*forward=*/true,
                             CollectiveKind::kAllgather);
}

Schedule build_reduce_scatter_schedule(const topology::Topology& topo) {
  return build_ring_pipeline(topo, /*forward=*/false,
                             CollectiveKind::kReduceScatter);
}

SparseNeighbors normalize_neighbors(std::int32_t machine_count,
                                    const SparseNeighbors& neighbors) {
  AAPC_REQUIRE(static_cast<std::int64_t>(neighbors.size()) == machine_count,
               "sparse neighbor sets cover " << neighbors.size()
                                             << " ranks, topology has "
                                             << machine_count);
  SparseNeighbors normalized(neighbors.size());
  for (std::size_t r = 0; r < neighbors.size(); ++r) {
    std::vector<Rank> set = neighbors[r];
    for (const Rank v : set) {
      AAPC_REQUIRE(v >= 0 && v < machine_count,
                   "sparse neighbor " << v << " of rank " << r
                                      << " out of range [0," << machine_count
                                      << ")");
    }
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    // A rank never sends to itself; a self-entry is a no-op, not an
    // error (halo generators commonly include the center cell).
    set.erase(std::remove(set.begin(), set.end(), static_cast<Rank>(r)),
              set.end());
    normalized[r] = std::move(set);
  }
  return normalized;
}

bool neighbors_fully_dense(std::int32_t machine_count,
                           const SparseNeighbors& normalized) {
  if (static_cast<std::int64_t>(normalized.size()) != machine_count) {
    return false;
  }
  for (const auto& set : normalized) {
    if (static_cast<std::int64_t>(set.size()) != machine_count - 1) {
      return false;
    }
  }
  return true;
}

Schedule build_sparse_alltoall_schedule(const topology::Topology& topo,
                                        const SparseNeighbors& neighbors) {
  const SparseNeighbors normalized =
      normalize_neighbors(topo.machine_count(), neighbors);
  Schedule schedule;
  if (neighbors_fully_dense(topo.machine_count(), normalized)) {
    // Dense degenerates to the paper's optimal AAPC schedule —
    // bit-identical phase structure, only the kind stamp differs.
    schedule = build_aapc_schedule(topo);
  } else {
    Pattern pattern;
    for (std::size_t r = 0; r < normalized.size(); ++r) {
      for (const Rank v : normalized[r]) {
        pattern.push_back(Message{static_cast<Rank>(r), v});
      }
    }
    schedule = greedy_schedule(topo, pattern);
  }
  schedule.kind = CollectiveKind::kSparseAlltoall;
  return schedule;
}

Pattern collective_pattern(const topology::Topology& topo,
                           CollectiveKind kind,
                           const SparseNeighbors& neighbors) {
  switch (kind) {
    case CollectiveKind::kAlltoall:
      return aapc_pattern(topo);
    case CollectiveKind::kAllgather:
    case CollectiveKind::kReduceScatter: {
      const std::vector<Rank> order = dfs_machine_order(topo);
      const auto n = static_cast<std::int64_t>(order.size());
      Pattern pattern;
      if (n <= 1) return pattern;
      const bool forward = kind == CollectiveKind::kAllgather;
      pattern.reserve(static_cast<std::size_t>((n - 1) * n));
      for (std::int64_t round = 0; round < n - 1; ++round) {
        for (std::int64_t p = 0; p < n; ++p) {
          const std::int64_t q = forward ? (p + 1) % n : (p + n - 1) % n;
          pattern.push_back(Message{order[static_cast<std::size_t>(p)],
                                    order[static_cast<std::size_t>(q)]});
        }
      }
      return pattern;
    }
    case CollectiveKind::kSparseAlltoall: {
      const SparseNeighbors normalized =
          normalize_neighbors(topo.machine_count(), neighbors);
      Pattern pattern;
      for (std::size_t r = 0; r < normalized.size(); ++r) {
        for (const Rank v : normalized[r]) {
          pattern.push_back(Message{static_cast<Rank>(r), v});
        }
      }
      return pattern;
    }
  }
  throw InvalidArgument("invalid collective kind");
}

std::int64_t collective_phase_lower_bound(const topology::Topology& topo,
                                          CollectiveKind kind,
                                          const SparseNeighbors& neighbors) {
  return pattern_load(topo, collective_pattern(topo, kind, neighbors));
}

namespace {

/// Ring-pipeline verification that accepts ANY single ring over the
/// machines, not just the one dfs_machine_order picks: the service
/// rewrites cached canonical artifacts through a tree isomorphism, and
/// the image of the canonical DFS ring is a different — equally valid —
/// leaf ring of the caller's topology. Structure first (every machine
/// sends n-1 times to one fixed successor; successors form a single
/// Hamiltonian cycle), then contention-freeness and coverage against
/// the ring the schedule itself implies.
VerifyReport verify_ring_pipeline(const topology::Topology& topo,
                                  const Schedule& schedule,
                                  const TaskRunner& runner) {
  VerifyReport report;
  const auto n = static_cast<std::int64_t>(topo.machine_count());
  const auto fail = [&](std::string msg) {
    report.ok = false;
    report.violations.push_back(std::move(msg));
  };
  if (n <= 1) {
    if (schedule.message_count() != 0) {
      fail("ring pipeline on " + std::to_string(n) +
           " machine(s) must be empty, has " +
           std::to_string(schedule.message_count()) + " message(s)");
    }
    return report;
  }
  std::vector<Rank> succ(static_cast<std::size_t>(n), -1);
  std::vector<std::int64_t> sends(static_cast<std::size_t>(n), 0);
  for (const Message& m : schedule.messages) {
    AAPC_REQUIRE(m.src >= 0 && m.src < n && m.dst >= 0 && m.dst < n,
                 "message " << m.src << "->" << m.dst << " outside [0," << n
                            << ")");
    auto& s = succ[static_cast<std::size_t>(m.src)];
    if (s == -1) {
      s = m.dst;
    } else if (s != m.dst) {
      fail("machine " + std::to_string(m.src) +
           " sends to multiple partners (" + std::to_string(s) + " and " +
           std::to_string(m.dst) + "); a ring pipeline has one successor");
      return report;
    }
    ++sends[static_cast<std::size_t>(m.src)];
  }
  for (Rank r = 0; r < n; ++r) {
    if (sends[static_cast<std::size_t>(r)] != n - 1) {
      fail("machine " + std::to_string(r) + " sends " +
           std::to_string(sends[static_cast<std::size_t>(r)]) +
           " message(s), ring pipeline wants " + std::to_string(n - 1));
    }
  }
  if (!report.ok) return report;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  Rank cur = 0;
  std::int64_t steps = 0;
  while (!seen[static_cast<std::size_t>(cur)]) {
    seen[static_cast<std::size_t>(cur)] = true;
    cur = succ[static_cast<std::size_t>(cur)];
    ++steps;
  }
  if (steps != n || cur != 0) {
    fail("ring successors do not form a single cycle over all machines");
    return report;
  }
  // The bandwidth-optimal bound: one round per non-local block.
  if (schedule.phase_count() != n - 1) {
    fail("ring pipeline has " + std::to_string(schedule.phase_count()) +
         " phase(s), the bandwidth-optimal bound is " +
         std::to_string(n - 1));
  }
  // Coverage and contention-freeness against the schedule's own ring.
  Pattern expected;
  expected.reserve(static_cast<std::size_t>((n - 1) * n));
  for (std::int64_t round = 0; round < n - 1; ++round) {
    for (Rank r = 0; r < n; ++r) {
      expected.push_back(Message{r, succ[static_cast<std::size_t>(r)]});
    }
  }
  VerifyOptions options;
  options.require_optimal_phase_count = false;
  VerifyReport inner = verify_schedule_pattern(topo, schedule, expected,
                                               options, runner);
  report.ok = report.ok && inner.ok;
  report.max_edge_multiplicity = inner.max_edge_multiplicity;
  report.violations.insert(report.violations.end(),
                           inner.violations.begin(), inner.violations.end());
  return report;
}

}  // namespace

VerifyReport verify_collective_schedule(const topology::Topology& topo,
                                        const Schedule& schedule,
                                        const SparseNeighbors& neighbors,
                                        const TaskRunner& runner) {
  if (schedule.kind == CollectiveKind::kAllgather ||
      schedule.kind == CollectiveKind::kReduceScatter) {
    return verify_ring_pipeline(topo, schedule, runner);
  }
  VerifyOptions options;
  options.require_optimal_phase_count =
      schedule.kind != CollectiveKind::kSparseAlltoall;
  if (schedule.kind == CollectiveKind::kAlltoall) {
    return verify_schedule(topo, schedule, options, runner);
  }
  return verify_schedule_pattern(
      topo, schedule, collective_pattern(topo, schedule.kind, neighbors),
      options, runner);
}

std::uint64_t sparse_pattern_hash(const SparseNeighbors& normalized) {
  constexpr std::uint64_t kOffset = 14695981039346656037ULL;
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t hash = kOffset;
  auto mix = [&](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xffu;
      hash *= kPrime;
    }
  };
  for (const auto& set : normalized) {
    mix(static_cast<std::uint64_t>(set.size()));
    for (const Rank v : set) mix(static_cast<std::uint64_t>(v));
  }
  return hash;
}

SparseNeighbors relabel_neighbors(const SparseNeighbors& neighbors,
                                  const std::vector<Rank>& perm) {
  AAPC_REQUIRE(neighbors.size() == perm.size(),
               "neighbor sets cover " << neighbors.size()
                                      << " ranks, permutation covers "
                                      << perm.size());
  invert_permutation(perm);  // validates bijectivity
  SparseNeighbors relabeled(neighbors.size());
  for (std::size_t r = 0; r < neighbors.size(); ++r) {
    std::vector<Rank> set;
    set.reserve(neighbors[r].size());
    for (const Rank v : neighbors[r]) {
      AAPC_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < perm.size(),
                   "neighbor " << v << " outside permutation domain");
      set.push_back(perm[static_cast<std::size_t>(v)]);
    }
    std::sort(set.begin(), set.end());
    relabeled[perm[r]] = std::move(set);
  }
  return relabeled;
}

}  // namespace aapc::core
