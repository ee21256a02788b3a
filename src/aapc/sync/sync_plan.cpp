#include "aapc/sync/sync_plan.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "aapc/common/error.hpp"

namespace aapc::sync {

namespace {

/// Fixed-width bitset over dynamic word count (std::vector<bool> is too
/// slow for the O(n^2) intersection tests below).
class BitRows {
 public:
  BitRows(std::size_t rows, std::size_t bits)
      : words_per_row_((bits + 63) / 64),
        data_(rows * words_per_row_, 0) {}

  void set(std::size_t row, std::size_t bit) {
    data_[row * words_per_row_ + bit / 64] |= (1ull << (bit % 64));
  }

  bool test(std::size_t row, std::size_t bit) const {
    return (data_[row * words_per_row_ + bit / 64] >> (bit % 64)) & 1ull;
  }

  bool rows_intersect(std::size_t a, std::size_t b) const {
    const std::uint64_t* pa = &data_[a * words_per_row_];
    const std::uint64_t* pb = &data_[b * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      if (pa[w] & pb[w]) return true;
    }
    return false;
  }

  /// row_a |= row_b.
  void merge_into(std::size_t a, std::size_t b) {
    std::uint64_t* pa = &data_[a * words_per_row_];
    const std::uint64_t* pb = &data_[b * words_per_row_];
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      pa[w] |= pb[w];
    }
  }

 private:
  std::size_t words_per_row_;
  std::vector<std::uint64_t> data_;
};

/// Stable counting sort of `count` items into CSR rows over `rows` keys:
/// place(position, k) puts item k at its sorted position. Returns the
/// rows + 1 row offsets. Items keep their relative order within a row.
template <class Key, class Place>
std::vector<std::int32_t> counting_sort(std::size_t count, std::size_t rows,
                                        Key key, Place place) {
  AAPC_REQUIRE(count <= static_cast<std::size_t>(
                            std::numeric_limits<std::int32_t>::max()),
               "sync plan of " << count << " edges is too large to index");
  // begin[r] counts row r, then (prefix sums) ends it; the backward
  // scatter leaves it at the row's start, and begin[rows] at the total.
  std::vector<std::int32_t> begin(rows + 1, 0);
  for (std::size_t k = 0; k < count; ++k) ++begin[key(k)];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  for (std::size_t k = count; k-- > 0;) {
    place(static_cast<std::size_t>(--begin[key(k)]), k);
  }
  return begin;
}

void require_edge_in_range(const SyncEdge& e, std::int64_t message_count) {
  AAPC_REQUIRE(e.from >= 0 && e.to >= 0 && e.from < message_count &&
                   e.to < message_count && e.from < e.to,
               "plan edge out of range or not forward");
}

}  // namespace

SyncPlan build_sync_plan(const topology::Topology& topo,
                         const core::Schedule& schedule,
                         const SyncPlanOptions& options) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  const auto n = static_cast<std::size_t>(schedule.messages.size());
  // A message's phase is its position, so the offsets must partition
  // the arena: start at 0, never decrease, end at the message count.
  const std::vector<std::int64_t>& phase_begin = schedule.phase_begin;
  const bool spans_arena =
      phase_begin.empty()
          ? n == 0
          : phase_begin.front() == 0 &&
                phase_begin.back() == static_cast<std::int64_t>(n);
  AAPC_REQUIRE(spans_arena,
               "schedule phase offsets must run from 0 to the message count "
                   << n);
  AAPC_REQUIRE(std::is_sorted(phase_begin.begin(), phase_begin.end()),
               "schedule phase offsets must never decrease");
  const std::int32_t phases = schedule.phase_count();

  const bool all_pairs =
      options.construction == SyncPlanOptions::Construction::kAllPairs ||
      (options.construction == SyncPlanOptions::Construction::kAuto &&
       n <= 4000);

  // The full dependence graph, staged in one pass. Both constructions
  // emit an edge (i, j) at most once and always with i < j.
  std::vector<SyncEdge> staged;
  std::vector<topology::EdgeId> path;
  if (all_pairs) {
    // Path bitmask per message over directed edges. Built only on this
    // branch: at n messages and E directed edges it costs n*E bits —
    // ~20 GB for a 4096-rank schedule — while the edge-chain
    // construction below never needs it.
    BitRows paths(n, static_cast<std::size_t>(topo.directed_edge_count()));
    for (std::size_t i = 0; i < n; ++i) {
      const core::Message& m = schedule.messages[i];
      topo.path_into(topo.machine_node(m.src), topo.machine_node(m.dst),
                     path);
      for (const topology::EdgeId e : path) {
        paths.set(i, static_cast<std::size_t>(e));
      }
    }
    // Full dependence graph (§5): edge i -> j for i < j in phase order
    // when the paths intersect and the phases differ, so j starts at
    // the phase after i's. (Intra-phase pairs are contention-free by
    // construction.)
    for (std::int32_t p = 0; p < phases; ++p) {
      const auto later = static_cast<std::size_t>(phase_begin[p + 1]);
      for (auto i = static_cast<std::size_t>(phase_begin[p]); i < later;
           ++i) {
        for (std::size_t j = later; j < n; ++j) {
          if (paths.rows_intersect(i, j)) {
            staged.push_back(SyncEdge{static_cast<std::int32_t>(i),
                                      static_cast<std::int32_t>(j)});
          }
        }
      }
    }
  } else {
    // Scalable construction: per directed edge, chain consecutive users
    // in message (= phase) order. Orders exactly the same pairs
    // transitively as the all-pairs graph. A message's predecessors
    // come from its own path, so deduplicating edges that arise from
    // several shared links needs only a path-length buffer.
    std::vector<std::int32_t> last_user(
        static_cast<std::size_t>(topo.directed_edge_count()), -1);
    std::vector<std::int32_t> preds;
    staged.reserve(n);
    for (std::int32_t p = 0; p < phases; ++p) {
      // A last user at or past this phase's first message shares j's
      // phase.
      const auto same_phase = static_cast<std::int32_t>(phase_begin[p]);
      for (auto j = static_cast<std::size_t>(phase_begin[p]);
           j < static_cast<std::size_t>(phase_begin[p + 1]); ++j) {
        const core::Message& m = schedule.messages[j];
        topo.path_into(topo.machine_node(m.src), topo.machine_node(m.dst),
                       path);
        preds.clear();
        for (const topology::EdgeId e : path) {
          const std::int32_t i = last_user[static_cast<std::size_t>(e)];
          last_user[static_cast<std::size_t>(e)] =
              static_cast<std::int32_t>(j);
          if (i < 0 || i >= same_phase) continue;
          if (std::find(preds.begin(), preds.end(), i) == preds.end()) {
            preds.push_back(i);
            staged.push_back(SyncEdge{i, static_cast<std::int32_t>(j)});
          }
        }
      }
    }
  }
  SyncPlan plan;
  plan.edges_before_reduction = static_cast<std::int64_t>(staged.size());

  // Group by source into CSR successor rows. Each construction stages a
  // source's edges in ascending target order, so the stable sort leaves
  // the whole graph sorted by (from, to).
  std::vector<SyncEdge> graph(staged.size());
  const std::vector<std::int32_t> succ_begin = counting_sort(
      staged.size(), n,
      [&](std::size_t k) { return static_cast<std::size_t>(staged[k].from); },
      [&](std::size_t position, std::size_t k) {
        graph[position] = staged[k];
      });
  staged = {};

  // The bitset reduction is O(n^2) bits of memory; for very large
  // schedules the edge-chain construction is already near-minimal, so
  // skip the reduction there rather than allocating gigabytes.
  const bool reduce = options.remove_redundant && n > 0 && n <= 20000;
  if (reduce) {
    auto successors = [&](std::size_t i) {
      return std::span<const SyncEdge>(graph.data() + succ_begin[i],
                                       graph.data() + succ_begin[i + 1]);
    };
    // reach[i] = vertices reachable from i via >= 1 edge. Processing in
    // reverse index order works because all edges go forward in index.
    BitRows reach(n, n);
    for (std::size_t i = n; i-- > 0;) {
      for (const SyncEdge& e : successors(i)) {
        reach.set(i, static_cast<std::size_t>(e.to));
        reach.merge_into(i, static_cast<std::size_t>(e.to));
      }
    }
    // Edge (i, j) is redundant iff some other direct successor v of i
    // reaches j (then i -> v -> ... -> j orders the pair without it).
    for (std::size_t i = 0; i < n; ++i) {
      for (const SyncEdge& e : successors(i)) {
        bool redundant = false;
        for (const SyncEdge& v : successors(i)) {
          if (v.to != e.to && reach.test(static_cast<std::size_t>(v.to),
                                         static_cast<std::size_t>(e.to))) {
            redundant = true;
            break;
          }
        }
        if (!redundant) plan.edges.push_back(e);
      }
    }
  } else {
    plan.edges = std::move(graph);
  }

  for (const SyncEdge& e : plan.edges) {
    if (schedule.messages[static_cast<std::size_t>(e.from)].src !=
        schedule.messages[static_cast<std::size_t>(e.to)].src) {
      ++plan.cross_node_edges;
    }
  }
  return plan;
}

PlanAnalysis analyze_plan(const SyncPlan& plan,
                          std::int64_t message_count) {
  PlanAnalysis analysis;
  if (message_count <= 0) return analysis;
  const auto n = static_cast<std::size_t>(message_count);
  std::vector<std::int32_t> in_degree(n, 0);
  std::vector<std::int32_t> out_degree(n, 0);
  // Longest chain: edges go forward in message index, so one pass of
  // dynamic programming over edges sorted by source suffices.
  std::vector<std::int32_t> depth(n, 1);
  for (const SyncEdge& e : plan.edges) {
    require_edge_in_range(e, message_count);
    ++out_degree[static_cast<std::size_t>(e.from)];
    ++in_degree[static_cast<std::size_t>(e.to)];
  }
  for (const SyncEdge& e : plan.edges) {
    depth[static_cast<std::size_t>(e.to)] =
        std::max(depth[static_cast<std::size_t>(e.to)],
                 depth[static_cast<std::size_t>(e.from)] + 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    analysis.critical_path_messages =
        std::max(analysis.critical_path_messages, depth[i]);
    analysis.max_in_degree = std::max(analysis.max_in_degree, in_degree[i]);
    analysis.max_out_degree =
        std::max(analysis.max_out_degree, out_degree[i]);
  }
  analysis.avg_degree =
      static_cast<double>(plan.edges.size()) / static_cast<double>(n);
  return analysis;
}

PlanAdjacency build_adjacency(const SyncPlan& plan,
                              std::int64_t message_count) {
  AAPC_REQUIRE(message_count >= 0, "negative message count");
  for (const SyncEdge& e : plan.edges) {
    require_edge_in_range(e, message_count);
  }
  const std::vector<SyncEdge>& edges = plan.edges;
  const auto n = static_cast<std::size_t>(message_count);
  PlanAdjacency adjacency;
  adjacency.in_edges.resize(edges.size());
  adjacency.out_edges.resize(edges.size());
  adjacency.in_begin = counting_sort(
      edges.size(), n,
      [&](std::size_t k) { return static_cast<std::size_t>(edges[k].to); },
      [&](std::size_t position, std::size_t k) {
        adjacency.in_edges[position] = static_cast<std::int32_t>(k);
      });
  adjacency.out_begin = counting_sort(
      edges.size(), n,
      [&](std::size_t k) { return static_cast<std::size_t>(edges[k].from); },
      [&](std::size_t position, std::size_t k) {
        adjacency.out_edges[position] = static_cast<std::int32_t>(k);
      });
  return adjacency;
}

}  // namespace aapc::sync
