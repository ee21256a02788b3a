// Schedule data model: the output of the paper's scheduling algorithm.
//
// A Schedule partitions the AAPC pattern {u → v : u ≠ v} into *phases*
// (contention-free sets of messages, §3). Messages are identified by
// machine rank; the topology maps ranks back to tree nodes.
//
// Layout: one flat phase-major arena (`messages`) indexed by CSR-style
// offsets (`phase_begin`), in the style of the simnet arena rework. The
// old per-phase vector-of-vectors doubled memory and cost one heap
// allocation per phase — ~4M allocations at 4096 ranks, where the
// schedule holds |M|(|M|−1) ≈ 16.7M messages over ≈ 4.19M phases.
// A message's phase is where it sits: the p with phase_begin[p] <= i <
// phase_begin[p+1]. Nothing else is stored per message, so the arena
// is 8 bytes a message (134 MB at 4096 ranks).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aapc/topology/topology.hpp"

namespace aapc::core {

using topology::Rank;

/// One point-to-point transfer u → v between machine ranks.
struct Message {
  Rank src = -1;
  Rank dst = -1;

  friend bool operator==(const Message&, const Message&) = default;
  friend auto operator<=>(const Message&, const Message&) = default;
};
static_assert(sizeof(Message) == 8, "the schedule arena holds 8-byte messages");

/// The collective operation a schedule realizes. The phase-scheduling
/// pipeline (decompose → assign / greedy → sync plan → lowering →
/// executor) is collective-agnostic; the kind names the message
/// multiset a schedule must cover and the bandwidth bound it is judged
/// against (core/collectives.hpp). Values are the netd wire encoding
/// (docs/FORMATS.md §4, v3 request frames) — append only.
enum class CollectiveKind : std::uint8_t {
  kAlltoall = 0,       // complete personalized exchange (the paper's AAPC)
  kAllgather = 1,      // every rank's block to every rank (DFS-ring pipeline)
  kReduceScatter = 2,  // allgather's dual: reverse DFS-ring pipeline
  kSparseAlltoall = 3, // personalized exchange over per-rank neighbor sets
};

/// Wire/metrics name of a kind ("alltoall", "allgather",
/// "reduce_scatter", "sparse_alltoall").
const char* collective_kind_name(CollectiveKind kind);

/// Inverse of collective_kind_name; throws InvalidArgument on an
/// unknown name.
CollectiveKind parse_collective_kind(std::string_view name);

/// Whether a raw byte (wire field, fuzzed input) names a valid kind.
bool collective_kind_valid(std::uint8_t raw);

/// The messages of one phase: a view into the Schedule's arena.
using PhaseSpan = std::span<const Message>;

/// The phase-partitioned AAPC schedule.
struct Schedule {
  /// All scheduled messages in (phase, insertion) order — the arena.
  std::vector<Message> messages;

  /// CSR offsets: phase p occupies messages[phase_begin[p],
  /// phase_begin[p+1]). Size phase_count()+1; empty means no phases.
  std::vector<std::int64_t> phase_begin;

  /// The collective the message multiset realizes. Builders stamp it
  /// (build_aapc_schedule → kAlltoall, the collectives.hpp builders
  /// their own kind); relabel_schedule preserves it.
  CollectiveKind kind = CollectiveKind::kAlltoall;

  std::int32_t phase_count() const {
    return phase_begin.empty()
               ? 0
               : static_cast<std::int32_t>(phase_begin.size()) - 1;
  }
  std::int64_t message_count() const {
    return static_cast<std::int64_t>(messages.size());
  }

  /// The messages of phase p (phase-insertion order).
  PhaseSpan phase(std::int32_t p) const;
  std::int64_t phase_size(std::int32_t p) const;

  /// The phase holding messages[i]: a binary search over phase_begin.
  std::int32_t phase_of(std::int64_t i) const;

  /// Builds a Schedule from the legacy phase-list shape, for tests that
  /// splice phases.
  static Schedule from_phase_lists(
      const std::vector<std::vector<Message>>& lists);

  /// The legacy phase-list shape, for tests that splice phases.
  std::vector<std::vector<Message>> phase_lists() const;

  /// Renders "phase p: a->b, c->d" lines for diagnostics and examples.
  std::string to_string(const topology::Topology& topo) const;
};

/// Accumulates (phase, message) pairs in emission order, then indexes
/// them into a Schedule. The shared builder for the §4 assignment, the
/// greedy scheduler, and benches.
class ScheduleBuilder {
 public:
  ScheduleBuilder() = default;

  void reserve(std::int64_t message_capacity) {
    staged_.reserve(static_cast<std::size_t>(message_capacity));
    phases_.reserve(static_cast<std::size_t>(message_capacity));
  }

  void add(std::int64_t phase, Rank src, Rank dst);

  std::int64_t staged_count() const {
    return static_cast<std::int64_t>(staged_.size());
  }

  /// Finalizes into a Schedule over phases [0, total_phases): a stable
  /// counting sort by phase, so ties keep their staged order.
  Schedule build(std::int64_t total_phases) &&;

 private:
  std::vector<Message> staged_;
  std::vector<std::int32_t> phases_;  // phases_[k] is staged_[k]'s phase
};

/// Rewrites every rank in `schedule` through `perm`: a message u → v
/// becomes perm[u] → perm[v], preserving phase structure and ordering.
/// `perm` must be a permutation of [0, |ranks|) covering every rank the
/// schedule mentions. This is how the schedule-compilation
/// service maps a schedule compiled on a canonical topology back into the
/// caller's rank labeling (service/canonical.hpp): when `perm` is induced
/// by a tree isomorphism, relabeling preserves contention-freeness.
Schedule relabel_schedule(const Schedule& schedule,
                          const std::vector<Rank>& perm);

/// Inverse of a permutation: result[perm[i]] = i. Validates that `perm`
/// is a bijection on [0, perm.size()).
std::vector<Rank> invert_permutation(const std::vector<Rank>& perm);

}  // namespace aapc::core
