#include "aapc/core/verify.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <iterator>
#include <sstream>
#include <utility>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"

namespace aapc::core {

namespace {

using topology::EdgeId;

/// Every rank's up-edges, root first: row r holds, for each node x on
/// the way from r's machine up to the root, the edge x -> parent(x) at
/// index depth(x) - 1. Two rows agree exactly on the prefix above the
/// ranks' lowest common ancestor, so a path is the rest of both rows.
class PathTable {
 public:
  explicit PathTable(const topology::Topology& topo) : topo_(topo) {
    const std::int32_t machines = topo.machine_count();
    begin_.assign(static_cast<std::size_t>(machines) + 1, 0);
    for (Rank r = 0; r < machines; ++r) {
      begin_[static_cast<std::size_t>(r) + 1] =
          begin_[static_cast<std::size_t>(r)] +
          topo.depth(topo.machine_node(r));
    }
    up_.resize(static_cast<std::size_t>(begin_.back()));
    for (Rank r = 0; r < machines; ++r) {
      topology::NodeId x = topo.machine_node(r);
      for (std::int32_t d = topo.depth(x); d > 0; --d) {
        const topology::NodeId parent = topo.parent(x);
        up_[static_cast<std::size_t>(begin_[static_cast<std::size_t>(r)] +
                                     d - 1)] = topo.edge_between(x, parent);
        x = parent;
      }
    }
  }

  /// Calls visit(e) for each edge of the path from `src`'s machine to
  /// `dst`'s, in Topology::path order: up to the common ancestor, then
  /// down.
  template <typename Visit>
  void for_each_edge(Rank src, Rank dst, Visit&& visit) const {
    const auto s = static_cast<std::size_t>(src);
    const auto d = static_cast<std::size_t>(dst);
    const EdgeId* up = up_.data() + begin_[s];
    const EdgeId* down = up_.data() + begin_[d];
    const std::int64_t up_length = begin_[s + 1] - begin_[s];
    const std::int64_t down_length = begin_[d + 1] - begin_[d];
    const std::int64_t shorter = std::min(up_length, down_length);
    std::int64_t common = 0;
    while (common < shorter && up[common] == down[common]) ++common;
    for (std::int64_t i = up_length; i > common;) visit(up[--i]);
    for (std::int64_t i = common; i < down_length; ++i) {
      visit(topo_.reverse(down[i]));
    }
  }

 private:
  const topology::Topology& topo_;
  std::vector<std::int64_t> begin_;  // row offsets, size |M| + 1
  std::vector<EdgeId> up_;
};

/// Per-edge usage tracker with epoch stamping: each slot holds
/// (phase + 1) << 32 | uses in that phase, so moving to the next phase
/// costs nothing instead of an O(E) fill, which made whole-schedule
/// checks O(P * E) — minutes at 4096 ranks, where P is ~4M and E ~10k.
class EdgeUse {
 public:
  explicit EdgeUse(std::int32_t edges)
      : slot_(static_cast<std::size_t>(edges), 0) {}

  /// Registers one use of `e` in phase `p`; returns the in-phase count.
  std::int32_t use(EdgeId e, std::int32_t p) {
    std::uint64_t& slot = slot_[static_cast<std::size_t>(e)];
    const std::uint64_t stamp = static_cast<std::uint64_t>(p + 1) << 32;
    slot = (slot & ~kUses) == stamp ? slot + 1 : stamp + 1;
    return static_cast<std::int32_t>(slot & kUses);
  }

 private:
  static constexpr std::uint64_t kUses = 0xffffffffu;
  std::vector<std::uint64_t> slot_;
};

/// What the kernel does with a message that is not a proper one, and
/// with a shared edge.
enum class Check : std::uint8_t {
  kAapc,     // verify_schedule: a self message is a violation; covers pairs
  kPattern,  // verify_schedule_pattern: a self message is malformed
  kRequire,  // require_contention_free: the first shared edge throws
};

struct RangeReport {
  std::vector<std::string> violations;
  std::int32_t max_edge_multiplicity = 0;
  bool repeated_pair = false;  // a coverage bit was already set
};

/// The condition-(2) kernel over phases [first, last), one pass with
/// its own edge counters. Under kAapc it also sets each pair's bit in
/// `covered`, atomically when other ranges share the matrix.
template <Check kCheck>
void check_phases(const topology::Topology& topo, const PathTable& paths,
                  const Schedule& schedule, std::int32_t first,
                  std::int32_t last, std::uint64_t* covered, bool shared,
                  RangeReport& out) {
  const std::int32_t machines = topo.machine_count();
  EdgeUse edge_use(topo.directed_edge_count());
  // Kept local until the end: ranges' reports share cache lines.
  std::int32_t max_use = 0;
  bool repeated_pair = false;
  for (std::int32_t p = first; p < last; ++p) {
    for (const Message& m : schedule.phase(p)) {
      const bool in_range =
          m.src >= 0 && m.src < machines && m.dst >= 0 && m.dst < machines;
      if constexpr (kCheck == Check::kAapc) {
        AAPC_REQUIRE(in_range, "message rank out of range in phase " << p);
        if (m.src == m.dst) {
          out.violations.push_back(
              str_cat("self message ", m.src, "->", m.dst, " in phase ", p));
          continue;
        }
        const std::uint64_t pair =
            static_cast<std::uint64_t>(m.src) * machines + m.dst;
        const std::uint64_t bit = std::uint64_t{1} << (pair & 63);
        std::uint64_t& word = covered[pair >> 6];
        const std::uint64_t before =
            shared ? std::atomic_ref<std::uint64_t>(word).fetch_or(
                         bit, std::memory_order_relaxed)
                   : std::exchange(word, word | bit);
        if (before & bit) repeated_pair = true;
      } else if constexpr (kCheck == Check::kPattern) {
        AAPC_REQUIRE(in_range && m.src != m.dst,
                     "message rank out of range in phase " << p);
      } else {
        AAPC_REQUIRE(in_range && m.src != m.dst,
                     "malformed message " << m.src << "->" << m.dst
                                          << " in phase " << p);
      }
      paths.for_each_edge(m.src, m.dst, [&](EdgeId e) {
        const std::int32_t use = edge_use.use(e, p);
        if constexpr (kCheck == Check::kRequire) {
          AAPC_REQUIRE(use <= 1,
                       "schedule is not contention-free: phase "
                           << p << " sends multiple messages over edge "
                           << topo.name(topo.edge_source(e)) << "->"
                           << topo.name(topo.edge_target(e))
                           << " (corrupted or mis-repaired schedule?)");
        } else {
          max_use = std::max(max_use, use);
          if (use == 2) {
            out.violations.push_back(str_cat(
                "phase ", p, ": edge ", topo.name(topo.edge_source(e)), "->",
                topo.name(topo.edge_target(e)), " carries multiple messages"));
          }
        }
      });
    }
  }
  out.max_edge_multiplicity = max_use;
  out.repeated_pair = repeated_pair;
}

/// Runs the kernel over every phase: as one inline range, or, with a
/// runner and above kTaskGrain messages, as ranges of about
/// max(kTaskGrain, messages / 32) messages each, one task per range.
/// Range reports join in phase order, and the first failure in phase
/// order is rethrown, so the result never depends on the runner.
template <Check kCheck>
RangeReport check_schedule(const topology::Topology& topo,
                           const PathTable& paths, const Schedule& schedule,
                           const TaskRunner& runner,
                           std::uint64_t* covered = nullptr) {
  const std::int32_t phases = schedule.phase_count();
  const std::int64_t messages = phases == 0 ? 0 : schedule.phase_begin.back();
  std::vector<std::int32_t> cuts{0};
  if (runner && messages > kTaskGrain) {
    const std::int64_t target = std::max(kTaskGrain, messages / 32);
    for (std::int64_t want = target; want < messages; want += target) {
      // The first phase that starts at or past `want` messages.
      const auto p = static_cast<std::int32_t>(
          std::lower_bound(schedule.phase_begin.begin(),
                           schedule.phase_begin.end() - 1, want) -
          schedule.phase_begin.begin());
      if (p > cuts.back() && p < phases) cuts.push_back(p);
    }
  }
  cuts.push_back(phases);

  std::vector<RangeReport> ranges(cuts.size() - 1);
  run_jobs(
      runner, ranges.size(),
      [&](std::size_t r) {
        check_phases<kCheck>(topo, paths, schedule, cuts[r], cuts[r + 1],
                             covered, ranges.size() > 1, ranges[r]);
      },
      "schedule verification");
  RangeReport joined;
  for (RangeReport& range : ranges) {
    joined.max_edge_multiplicity =
        std::max(joined.max_edge_multiplicity, range.max_edge_multiplicity);
    joined.repeated_pair = joined.repeated_pair || range.repeated_pair;
    joined.violations.insert(joined.violations.end(),
                             std::make_move_iterator(range.violations.begin()),
                             std::make_move_iterator(range.violations.end()));
  }
  return joined;
}

VerifyReport report_of(RangeReport checked) {
  VerifyReport report;
  report.ok = checked.violations.empty();
  report.violations = std::move(checked.violations);
  report.max_edge_multiplicity = checked.max_edge_multiplicity;
  return report;
}

void violate(VerifyReport& report, std::string text) {
  report.ok = false;
  report.violations.push_back(std::move(text));
}

}  // namespace

std::string VerifyReport::summary() const {
  if (ok) return "schedule OK";
  std::ostringstream os;
  os << violations.size() << " violation(s):";
  for (const std::string& v : violations) os << "\n  " << v;
  return os.str();
}

VerifyReport verify_schedule(const topology::Topology& topo,
                             const Schedule& schedule,
                             const VerifyOptions& options,
                             const TaskRunner& runner) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  const std::int32_t machines = topo.machine_count();

  // (2) intra-phase contention, recording (1)'s coverage on the way.
  const auto pairs = static_cast<std::size_t>(machines) * machines;
  std::vector<std::uint64_t> covered((pairs + 63) / 64, 0);
  RangeReport checked = check_schedule<Check::kAapc>(
      topo, PathTable(topo), schedule, runner, covered.data());
  const bool repeated_pair = checked.repeated_pair;
  VerifyReport report = report_of(std::move(checked));

  // (1) exact coverage of the AAPC pattern. The diagonal is never set,
  // so with no pair repeated, |M|(|M|-1) set bits mean every pair
  // appears exactly once. Otherwise recount exactly, to name each pair.
  std::int64_t set = 0;
  for (const std::uint64_t word : covered) set += std::popcount(word);
  if (repeated_pair ||
      set != static_cast<std::int64_t>(machines) * (machines - 1)) {
    std::vector<std::int32_t> seen(pairs, 0);
    for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
      for (const Message& m : schedule.phase(p)) {
        if (m.src != m.dst) {
          seen[static_cast<std::size_t>(m.src) * machines + m.dst] += 1;
        }
      }
    }
    for (std::int32_t s = 0; s < machines; ++s) {
      for (std::int32_t d = 0; d < machines; ++d) {
        if (s == d) continue;
        const std::int32_t count =
            seen[static_cast<std::size_t>(s) * machines + d];
        if (count != 1) {
          violate(report, str_cat("message ", s, "->", d, " appears ", count,
                                  " times (want 1)"));
        }
      }
    }
  }

  // (3) optimal phase count: the peak bound P = |M0|*(|M|-|M0|) =
  // aapc_load survives any construction, flat or hierarchical.
  if (options.require_optimal_phase_count && machines >= 2) {
    const std::int64_t load = topo.aapc_load();
    if (schedule.phase_count() != load) {
      violate(report, str_cat("phase count ", schedule.phase_count(),
                              " != AAPC load ", load));
    }
  }
  return report;
}

VerifyReport verify_schedule_pattern(const topology::Topology& topo,
                                     const Schedule& schedule,
                                     const std::vector<Message>& expected,
                                     const VerifyOptions& options,
                                     const TaskRunner& runner) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  const std::int32_t machines = topo.machine_count();
  std::vector<std::int64_t> want(
      static_cast<std::size_t>(machines) * machines, 0);
  for (const Message& m : expected) {
    AAPC_REQUIRE(m.src >= 0 && m.src < machines && m.dst >= 0 &&
                     m.dst < machines && m.src != m.dst,
                 "malformed expected message");
    want[static_cast<std::size_t>(m.src) * machines + m.dst] += 1;
  }

  // (2) intra-phase contention; the kernel also rejects malformed
  // messages, so the counts below index in range.
  const PathTable paths(topo);
  VerifyReport report = report_of(
      check_schedule<Check::kPattern>(topo, paths, schedule, runner));

  // (1) multiset coverage: scheduled counts == expected counts per pair.
  std::vector<std::int64_t> have(want.size(), 0);
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    for (const Message& m : schedule.phase(p)) {
      have[static_cast<std::size_t>(m.src) * machines + m.dst] += 1;
    }
  }
  for (std::int32_t s = 0; s < machines; ++s) {
    for (std::int32_t d = 0; d < machines; ++d) {
      const std::size_t index = static_cast<std::size_t>(s) * machines + d;
      if (have[index] != want[index]) {
        violate(report, str_cat("message ", s, "->", d, " scheduled ",
                                have[index], " times (pattern wants ",
                                want[index], ")"));
      }
    }
  }

  if (options.require_optimal_phase_count) {
    // For arbitrary patterns the lower bound is the pattern load.
    std::vector<std::int64_t> edge_load(
        static_cast<std::size_t>(topo.directed_edge_count()), 0);
    for (const Message& m : expected) {
      paths.for_each_edge(m.src, m.dst, [&](EdgeId e) {
        edge_load[static_cast<std::size_t>(e)] += 1;
      });
    }
    std::int64_t load = 0;
    for (const std::int64_t l : edge_load) load = std::max(load, l);
    if (schedule.phase_count() < load) {
      violate(report, str_cat("phase count ", schedule.phase_count(),
                              " below the pattern load ", load,
                              " — the schedule cannot be contention-free"));
    }
  }
  return report;
}

void require_contention_free(const topology::Topology& topo,
                             const Schedule& schedule,
                             const TaskRunner& runner) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  check_schedule<Check::kRequire>(topo, PathTable(topo), schedule, runner);
}

}  // namespace aapc::core
