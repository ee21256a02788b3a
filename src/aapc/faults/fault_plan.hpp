// Deterministic fault plans: scripted timelines of link and node
// faults injected into the simulation stack end to end.
//
// A FaultPlan is pure data — a list of (time, event) records — so a
// given plan plus the executor's seeds reproduces a run bit for bit.
// Link events are scripted in *plan link space*: either topology
// LinkIds directly (plain trees, the identity mapping) or bridge-link
// indices of a stp::BridgeNetwork, translated onto whichever spanning
// tree is in force via SpanningTree::link_of_bridge_link (see
// compile()'s link_map). That translation is what lets one physical
// fault timeline follow a schedule across a repair re-election.
//
// compile() lowers a plan to the executor's generic fault primitives:
// simnet::LinkCapacityEvent (time-varying capacities) and
// mpisim::RankFault (straggler slowdown, crash-stop), plus
// human-readable FaultMarkers for the Chrome trace.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "aapc/common/units.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/simnet/params.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::faults {

using topology::Rank;

enum class FaultKind : std::uint8_t {
  kLinkDegrade,   // link capacity := factor * nominal
  kLinkDown,      // link capacity := 0
  kLinkUp,        // link capacity := nominal (restoration)
  kNodeSlowdown,  // rank CPU-time costs *= factor, from `when` on
  kNodeCrash,     // rank crash-stops at `when`
};

/// One scripted event. Use the named constructors; only the fields
/// relevant to `kind` are meaningful.
struct FaultEvent {
  FaultKind kind = FaultKind::kLinkDegrade;
  SimTime when = 0;
  /// Link events: index in plan link space (see file comment).
  std::int32_t link = -1;
  /// Node events: machine rank.
  Rank rank = -1;
  /// kLinkDegrade: remaining capacity fraction in (0, 1];
  /// kNodeSlowdown: CPU-time multiplier >= 1.
  double factor = 1.0;

  static FaultEvent link_degrade(SimTime when, std::int32_t link,
                                 double fraction);
  static FaultEvent link_down(SimTime when, std::int32_t link);
  static FaultEvent link_up(SimTime when, std::int32_t link);
  static FaultEvent node_slowdown(SimTime when, Rank rank, double multiplier);
  static FaultEvent node_crash(SimTime when, Rank rank);

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// A scripted fault timeline. Events may be added in any order;
/// consumers see them time-sorted (stable among equal times).
struct FaultPlan {
  std::vector<FaultEvent> events;

  FaultPlan& add(const FaultEvent& event) {
    events.push_back(event);
    return *this;
  }
  bool empty() const { return events.empty(); }

  /// Time of the earliest event (the fault onset); 0 for an empty plan.
  SimTime onset() const;

  /// Throws InvalidArgument on malformed events (negative time, bad
  /// ids, factors out of range).
  void validate() const;

  /// Validated, time-sorted copy (stable among equal times).
  FaultPlan sorted() const;
};

/// Executor-ready lowering of a plan.
struct CompiledFaults {
  std::vector<simnet::LinkCapacityEvent> capacity_events;
  std::vector<mpisim::RankFault> rank_faults;
  std::vector<mpisim::FaultMarker> markers;

  /// Appends the compiled faults onto executor params.
  void apply(mpisim::ExecutorParams& params) const;
};

/// Compiles `plan` for a network of `link_count` physical links with
/// nominal capacities from `params`. `link_map` translates plan link
/// indices to topology LinkIds — pass SpanningTree::link_of_bridge_link
/// for plans scripted against bridge links; events whose link maps to
/// -1 (blocked / not in this tree) are dropped. An empty map is the
/// identity (plan links ARE topology links).
CompiledFaults compile(const FaultPlan& plan,
                       const simnet::NetworkParams& params,
                       std::int32_t link_count,
                       const std::vector<std::int32_t>& link_map = {});

/// Plan-space link state at time `t`: capacity fraction per plan link
/// (1 = nominal, 0 = down), from replaying link events with when <= t.
std::vector<double> link_factors_at(const FaultPlan& plan, SimTime t,
                                    std::int32_t link_count);

/// Ranks whose crash time is <= t, ascending.
std::vector<Rank> ranks_crashed_at(const FaultPlan& plan, SimTime t);

/// The culprits a plan injects, for closed-loop verification against
/// flight::analyze() verdicts: which links end up degraded (factor in
/// (0, 1)) or down (factor 0) once the whole timeline has played out,
/// and which ranks straggle or crash. Links are in plan link space —
/// map through the same link_map handed to compile() when comparing
/// against topology LinkIds.
struct FaultSummary {
  std::vector<std::int32_t> degraded_links;
  std::vector<std::int32_t> down_links;
  std::vector<Rank> straggler_ranks;
  std::vector<Rank> crashed_ranks;
};

/// Summarizes the plan's end state over `link_count` plan links (all
/// vectors sorted ascending, deduplicated).
FaultSummary summarize(const FaultPlan& plan, std::int32_t link_count);

/// JSON round-trip:
///   {"events":[
///     {"kind":"link_degrade","time_ms":120.0,"link":3,"factor":0.5},
///     {"kind":"link_down","time_ms":10,"link":0},
///     {"kind":"link_up","time_ms":50,"link":0},
///     {"kind":"node_slowdown","time_ms":0,"rank":2,"factor":3.0},
///     {"kind":"node_crash","time_ms":80,"rank":1}]}
/// "link" and "rank" are integer literals within int32 (common/json.hpp:
/// 3.0 and 3e0 are not integers); the reader throws InvalidArgument on
/// malformed input and validates the plan.
std::string fault_plan_to_json(const FaultPlan& plan);
FaultPlan fault_plan_from_json(std::string_view json);

}  // namespace aapc::faults
