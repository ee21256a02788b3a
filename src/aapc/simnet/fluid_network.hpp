// Event-driven fluid-flow model of a switched-Ethernet tree.
//
// Every in-flight message is a *flow* over the directed edges of its
// tree path. At any instant, flow rates are the max-min fair allocation
// of each directed edge's effective bandwidth among the flows crossing
// it (progressive filling). This is the standard fluid abstraction of
// per-connection TCP bandwidth sharing on switched Ethernet and captures
// exactly the phenomenon the paper schedules around: a contention-free
// phase runs every flow at full link rate, while contending flows split
// the bottleneck.
//
// The network only advances time forward (advance_to) and reports the
// earliest flow completion (next_completion); the mpisim executor owns
// the event loop.
//
// Hot-path data structures (see docs/SIMULATOR.md, "Complexity & data
// structures"): a rate recomputation refills only the flows reachable
// from the rows an event changed, through rows that can bind, and
// every other flow keeps its rate; the filling scans only rows that can
// bind and discovers bottleneck flows through per-row flow lists;
// pending activations live in a min-heap; the earliest completion is
// cached once per rate recomputation.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "aapc/common/units.hpp"
#include "aapc/simnet/params.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::simnet {

using FlowId = std::int64_t;
inline constexpr FlowId kInvalidFlow = -1;
inline constexpr SimTime kNever = std::numeric_limits<double>::infinity();

/// Aggregate transfer statistics, for utilization reporting.
struct NetworkStats {
  /// Payload bytes carried per directed edge.
  std::vector<double> edge_bytes;
  /// Number of max-min rate recomputations performed.
  std::int64_t rate_recomputations = 0;
  /// Flows put through progressive filling, summed over recomputations:
  /// the active flows of a full refill, the reached flows of a local
  /// one (a local refill redone in full counts both).
  std::int64_t refilled_flows = 0;
  /// Completed flows.
  std::int64_t completed_flows = 0;
  /// Peak number of simultaneously active flows (a direct measure of
  /// how much an algorithm floods the network).
  std::int64_t max_concurrent_flows = 0;
  /// Flows that entered the pending-activation heap (added with a
  /// future start time rather than activating immediately).
  std::int64_t pending_heap_pushes = 0;
  /// Link-capacity changes applied (immediate + scheduled fault events).
  std::int64_t capacity_changes = 0;
  /// Flows canceled before completion (executor watchdog retries).
  std::int64_t canceled_flows = 0;
  /// High-water mark of the active-row set: the most capacity rows that
  /// simultaneously carried at least one flow. Progressive filling is
  /// linear in this, not in the topology size.
  std::int64_t max_active_rows = 0;
  /// Flows that activated (began moving bytes), immediately or from the
  /// pending heap. completed + canceled <= activated.
  std::int64_t flows_activated = 0;
  /// Integral over time of the active-row count (sum of dt * |active
  /// rows| per drain step, O(1) per event). Divided by elapsed time it
  /// is the mean number of simultaneously busy capacity rows — a
  /// one-number congestion measure of the whole run.
  double busy_row_seconds = 0;
};

class FluidNetwork {
 public:
  FluidNetwork(const topology::Topology& topo, const NetworkParams& params);

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Registers a flow of `bytes` from machine node `src` to machine node
  /// `dst`, activating at `start` (>= now()). Zero-length paths (src ==
  /// dst) are invalid — model local copies outside the network.
  FlowId add_flow(topology::NodeId src, topology::NodeId dst, Bytes bytes,
                  SimTime start);

  /// Earliest among pending activations and running-flow completions;
  /// kNever when the network is idle.
  SimTime next_event_time() const;

  /// Advances simulated time, draining flow progress. `when` must be
  /// >= now(). Completions and activations at times <= `when` are
  /// processed in order; completed flow ids are appended to `completed`.
  void advance_to(SimTime when, std::vector<FlowId>& completed);

  /// Number of hops (directed edges) of a flow's path.
  std::int32_t flow_hops(FlowId flow) const;

  /// Allocated rate (bytes/sec) of a flow under the current max-min
  /// allocation; 0 for pending, canceled, or completed flows. A rate of
  /// 0 on an *active* flow means it is stuck behind a down link.
  double flow_rate(FlowId flow) const;

  /// Bytes a flow still has to move: full size while pending, 0 once
  /// completed or canceled.
  double flow_remaining(FlowId flow) const;

  // ---- time-varying link capacities (fault injection) ----

  /// Raw capacity (bytes/sec, pre protocol efficiency) of a physical
  /// link right now.
  double link_capacity(topology::LinkId link) const;

  /// Immediately sets a physical link's raw capacity, both directions
  /// (0 = link down: flows crossing it keep their place but run at rate
  /// 0 until the link recovers or they are canceled). Machine duplex
  /// caps derived from the link are updated as well. Rates are
  /// recomputed lazily, exactly like a flow activation.
  void set_link_capacity(topology::LinkId link, double bytes_per_sec);

  /// Schedules set_link_capacity(link, bytes_per_sec) at `when` >=
  /// now(). Scheduled changes are simulation events: advance_to applies
  /// them in (time, registration order), after completions and
  /// activations at the same instant, and next_event_time() sees them.
  /// A network with no scheduled changes behaves bit-identically to one
  /// built before this API existed.
  void schedule_capacity_change(SimTime when, topology::LinkId link,
                                double bytes_per_sec);

  /// Cancels a flow: a pending flow is dropped; an active flow is
  /// detached with the bytes it already moved credited to its path
  /// edges. Returns false (no-op) when the flow already completed or
  /// was already canceled. Used by the executor's transfer watchdog to
  /// repost timed-out transfers.
  bool cancel_flow(FlowId flow);

  /// True when no flow is pending or running.
  bool idle() const { return active_count_ == 0 && pending_count_ == 0; }

  std::int64_t active_flow_count() const { return active_count_; }

  const NetworkStats& stats() const { return stats_; }

  /// Aggregate payload throughput over [0, now()]: total delivered bytes
  /// divided by elapsed time (bytes/sec).
  double aggregate_throughput() const;

 private:
  /// Plain-data per-flow record. The flow's tree path and constraint
  /// rows are not stored here: they are derived (allocation-free) at
  /// activation time and live in the flat arenas below only while the
  /// flow is active, so memory stays proportional to live flows.
  struct Flow {
    topology::NodeId src = -1;
    topology::NodeId dst = -1;
    /// Total bytes of the transfer. Live progress is tracked in the
    /// dense act_remaining_ array while the flow is active.
    double bytes = 0;
    SimTime start = 0;
    /// Path length (preserved after completion).
    std::int32_t hops = 0;
    /// Index in active_ while active, -1 otherwise.
    std::int64_t active_pos = -1;
    bool active = false;
    bool done = false;
    /// Canceled by cancel_flow(); pending-heap entries of canceled
    /// flows are skipped lazily at pop time.
    bool canceled = false;
  };

  /// A scheduled link-capacity change; `seq` keeps same-instant changes
  /// in registration order (deterministic).
  struct CapacityEvent {
    SimTime when = 0;
    std::int64_t seq = 0;
    topology::LinkId link = -1;
    double capacity = 0;
  };

  /// Earliest internal event: pending-heap top vs cached completion vs
  /// scheduled capacity change. Single source of truth for
  /// next_event_time() and advance_to(). Callers must ensure_rates()
  /// first so next_completion_ is fresh.
  SimTime internal_next_event() const {
    SimTime best = next_completion_;
    if (!pending_heap_.empty() && pending_heap_.front().first < best) {
      best = pending_heap_.front().first;
    }
    if (!capacity_events_.empty() && capacity_events_.front().when < best) {
      best = capacity_events_.front().when;
    }
    return best;
  }

  /// Rates are recomputed lazily: activations/completions only mark
  /// them dirty, so a burst of same-instant topology changes (e.g.
  /// registering a whole phase of flows) costs one progressive-filling
  /// pass instead of one per change. No intermediate rate is observable
  /// because no simulated time passes between the changes. Logically
  /// const: callers with const access (next_event_time) still need
  /// fresh caches.
  void ensure_rates() const {
    if (rates_dirty_) const_cast<FluidNetwork*>(this)->recompute_rates();
  }

  void activate(FlowId id);
  /// Removes an active flow from active_ / row lists and releases its
  /// per-flow path/constraint storage (long sweeps stay O(live flows)),
  /// crediting `credited_bytes` of payload to its path edges — the full
  /// message on completion, the bytes actually moved on cancellation.
  void detach_flow(FlowId id, double credited_bytes);
  /// Applies a link-capacity change now: updates link_capacity_ and the
  /// derived row base capacities (both edge directions plus any machine
  /// duplex row fed by the link) and marks rates dirty.
  void apply_capacity(topology::LinkId link, double bytes_per_sec);
  void compact_cons_pool();
  void recompute_rates();
  /// Refills only the flows reachable from marked rows; false (rates
  /// then undefined) when every flow must be refilled instead.
  bool refill_touched();
  /// Refills every active flow.
  void refill_all();
  /// Max-min filling of unfixed_list_ (ascending active positions) over
  /// the rows in fill_rows_, whose fill scratch must be initialized;
  /// folds the rounds into next_completion_ / completable_now_ and
  /// records each round's level in levels_. Returns true when a round
  /// fixed a row whose share only came within the tie window of its
  /// level.
  bool progressive_fill();
  /// Resets the fill scratch of one active row; returns whether the row
  /// can bind (see bind_limit_).
  bool init_fill_row(std::size_t row);
  void mark_row(std::size_t row) {
    if (!row_marked_[row]) {
      row_marked_[row] = 1;
      marked_rows_.push_back(static_cast<std::int32_t>(row));
    }
  }
  /// B (1 + 1e-6), where B is the largest capacity an edge row can offer
  /// one flow: the largest edge base capacity times the largest
  /// contention efficiency.
  double bind_limit() const;

  /// Min-heap ordering for scheduled capacity changes: earliest first,
  /// registration order among equal times.
  static bool capacity_event_after(const CapacityEvent& a,
                                   const CapacityEvent& b) {
    return a.when > b.when || (a.when == b.when && a.seq > b.seq);
  }

  const topology::Topology& topo_;
  NetworkParams params_;
  SimTime now_ = 0;
  std::vector<Flow> flows_;
  /// Min-heap of (start time, flow id) over not-yet-activated flows.
  std::vector<std::pair<SimTime, FlowId>> pending_heap_;
  std::vector<FlowId> active_;
  /// Hot per-active-flow state, parallel to active_ (structure-of-
  /// arrays): the per-event drain, completion detection, and
  /// next-completion scans touch only these two dense arrays instead of
  /// chasing Flow structs.
  std::vector<double> act_rate_;       // bytes/sec; 0 until first fill
  std::vector<double> act_remaining_;  // bytes
  /// Flat arena of the active flows' constraint rows: entry i of active_
  /// owns the pool slice [act_cons_off_[i], act_cons_off_[i] +
  /// act_cons_len_[i]). Within a slice, likely-bottleneck rows come
  /// first (order is semantically free; it only shortens the
  /// first-match bottleneck scan). The edge rows of a slice are exactly
  /// the flow's path edges.
  /// Progressive filling reads only this compact arena instead of
  /// chasing per-flow heap vectors. act_rpos_pool_ mirrors the layout
  /// with each entry's position in row_flows_[row] (O(1) detach).
  /// Slices of completed flows become garbage; both pools are compacted
  /// (in active_ order) once mostly dead, so memory stays proportional
  /// to live flows.
  std::vector<std::int32_t> act_cons_pool_;
  std::vector<std::int32_t> act_rpos_pool_;
  std::vector<std::int64_t> act_cons_off_;
  std::vector<std::int32_t> act_cons_len_;
  std::int64_t act_cons_live_ = 0;  // live entries in act_cons_pool_
  // Scratch for activation (avoid per-flow allocation).
  std::vector<topology::EdgeId> path_scratch_;
  std::vector<std::int32_t> cons_scratch_;
  std::int64_t active_count_ = 0;
  std::int64_t pending_count_ = 0;
  double total_delivered_bytes_ = 0;
  /// Earliest completion among active flows, computed once per
  /// recompute_rates(). Invariant between recomputations: rates are
  /// constant, so now + remaining/rate does not change as time advances.
  SimTime next_completion_ = kNever;
  /// True when some active flow already satisfies the absolute
  /// remaining <= kTimeEpsilon completion test (e.g. zero-byte flows),
  /// so the completion scan must run even before next_completion_.
  bool completable_now_ = false;
  bool rates_dirty_ = false;
  NetworkStats stats_;

  // Capacity rows: one per directed edge, then one duplex row per
  // machine (rank order). Flow membership per row is maintained
  // incrementally; filling touches only rows with nonzero flow count.
  std::int32_t row_count_ = 0;
  std::vector<std::int32_t> row_flow_count_;
  std::vector<std::vector<FlowId>> row_flows_;
  std::vector<std::int32_t> active_rows_;     // rows with flow count > 0
  std::vector<std::int32_t> row_active_pos_;  // index in active_rows_, -1
  // True for directed edges with a machine endpoint (incast model).
  std::vector<char> edge_is_machine_;
  // Current raw per-link capacities (params overrides applied at
  // construction; fault events mutate entries at runtime). Single O(1)
  // source of truth for every per-link bandwidth read.
  std::vector<double> link_capacity_;
  // Per-row base capacities (before contention scaling): edge rows hold
  // link_capacity_[link] * protocol_efficiency; node rows hold the
  // duplex/fabric caps. Constant between capacity events.
  std::vector<double> row_base_capacity_;
  // Scheduled capacity changes, min-heap by (when, seq).
  std::vector<CapacityEvent> capacity_events_;
  std::int64_t capacity_event_seq_ = 0;
  // Scratch for progressive filling (avoid per-call allocation). Only
  // entries of active rows are meaningful.
  std::vector<double> fill_capacity_;
  std::vector<std::int32_t> fill_count_;
  std::vector<double> fill_share_;  // per-row fair share, round start
  std::vector<char> flow_fixed_;           // indexed by active_ position
  std::vector<char> flow_candidate_;       // indexed by active_ position
  std::vector<std::int64_t> candidates_;   // active_ positions, scratch
  std::vector<std::int64_t> unfixed_list_; // active_ positions, ascending
  std::vector<std::int32_t> bottleneck_rows_;  // scratch per round
  std::vector<std::int32_t> fill_rows_;        // rows the filling scans
  std::vector<double> levels_;                 // per filling round

  // Component-local refills. Rows whose flow count or base capacity
  // changed since the last recomputation are marked; the recomputation
  // refills the flows reachable from them through rows that can bind.
  std::vector<std::int32_t> marked_rows_;
  std::vector<char> row_marked_;
  /// Whether each row could bind when a recomputation last looked at it.
  std::vector<char> row_could_bind_;
  double bind_limit_ = 0;
  /// The next recomputation refills every flow: B changed, or the last
  /// filling fixed a row at a level its own share only came near.
  bool refill_all_next_ = false;
  /// Walk membership: a row or active position belongs to the current
  /// walk when its stamp equals walk_epoch_.
  std::vector<std::uint32_t> row_seen_;
  std::vector<std::uint32_t> flow_seen_;
  std::uint32_t walk_epoch_ = 0;
};

}  // namespace aapc::simnet
