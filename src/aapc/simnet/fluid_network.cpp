#include "aapc/simnet/fluid_network.hpp"

#include <algorithm>
#include <functional>

#include "aapc/common/error.hpp"

namespace aapc::simnet {

namespace {
// Completion/activation times within this window are treated as equal so
// symmetric flows finish in one batch (fewer rate recomputations and no
// artificial ordering from rounding noise).
constexpr double kTimeEpsilon = 1e-12;

// Conservative completion prefilter: if remaining > rate * kPrefilter
// then remaining / rate > kTimeEpsilon under any rounding of the
// division (the slack is ~1e-7 relative, dwarfing the ~1e-16 rounding
// error), so the flow cannot complete and the division is skipped.
constexpr double kPrefilter = kTimeEpsilon * (1.0 + 1e-7);

// Min-heap ordering for (start time, flow id): earliest start first,
// lower flow id first among equal starts.
constexpr auto kPendingOrder =
    std::greater<std::pair<SimTime, FlowId>>{};
}  // namespace

FluidNetwork::FluidNetwork(const topology::Topology& topo,
                           const NetworkParams& params)
    : topo_(topo), params_(params) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  AAPC_REQUIRE(params.link_bandwidth_bytes_per_sec > 0, "bandwidth <= 0");
  AAPC_REQUIRE(params.protocol_efficiency > 0 &&
                   params.protocol_efficiency <= 1.0,
               "protocol efficiency must be in (0, 1]");
  stats_.edge_bytes.assign(
      static_cast<std::size_t>(topo.directed_edge_count()), 0.0);
  row_count_ = topo.directed_edge_count() + topo.node_count();
  const auto rows = static_cast<std::size_t>(row_count_);
  row_flow_count_.assign(rows, 0);
  row_flows_.resize(rows);
  row_active_pos_.assign(rows, -1);
  row_marked_.assign(rows, 0);
  row_could_bind_.assign(rows, 0);
  row_seen_.assign(rows, 0);
  fill_capacity_.assign(rows, 0.0);
  fill_count_.assign(rows, 0);
  fill_share_.assign(rows, 0.0);
  edge_is_machine_.resize(stats_.edge_bytes.size());
  for (topology::EdgeId e = 0; e < topo.directed_edge_count(); ++e) {
    edge_is_machine_[static_cast<std::size_t>(e)] =
        topo.is_machine(topo.edge_source(e)) ||
        topo.is_machine(topo.edge_target(e));
  }
  // Base capacities per row (contention scaling happens per recompute).
  // All derive from the dense per-link capacity vector, the single O(1)
  // bandwidth source that capacity events mutate; switch fabric rows
  // stay tied to the nominal link rate (the backplane does not degrade
  // when an attached cable does).
  link_capacity_ = params.link_capacities(topo.link_count());
  row_base_capacity_.assign(rows, 0.0);
  const double protocol = params.protocol_efficiency;
  for (topology::EdgeId e = 0; e < topo.directed_edge_count(); ++e) {
    row_base_capacity_[static_cast<std::size_t>(e)] =
        link_capacity_[static_cast<std::size_t>(e / 2)] * protocol;
  }
  for (topology::NodeId node = 0; node < topo.node_count(); ++node) {
    const auto row = static_cast<std::size_t>(topo.directed_edge_count() +
                                              node);
    if (topo.is_machine(node)) {
      const topology::NodeId neighbor = topo.neighbors(node).front();
      const topology::LinkId link = topo.edge_between(node, neighbor) / 2;
      row_base_capacity_[row] =
          2.0 * link_capacity_[static_cast<std::size_t>(link)] * protocol *
          params.duplex_efficiency;
    } else {
      row_base_capacity_[row] =
          params.effective_bandwidth() * params.switch_fabric_links;
    }
  }
  bind_limit_ = bind_limit();
}

FlowId FluidNetwork::add_flow(topology::NodeId src, topology::NodeId dst,
                              Bytes bytes, SimTime start) {
  AAPC_REQUIRE(start >= now_ - kTimeEpsilon,
               "flow starts in the past: " << start << " < " << now_);
  AAPC_REQUIRE(src != dst, "self flows are not network flows");
  // Validates the endpoints and the tree path up front (same failure
  // behavior as the eager seed code); the path itself is re-derived at
  // activation time, so pending flows carry no per-flow heap storage.
  topo_.path_into(src, dst, path_scratch_);
  Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.hops = static_cast<std::int32_t>(path_scratch_.size());
  flow.bytes = static_cast<double>(bytes);
  flow.start = std::max(start, now_);
  const FlowId id = static_cast<FlowId>(flows_.size());
  flows_.push_back(flow);
  if (flow.start <= now_ + kTimeEpsilon) {
    activate(id);
    rates_dirty_ = true;
  } else {
    pending_heap_.emplace_back(flow.start, id);
    std::push_heap(pending_heap_.begin(), pending_heap_.end(),
                   kPendingOrder);
    ++pending_count_;
    ++stats_.pending_heap_pushes;
  }
  return id;
}

void FluidNetwork::activate(FlowId id) {
  Flow& flow = flows_[static_cast<std::size_t>(id)];
  // Derive the path and constraint rows into scratch. Constraint order
  // is free (the at-bottleneck test is a disjunction over rows evaluated
  // at one instant, and per-row capacity updates commute), so the rows
  // most likely to be the bottleneck go first to shorten the
  // first-match scan: the endpoint machines' duplex rows, then the path
  // edges, then every switch traversed (fabric cap). Node rows are
  // indexed directed_edge_count() + node id.
  topo_.path_into(flow.src, flow.dst, path_scratch_);
  cons_scratch_.clear();
  cons_scratch_.push_back(topo_.directed_edge_count() + flow.dst);
  cons_scratch_.push_back(topo_.directed_edge_count() + flow.src);
  for (const topology::EdgeId e : path_scratch_) {
    cons_scratch_.push_back(e);
  }
  for (std::size_t i = 0; i + 1 < path_scratch_.size(); ++i) {
    cons_scratch_.push_back(topo_.directed_edge_count() +
                            topo_.edge_target(path_scratch_[i]));
  }
  flow.active = true;
  flow.active_pos = static_cast<std::int64_t>(active_.size());
  active_.push_back(id);
  act_rate_.push_back(0.0);
  act_remaining_.push_back(flow.bytes);
  const std::size_t len = cons_scratch_.size();
  const auto off = static_cast<std::int64_t>(act_cons_pool_.size());
  act_cons_off_.push_back(off);
  act_cons_len_.push_back(static_cast<std::int32_t>(len));
  act_cons_pool_.insert(act_cons_pool_.end(), cons_scratch_.begin(),
                        cons_scratch_.end());
  act_rpos_pool_.resize(act_rpos_pool_.size() + len);
  act_cons_live_ += static_cast<std::int64_t>(len);
  ++active_count_;
  stats_.max_concurrent_flows =
      std::max<std::int64_t>(stats_.max_concurrent_flows, active_count_);
  for (std::size_t k = 0; k < len; ++k) {
    const auto row = static_cast<std::size_t>(cons_scratch_[k]);
    mark_row(row);
    if (row_flow_count_[row]++ == 0) {
      row_active_pos_[row] =
          static_cast<std::int32_t>(active_rows_.size());
      active_rows_.push_back(static_cast<std::int32_t>(row));
    }
    act_rpos_pool_[static_cast<std::size_t>(off) + k] =
        static_cast<std::int32_t>(row_flows_[row].size());
    row_flows_[row].push_back(id);
  }
  stats_.max_active_rows = std::max<std::int64_t>(
      stats_.max_active_rows,
      static_cast<std::int64_t>(active_rows_.size()));
  ++stats_.flows_activated;
}

void FluidNetwork::detach_flow(FlowId id, double credited_bytes) {
  Flow& flow = flows_[static_cast<std::size_t>(id)];
  const auto pos = static_cast<std::size_t>(flow.active_pos);
  const auto off = static_cast<std::size_t>(act_cons_off_[pos]);
  const auto len = static_cast<std::size_t>(act_cons_len_[pos]);
  // Detach from per-row flow lists and shrink the active-row set.
  for (std::size_t k = 0; k < len; ++k) {
    const auto row = static_cast<std::size_t>(act_cons_pool_[off + k]);
    auto& list = row_flows_[row];
    const auto rpos = static_cast<std::size_t>(act_rpos_pool_[off + k]);
    list[rpos] = list.back();
    list.pop_back();
    if (rpos < list.size()) {
      // Fix the moved flow's recorded position for this row.
      const auto mpos = static_cast<std::size_t>(
          flows_[static_cast<std::size_t>(list[rpos])].active_pos);
      const auto moff = static_cast<std::size_t>(act_cons_off_[mpos]);
      const auto mlen = static_cast<std::size_t>(act_cons_len_[mpos]);
      for (std::size_t j = 0; j < mlen; ++j) {
        if (static_cast<std::size_t>(act_cons_pool_[moff + j]) == row) {
          act_rpos_pool_[moff + j] = static_cast<std::int32_t>(rpos);
          break;
        }
      }
    }
    mark_row(row);
    if (--row_flow_count_[row] == 0) {
      const auto apos = static_cast<std::size_t>(row_active_pos_[row]);
      active_rows_[apos] = active_rows_.back();
      active_rows_.pop_back();
      if (apos < active_rows_.size()) {
        row_active_pos_[static_cast<std::size_t>(active_rows_[apos])] =
            static_cast<std::int32_t>(apos);
      }
      row_active_pos_[row] = -1;
    }
  }
  // Credit the flow's payload to its path edges once, at detach — the
  // full message on completion, the bytes moved so far on cancellation
  // — so this equals the per-drain sum up to rounding, and stats are
  // only read after the run. The edge rows within the constraint slice
  // are exactly the path edges.
  const auto edge_rows = static_cast<std::int32_t>(stats_.edge_bytes.size());
  for (std::size_t k = 0; k < len; ++k) {
    const std::int32_t row = act_cons_pool_[off + k];
    if (row < edge_rows) {
      stats_.edge_bytes[static_cast<std::size_t>(row)] += credited_bytes;
    }
  }
  // Swap-remove from active_ and the parallel hot arrays (same removal
  // order as a linear scan, so active_ ordering — and thus allocation
  // tie-breaking — is unchanged). The arena slice becomes garbage until
  // the next compaction.
  active_[pos] = active_.back();
  active_.pop_back();
  act_rate_[pos] = act_rate_.back();
  act_rate_.pop_back();
  act_remaining_[pos] = act_remaining_.back();
  act_remaining_.pop_back();
  act_cons_live_ -= act_cons_len_[pos];
  act_cons_off_[pos] = act_cons_off_.back();
  act_cons_off_.pop_back();
  act_cons_len_[pos] = act_cons_len_.back();
  act_cons_len_.pop_back();
  if (static_cast<std::int64_t>(act_cons_pool_.size()) >
      2 * act_cons_live_ + 64) {
    compact_cons_pool();
  }
  if (pos < active_.size()) {
    flows_[static_cast<std::size_t>(active_[pos])].active_pos =
        static_cast<std::int64_t>(pos);
  }
  flow.active_pos = -1;
  --active_count_;
}

void FluidNetwork::compact_cons_pool() {
  std::vector<std::int32_t> pool;
  std::vector<std::int32_t> rpos;
  pool.reserve(static_cast<std::size_t>(act_cons_live_));
  rpos.reserve(static_cast<std::size_t>(act_cons_live_));
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const auto off = static_cast<std::size_t>(act_cons_off_[i]);
    const auto len = static_cast<std::size_t>(act_cons_len_[i]);
    act_cons_off_[i] = static_cast<std::int64_t>(pool.size());
    pool.insert(pool.end(), act_cons_pool_.begin() + off,
                act_cons_pool_.begin() + off + len);
    rpos.insert(rpos.end(), act_rpos_pool_.begin() + off,
                act_rpos_pool_.begin() + off + len);
  }
  act_cons_pool_.swap(pool);
  act_rpos_pool_.swap(rpos);
}

SimTime FluidNetwork::next_event_time() const {
  ensure_rates();
  return internal_next_event();
}

void FluidNetwork::advance_to(SimTime when, std::vector<FlowId>& completed) {
  AAPC_REQUIRE(when >= now_ - kTimeEpsilon,
               "cannot rewind network time to " << when << " from " << now_);
  while (true) {
    // Next internal event within (now_, when].
    ensure_rates();
    SimTime step_end = std::min(when, internal_next_event());
    step_end = std::max(step_end, now_);

    // Drain progress over [now_, step_end]. Sequential over the dense
    // hot arrays; per-edge byte accounting happens at completion.
    const double dt = step_end - now_;
    if (dt > 0) {
      const std::size_t n = active_.size();
      for (std::size_t i = 0; i < n; ++i) {
        const double moved = std::min(act_remaining_[i], act_rate_[i] * dt);
        act_remaining_[i] -= moved;
        total_delivered_bytes_ += moved;
      }
      now_ = step_end;
    }

    // Collect completions (remaining ~ 0) and activations due now. The
    // scan is skipped while provably nothing can complete: a flow can
    // pass the relative test only within kTimeEpsilon of the cached
    // next_completion_, and completable_now_ covers the absolute test
    // (e.g. zero-byte flows). kPrefilter turns the per-flow division
    // into a multiply for flows that cannot pass either test.
    bool topology_changed = false;
    if (completable_now_ || now_ >= next_completion_ - 2 * kTimeEpsilon) {
      for (std::size_t i = 0; i < active_.size();) {
        if (act_remaining_[i] > kTimeEpsilon &&
            act_remaining_[i] > act_rate_[i] * kPrefilter) {
          ++i;
          continue;
        }
        // A flow can only hit zero if its rate was positive; rate 0 with
        // remaining 0 means it was added with 0 bytes — complete it too.
        if (act_remaining_[i] <= kTimeEpsilon ||
            (act_rate_[i] > 0 &&
             act_remaining_[i] / act_rate_[i] <= kTimeEpsilon)) {
          const FlowId id = active_[i];
          Flow& flow = flows_[static_cast<std::size_t>(id)];
          flow.done = true;
          flow.active = false;
          completed.push_back(id);
          ++stats_.completed_flows;
          detach_flow(id, flow.bytes);
          topology_changed = true;
        } else {
          ++i;
        }
      }
    }
    while (!pending_heap_.empty() &&
           pending_heap_.front().first <= now_ + kTimeEpsilon) {
      const FlowId id = pending_heap_.front().second;
      std::pop_heap(pending_heap_.begin(), pending_heap_.end(),
                    kPendingOrder);
      pending_heap_.pop_back();
      // Canceled-while-pending flows were uncounted by cancel_flow();
      // their heap entries are discarded here, lazily.
      if (flows_[static_cast<std::size_t>(id)].canceled) continue;
      --pending_count_;
      activate(id);
      topology_changed = true;
    }
    // Capacity changes due now, after completions and activations at
    // the same instant: a flow finishing exactly when its link fails
    // finishes, and one starting then starts under the new capacity.
    while (!capacity_events_.empty() &&
           capacity_events_.front().when <= now_ + kTimeEpsilon) {
      const CapacityEvent event = capacity_events_.front();
      std::pop_heap(capacity_events_.begin(), capacity_events_.end(),
                    capacity_event_after);
      capacity_events_.pop_back();
      apply_capacity(event.link, event.capacity);
      topology_changed = true;
    }
    if (topology_changed) {
      rates_dirty_ = true;
    }
    if (now_ >= when - kTimeEpsilon) {
      now_ = std::max(now_, when);
      return;
    }
  }
}

std::int32_t FluidNetwork::flow_hops(FlowId flow) const {
  AAPC_REQUIRE(flow >= 0 && flow < static_cast<FlowId>(flows_.size()),
               "bad flow id " << flow);
  return flows_[static_cast<std::size_t>(flow)].hops;
}

double FluidNetwork::flow_rate(FlowId flow) const {
  AAPC_REQUIRE(flow >= 0 && flow < static_cast<FlowId>(flows_.size()),
               "bad flow id " << flow);
  const Flow& f = flows_[static_cast<std::size_t>(flow)];
  if (!f.active) return 0.0;
  ensure_rates();
  return act_rate_[static_cast<std::size_t>(f.active_pos)];
}

double FluidNetwork::flow_remaining(FlowId flow) const {
  AAPC_REQUIRE(flow >= 0 && flow < static_cast<FlowId>(flows_.size()),
               "bad flow id " << flow);
  const Flow& f = flows_[static_cast<std::size_t>(flow)];
  if (f.done || f.canceled) return 0.0;
  if (!f.active) return f.bytes;  // pending
  return act_remaining_[static_cast<std::size_t>(f.active_pos)];
}

double FluidNetwork::link_capacity(topology::LinkId link) const {
  AAPC_REQUIRE(link >= 0 && link < topo_.link_count(),
               "bad link id " << link);
  return link_capacity_[static_cast<std::size_t>(link)];
}

void FluidNetwork::schedule_capacity_change(SimTime when,
                                            topology::LinkId link,
                                            double bytes_per_sec) {
  AAPC_REQUIRE(when >= now_ - kTimeEpsilon,
               "capacity change scheduled in the past: " << when << " < "
                                                         << now_);
  AAPC_REQUIRE(link >= 0 && link < topo_.link_count(),
               "bad link id " << link);
  AAPC_REQUIRE(bytes_per_sec >= 0, "negative link capacity");
  if (when <= now_ + kTimeEpsilon) {
    apply_capacity(link, bytes_per_sec);
    return;
  }
  capacity_events_.push_back(
      CapacityEvent{when, capacity_event_seq_++, link, bytes_per_sec});
  std::push_heap(capacity_events_.begin(), capacity_events_.end(),
                 capacity_event_after);
}

bool FluidNetwork::cancel_flow(FlowId flow) {
  AAPC_REQUIRE(flow >= 0 && flow < static_cast<FlowId>(flows_.size()),
               "bad flow id " << flow);
  Flow& f = flows_[static_cast<std::size_t>(flow)];
  if (f.done || f.canceled) return false;
  f.canceled = true;
  ++stats_.canceled_flows;
  if (f.active) {
    const double moved = std::max(
        0.0,
        f.bytes - act_remaining_[static_cast<std::size_t>(f.active_pos)]);
    detach_flow(flow, moved);
    f.active = false;
    rates_dirty_ = true;
  } else {
    // Still pending: uncount it now; the heap entry is skipped lazily
    // when it surfaces.
    --pending_count_;
  }
  return true;
}

void FluidNetwork::apply_capacity(topology::LinkId link,
                                  double bytes_per_sec) {
  AAPC_REQUIRE(link >= 0 && link < topo_.link_count(),
               "bad link id " << link);
  AAPC_REQUIRE(bytes_per_sec >= 0, "negative link capacity");
  link_capacity_[static_cast<std::size_t>(link)] = bytes_per_sec;
  const double protocol = params_.protocol_efficiency;
  for (const topology::EdgeId e : {2 * link, 2 * link + 1}) {
    row_base_capacity_[static_cast<std::size_t>(e)] = bytes_per_sec * protocol;
    mark_row(static_cast<std::size_t>(e));
  }
  // A machine endpoint's duplex cap derives from its (single) access
  // link, which is this link exactly when the machine touches it.
  const topology::NodeId ends[2] = {topo_.edge_source(2 * link),
                                    topo_.edge_target(2 * link)};
  for (const topology::NodeId node : ends) {
    if (topo_.is_machine(node)) {
      const auto row =
          static_cast<std::size_t>(topo_.directed_edge_count() + node);
      row_base_capacity_[row] =
          2.0 * bytes_per_sec * protocol * params_.duplex_efficiency;
      mark_row(row);
    }
  }
  // Which node rows can bind depends on B, so a new B regroups flows.
  const double limit = bind_limit();
  if (limit != bind_limit_) {
    bind_limit_ = limit;
    refill_all_next_ = true;
  }
  rates_dirty_ = true;
  ++stats_.capacity_changes;
}

double FluidNetwork::aggregate_throughput() const {
  return now_ > 0 ? total_delivered_bytes_ / now_ : 0.0;
}

// Why a node row whose base share exceeds B never binds: every unfixed
// flow crosses an edge row, and an edge row offers its unfixed flows at
// most its capacity, which is at most B, so no round's level exceeds B.
// A row that is not the bottleneck of a round only gains share as its
// flows are fixed below it, so its share stays at least its base share,
// above B (1 + 1e-6) and thus above every level's 1e-9 tie window.
double FluidNetwork::bind_limit() const {
  double largest = 0;
  for (std::size_t e = 0; e < stats_.edge_bytes.size(); ++e) {
    largest = std::max(largest, row_base_capacity_[e]);
  }
  // Contention efficiency is at most 1 or a floor above it, unless a
  // negative penalty lets it grow without bound.
  const double efficiency =
      params_.node_contention_penalty < 0 ||
              params_.trunk_contention_penalty < 0
          ? std::numeric_limits<double>::infinity()
          : std::max({1.0, params_.node_efficiency_floor,
                      params_.trunk_efficiency_floor});
  return largest > 0 ? largest * efficiency * (1 + 1e-6) : 0.0;
}

bool FluidNetwork::init_fill_row(std::size_t row) {
  // Edge rows: usable capacity shrinks with the number of concurrent
  // flows (incast / trunk congestion). Node rows: the duplex cap on the
  // combined send+receive rate of one host, or a switch fabric cap.
  const std::int32_t count = row_flow_count_[row];
  fill_count_[row] = count;
  if (row < stats_.edge_bytes.size()) {
    fill_capacity_[row] =
        row_base_capacity_[row] *
        params_.contention_efficiency(edge_is_machine_[row] != 0, count);
    return true;
  }
  fill_capacity_[row] = row_base_capacity_[row];
  return row_base_capacity_[row] <= bind_limit_ * count;
}

void FluidNetwork::recompute_rates() {
  rates_dirty_ = false;
  ++stats_.rate_recomputations;
  if (refill_all_next_ || !refill_touched()) refill_all();
}

void FluidNetwork::refill_all() {
  for (const std::int32_t row : marked_rows_) {
    row_marked_[static_cast<std::size_t>(row)] = 0;
  }
  marked_rows_.clear();
  fill_rows_.clear();
  for (const std::int32_t c : active_rows_) {
    const bool bind = init_fill_row(static_cast<std::size_t>(c));
    row_could_bind_[static_cast<std::size_t>(c)] = bind;
    if (bind) fill_rows_.push_back(c);
  }
  const std::size_t n = active_.size();
  flow_fixed_.assign(n, 0);
  flow_candidate_.assign(n, 0);
  unfixed_list_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    unfixed_list_[i] = static_cast<std::int64_t>(i);
  }
  next_completion_ = kNever;
  completable_now_ = false;
  refill_all_next_ = progressive_fill();
  stats_.refilled_flows += static_cast<std::int64_t>(n);
}

// A refill of every flow splits into components: flows linked by rows
// that can bind. A round fixes only flows on rows at its level, and
// fixing a flow changes only its own rows, so a component that no marked
// row reaches keeps its rates bit for bit. The one link between
// components is the 1e-9 tie window: a round fixes a row of another
// component whose share lies just above its level at that level. Hence:
//  - an untouched rate near, but not equal to, a refilled level sends
//    the call to a full refill;
//  - a filling that fixed any row at a level its share only came near
//    sends the next call to a full refill, since the rates it left may
//    carry a level of a component that later changes alone.
bool FluidNetwork::refill_touched() {
  const std::size_t n = active_.size();
  if (++walk_epoch_ == 0) {  // the stamps wrapped around
    std::fill(row_seen_.begin(), row_seen_.end(), 0);
    std::fill(flow_seen_.begin(), flow_seen_.end(), 0);
    walk_epoch_ = 1;
  }
  if (flow_seen_.size() < n) flow_seen_.resize(n, 0);
  if (flow_fixed_.size() < n) {
    flow_fixed_.resize(n, 0);
    flow_candidate_.resize(n, 0);
  }
  // The walk collects active positions in unfixed_list_ and the rows
  // that can bind in fill_rows_; every row of a reached flow gets its
  // fill scratch reset. take_flows is false once the walk holds more
  // than half of the active flows.
  unfixed_list_.clear();
  fill_rows_.clear();
  const auto take_flows = [&](std::size_t row) {
    if (2 * static_cast<std::size_t>(row_flow_count_[row]) > n) return false;
    for (const FlowId id : row_flows_[row]) {
      const auto p = static_cast<std::size_t>(
          flows_[static_cast<std::size_t>(id)].active_pos);
      if (flow_seen_[p] != walk_epoch_) {
        flow_seen_[p] = walk_epoch_;
        unfixed_list_.push_back(static_cast<std::int64_t>(p));
      }
    }
    return 2 * unfixed_list_.size() <= n;
  };
  // Marked rows to follow are compacted to the front of marked_rows_
  // before any flow is taken, so a row holding most flows ends the walk
  // at once.
  std::size_t follow = 0;
  for (const std::int32_t r : marked_rows_) {
    const auto row = static_cast<std::size_t>(r);
    row_marked_[row] = 0;
    if (row_flow_count_[row] == 0) continue;
    row_seen_[row] = walk_epoch_;
    const bool bind = init_fill_row(row);
    if (bind) fill_rows_.push_back(r);
    // A row that stopped binding is followed too: its flows' rates were
    // filled while it could bind.
    if (bind || row_could_bind_[row]) {
      if (2 * static_cast<std::size_t>(row_flow_count_[row]) > n) {
        return false;
      }
      marked_rows_[follow++] = r;
    }
    row_could_bind_[row] = bind;
  }
  marked_rows_.resize(follow);
  for (const std::int32_t r : marked_rows_) {
    if (!take_flows(static_cast<std::size_t>(r))) return false;
  }
  marked_rows_.clear();
  const std::int32_t* const pool = act_cons_pool_.data();
  for (std::size_t i = 0; i < unfixed_list_.size(); ++i) {
    const auto p = static_cast<std::size_t>(unfixed_list_[i]);
    const std::int32_t* const cons = pool + act_cons_off_[p];
    for (std::int32_t k = 0; k < act_cons_len_[p]; ++k) {
      const auto row = static_cast<std::size_t>(cons[k]);
      if (row_seen_[row] == walk_epoch_) continue;
      row_seen_[row] = walk_epoch_;
      if (init_fill_row(row)) {
        fill_rows_.push_back(cons[k]);
        if (!take_flows(row)) return false;
      }
    }
  }

  std::sort(unfixed_list_.begin(), unfixed_list_.end());
  for (const std::int64_t p : unfixed_list_) {
    flow_fixed_[static_cast<std::size_t>(p)] = 0;
  }
  stats_.refilled_flows += static_cast<std::int64_t>(unfixed_list_.size());
  next_completion_ = kNever;
  completable_now_ = false;
  const bool near_tie = progressive_fill();
  // Fold in the untouched flows at the current time: a completion time
  // cached at an earlier recomputation can differ in the last bit,
  // because remaining drains with rounding.
  std::sort(levels_.begin(), levels_.end());
  for (std::size_t p = 0; p < n; ++p) {
    if (flow_seen_[p] == walk_epoch_) continue;
    const double rate = act_rate_[p];
    for (auto it = std::lower_bound(levels_.begin(), levels_.end(),
                                    rate * (1 - 4e-9));
         it != levels_.end() && *it <= rate * (1 + 4e-9); ++it) {
      if (*it != rate && *it <= rate * (1 + 2e-9) &&
          rate <= *it * (1 + 2e-9)) {
        return false;
      }
    }
    if (rate > 0) {
      next_completion_ =
          std::min(next_completion_, now_ + act_remaining_[p] / rate);
    }
    if (act_remaining_[p] <= kTimeEpsilon) completable_now_ = true;
  }
  refill_all_next_ = near_tie;
  return true;
}

bool FluidNetwork::progressive_fill() {
  // Progressive filling: repeatedly saturate the row with the smallest
  // fair share, fixing its flows at that rate. Only flows on a
  // bottleneck row can be fixed in a round. Both discovery strategies
  // below visit the fixable flows in ascending active_ position, so
  // tie-breaking matches a full in-order scan of the active flows
  // exactly.
  std::size_t unfixed = unfixed_list_.size();
  levels_.clear();
  bool near_tie = false;
  while (unfixed > 0) {
    // One division per row: the bottleneck collect below compares the
    // cached round-start shares instead of re-dividing.
    double min_share = std::numeric_limits<double>::infinity();
    for (const std::int32_t c : fill_rows_) {
      const auto idx = static_cast<std::size_t>(c);
      if (fill_count_[idx] > 0) {
        fill_share_[idx] = fill_capacity_[idx] / fill_count_[idx];
        min_share = std::min(min_share, fill_share_[idx]);
      }
    }
    AAPC_CHECK(min_share < std::numeric_limits<double>::infinity());
    levels_.push_back(min_share);
    // Bottleneck rows this round, plus the combined length of their flow
    // lists (which include already-fixed flows).
    bottleneck_rows_.clear();
    std::size_t budget = 0;
    for (const std::int32_t c : fill_rows_) {
      const auto idx = static_cast<std::size_t>(c);
      if (fill_count_[idx] > 0 &&
          fill_share_[idx] <= min_share * (1 + 1e-9)) {
        bottleneck_rows_.push_back(c);
        budget += row_flows_[idx].size();
        near_tie = near_tie || fill_share_[idx] != min_share;
      }
    }

    bool fixed_any = false;
    // Smallest remaining among flows fixed this round: enough to derive
    // the earliest completion (see below) without a per-flow scan.
    double round_min_rem = std::numeric_limits<double>::infinity();
    // Constraint rows come from the flat arena, not the Flow structs:
    // the whole scan stays within a few dense arrays.
    const std::int32_t* const pool = act_cons_pool_.data();
    const auto try_fix = [&](const std::size_t p) -> bool {
      const std::int32_t* const cons = pool + act_cons_off_[p];
      const std::int32_t len = act_cons_len_[p];
      bool at_bottleneck = false;
      for (std::int32_t k = 0; k < len; ++k) {
        const auto idx = static_cast<std::size_t>(cons[k]);
        if (fill_capacity_[idx] / fill_count_[idx] <=
            min_share * (1 + 1e-9)) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) return false;
      act_rate_[p] = min_share;
      round_min_rem = std::min(round_min_rem, act_remaining_[p]);
      flow_fixed_[p] = 1;
      fixed_any = true;
      --unfixed;
      for (std::int32_t k = 0; k < len; ++k) {
        const auto idx = static_cast<std::size_t>(cons[k]);
        fill_capacity_[idx] = std::max(0.0, fill_capacity_[idx] - min_share);
        fill_count_[idx] -= 1;
      }
      return true;
    };

    if (budget < unfixed) {
      // Sparse round: the bottleneck rows' flow lists are shorter than
      // the unfixed set — gather candidates from them (flag-deduped)
      // and sort into active_ order.
      candidates_.clear();
      for (const std::int32_t c : bottleneck_rows_) {
        for (const FlowId id : row_flows_[static_cast<std::size_t>(c)]) {
          const std::int64_t pos =
              flows_[static_cast<std::size_t>(id)].active_pos;
          const auto p = static_cast<std::size_t>(pos);
          if (!flow_fixed_[p] && !flow_candidate_[p]) {
            flow_candidate_[p] = 1;
            candidates_.push_back(pos);
          }
        }
      }
      std::sort(candidates_.begin(), candidates_.end());
      for (const std::int64_t i : candidates_) {
        flow_candidate_[static_cast<std::size_t>(i)] = 0;
        try_fix(static_cast<std::size_t>(i));
      }
    } else {
      // Dense round: most flows are at a bottleneck (e.g. everything
      // crossing one switch fabric), so scan the unfixed list directly.
      // It stays ascending by construction; entries fixed by earlier
      // sparse rounds are skipped lazily, entries fixed this round are
      // compacted out.
      std::size_t w = 0;
      for (const std::int64_t i : unfixed_list_) {
        const auto p = static_cast<std::size_t>(i);
        if (flow_fixed_[p]) continue;
        if (!try_fix(p)) {
          unfixed_list_[w++] = i;
        }
      }
      unfixed_list_.resize(w);
    }
    AAPC_CHECK_MSG(fixed_any, "progressive filling made no progress");

    // Fold this round into the cached earliest completion. All flows
    // fixed this round share the rate min_share, and both the division
    // and the addition round monotonically, so the round's earliest
    // completion is now + min(remaining) / rate — the same value a
    // per-flow min would produce. Rate-0 rounds can still complete
    // zero-byte flows via the absolute remaining test; flag those.
    if (round_min_rem < std::numeric_limits<double>::infinity()) {
      if (min_share > 0) {
        next_completion_ =
            std::min(next_completion_, now_ + round_min_rem / min_share);
      }
      if (round_min_rem <= kTimeEpsilon) {
        completable_now_ = true;
      }
    }
  }
  // Between recomputations rates are constant, so the cached
  // now + remaining/rate values stay valid as time advances.
  return near_tie;
}

}  // namespace aapc::simnet
