#include "aapc/packetsim/packet_network.hpp"

#include <algorithm>
#include <sstream>

#include "aapc/common/error.hpp"

namespace aapc::packetsim {

const char* transport_name(PacketNetworkParams::Transport transport) {
  switch (transport) {
    case PacketNetworkParams::Transport::kFixedWindow: return "fixed-window";
    case PacketNetworkParams::Transport::kAimd: return "aimd";
    case PacketNetworkParams::Transport::kSelectiveRepeat:
      return "selective-repeat";
  }
  return "?";
}

PacketNetwork::PacketNetwork(const topology::Topology& topo,
                             const PacketNetworkParams& params)
    : topo_(topo), params_(params), fault_rng_(params.faults.seed) {
  AAPC_REQUIRE(topo.finalized(), "topology must be finalized");
  AAPC_REQUIRE(params.segment_payload >= 1, "segment payload must be > 0");
  AAPC_REQUIRE(params.window_segments >= 1, "window must be >= 1");
  AAPC_REQUIRE(params.queue_capacity_segments >= 1, "queue capacity >= 1");
  AAPC_REQUIRE(params.max_events >= 1, "event cap must be positive");

  wire_time_ =
      static_cast<double>(params.segment_payload + params.segment_overhead) /
      params.link_bandwidth_bytes_per_sec;
  edge_state_.resize(static_cast<std::size_t>(topo.directed_edge_count()));

  const PacketFaultParams& faults = params.faults;
  auto check_rate = [](double rate, const char* what) {
    AAPC_REQUIRE(rate >= 0.0 && rate < 1.0,
                 what << " must be in [0, 1), got " << rate);
  };
  check_rate(faults.loss_rate, "loss_rate");

  const bool any_edge_override = [&] {
    for (const auto& [edge, rate] : faults.edge_loss) {
      AAPC_REQUIRE(edge >= 0 && edge < topo.directed_edge_count(),
                   "edge_loss override for nonexistent directed edge "
                       << edge);
      check_rate(rate, "edge_loss rate");
      if (rate > 0) return true;
    }
    return false;
  }();
  loss_active_ = faults.loss_rate > 0 || any_edge_override;
  if (loss_active_) {
    edge_loss_rate_.assign(
        static_cast<std::size_t>(topo.directed_edge_count()),
        faults.loss_rate);
    for (const auto& [edge, rate] : faults.edge_loss) {
      edge_loss_rate_[static_cast<std::size_t>(edge)] = rate;
    }
  }
}

PacketNetwork::MessageId PacketNetwork::add_message(topology::Rank src,
                                                    topology::Rank dst,
                                                    Bytes bytes,
                                                    SimTime start) {
  const auto m = static_cast<MessageId>(messages_.size());
  AAPC_REQUIRE(src >= 0 && src < topo_.machine_count() && dst >= 0 &&
                   dst < topo_.machine_count() && src != dst,
               "malformed packet message " << m);
  AAPC_REQUIRE(bytes >= 1, "empty packet message " << m);
  AAPC_REQUIRE(start >= now_, "message " << m << " starts at " << start
                                         << " < now() = " << now_);
  messages_.emplace_back();
  MessageState& state = messages_.back();
  state.src = src;
  state.dst = dst;
  state.bytes = bytes;
  state.path = topo_.path(topo_.machine_node(src), topo_.machine_node(dst));
  state.total_segments = static_cast<std::int32_t>(
      (bytes + params_.segment_payload - 1) / params_.segment_payload);
  state.last_segment_payload =
      bytes - static_cast<Bytes>(state.total_segments - 1) *
                  params_.segment_payload;
  state.state.assign(static_cast<std::size_t>(state.total_segments),
                     SegmentState::kUnsent);
  // Open the initial window.
  state.cwnd = params_.transport == PacketNetworkParams::Transport::kAimd
                   ? 2.0
                   : static_cast<double>(params_.window_segments);
  const std::int32_t initial =
      std::min(static_cast<std::int32_t>(state.cwnd), state.total_segments);
  for (std::int32_t s = 0; s < initial; ++s) {
    events_.push(Event{start, sequence_++, EventKind::kInject, m, s});
  }
  state.next_unsent = initial;
  return m;
}

SimTime PacketNetwork::next_event_time() const {
  return events_.empty() ? kNoEvent : events_.top().time;
}

void PacketNetwork::start_edge_if_idle(topology::EdgeId edge, SimTime time) {
  EdgeState& state = edge_state_[static_cast<std::size_t>(edge)];
  if (!state.busy && !state.queue.empty()) {
    state.busy = true;
    events_.push(
        Event{time + wire_time_, sequence_++, EventKind::kDequeue, edge, 0});
  }
}

// Enqueue a segment on an edge; returns false (and counts a drop) when
// the output queue is full.
bool PacketNetwork::enqueue(topology::EdgeId edge, const Segment& segment,
                            SimTime time) {
  EdgeState& state = edge_state_[static_cast<std::size_t>(edge)];
  // The segment being serialized occupies the port too; the queue
  // capacity covers waiting segments.
  if (static_cast<std::int32_t>(state.queue.size()) >=
      params_.queue_capacity_segments) {
    ++segments_dropped_;
    return false;
  }
  state.queue.push_back(segment);
  state.peak_queue = std::max(
      state.peak_queue, static_cast<std::int32_t>(state.queue.size()));
  start_edge_if_idle(edge, time);
  return true;
}

void PacketNetwork::inject(std::int32_t m, std::int32_t s, SimTime time,
                           bool retransmit) {
  MessageState& state = messages_[static_cast<std::size_t>(m)];
  if (state.canceled) return;
  if (state.state[static_cast<std::size_t>(s)] == SegmentState::kDelivered) {
    return;  // stale timeout
  }
  if (retransmit) {
    ++retransmissions_;
    ++state.retransmissions;
  }
  ++segments_sent_;
  state.state[static_cast<std::size_t>(s)] = SegmentState::kInflight;
  // Drop at the first hop is possible too (source NIC queue).
  enqueue(state.path.front(), Segment{m, s, 0}, time);
  // Retransmission timer runs regardless of the drop above — that is
  // exactly how the loss is recovered.
  events_.push(Event{time + params_.retransmit_timeout, sequence_++,
                     EventKind::kTimeout, m, s});
}

void PacketNetwork::handle_delivery(const Segment& segment, MessageState& msg,
                                    SimTime arrival,
                                    std::vector<MessageId>& completed) {
  // Delivered (duplicates from spurious retransmits are ignored).
  SegmentState& seg_state =
      msg.state[static_cast<std::size_t>(segment.segment)];
  if (seg_state == SegmentState::kDelivered) return;
  seg_state = SegmentState::kDelivered;
  msg.last_delivery = std::max(msg.last_delivery, arrival);
  const double payload = static_cast<double>(
      segment.segment + 1 == msg.total_segments ? msg.last_segment_payload
                                                : params_.segment_payload);
  msg.delivered_payload += payload;
  delivered_payload_ += payload;
  if (++msg.delivered == msg.total_segments) {
    msg.complete = true;
    makespan_ = std::max(makespan_, msg.last_delivery);
    ++completed_messages_;
    completed.push_back(segment.message);
    return;
  }
  // Sender learns after the ack delay and slides the sequential
  // window: only in-order delivery advances `base`, so a missing
  // low segment stalls fixed/AIMD flows until its retransmission
  // lands (the timeout-collapse mechanism). Selective repeat uses
  // `base` only as the fast-retransmit hole pointer.
  while (msg.base < msg.total_segments &&
         msg.state[static_cast<std::size_t>(msg.base)] ==
             SegmentState::kDelivered) {
    ++msg.base;
  }
  if (params_.transport == PacketNetworkParams::Transport::kAimd) {
    // AI: one segment per window of deliveries, capped.
    msg.cwnd = std::min(static_cast<double>(params_.window_segments),
                        msg.cwnd + 1.0 / std::max(1.0, msg.cwnd));
    // Fast retransmit: three out-of-order deliveries above a hole
    // signal a loss; resend the hole now and halve, instead of
    // idling until the RTO (the dup-ack mechanism that keeps real
    // TCP trunks busy under moderate loss).
    const bool advanced = segment.segment < msg.base;
    if (advanced) {
      msg.dup_deliveries = 0;
    } else if (msg.base < msg.total_segments &&
               msg.state[static_cast<std::size_t>(msg.base)] !=
                   SegmentState::kDelivered &&
               ++msg.dup_deliveries >= 3) {
      msg.dup_deliveries = 0;
      msg.cwnd = std::max(1.0, msg.cwnd / 2.0);
      inject(segment.message, msg.base, arrival + params_.ack_latency, true);
    }
  }
  if (params_.transport == PacketNetworkParams::Transport::kSelectiveRepeat) {
    // SACK fast retransmit: three deliveries above the hole resend it
    // without halving anything — the window is per-segment, so the
    // hole was never blocking new transmissions anyway.
    const bool advanced = segment.segment < msg.base;
    if (advanced) {
      msg.dup_deliveries = 0;
    } else if (msg.base < msg.total_segments &&
               msg.state[static_cast<std::size_t>(msg.base)] !=
                   SegmentState::kDelivered &&
               ++msg.dup_deliveries >= 3) {
      msg.dup_deliveries = 0;
      inject(segment.message, msg.base, arrival + params_.ack_latency, true);
    }
    // The window counts outstanding segments (sent, not yet delivered):
    // each delivery frees exactly one slot regardless of order.
    while (msg.next_unsent < msg.total_segments &&
           msg.next_unsent - msg.delivered < params_.window_segments) {
      const std::int32_t next = msg.next_unsent++;
      if (msg.state[static_cast<std::size_t>(next)] == SegmentState::kUnsent) {
        events_.push(Event{arrival + params_.ack_latency, sequence_++,
                           EventKind::kInject, segment.message, next});
      }
    }
    return;
  }
  const std::int32_t allowed = std::min(
      msg.total_segments, msg.base + static_cast<std::int32_t>(msg.cwnd));
  while (msg.next_unsent < allowed) {
    const std::int32_t next = msg.next_unsent++;
    if (msg.state[static_cast<std::size_t>(next)] == SegmentState::kUnsent) {
      events_.push(Event{arrival + params_.ack_latency, sequence_++,
                         EventKind::kInject, segment.message, next});
    }
  }
}

void PacketNetwork::process_event(const Event& event,
                                  std::vector<MessageId>& completed) {
  switch (event.kind) {
    case EventKind::kInject:
      inject(event.a, event.b, event.time, false);
      break;
    case EventKind::kTimeout: {
      MessageState& state = messages_[static_cast<std::size_t>(event.a)];
      if (state.canceled) break;
      if (state.state[static_cast<std::size_t>(event.b)] !=
          SegmentState::kDelivered) {
        if (params_.transport == PacketNetworkParams::Transport::kAimd) {
          state.cwnd = std::max(1.0, state.cwnd / 2.0);  // MD
        }
        inject(event.a, event.b, event.time, true);
      }
      break;
    }
    case EventKind::kDequeue: {
      const topology::EdgeId edge = event.a;
      EdgeState& edge_st = edge_state_[static_cast<std::size_t>(edge)];
      AAPC_CHECK(edge_st.busy && !edge_st.queue.empty());
      const Segment segment = edge_st.queue.front();
      edge_st.queue.pop_front();
      edge_st.busy = false;
      start_edge_if_idle(edge, event.time);

      MessageState& msg = messages_[static_cast<std::size_t>(segment.message)];
      if (msg.canceled) break;  // canceled mid-flight: segment evaporates
      // Stochastic loss strikes as the segment leaves the port.
      if (loss_active_) {
        const double rate = edge_loss_rate_[static_cast<std::size_t>(edge)];
        if (rate > 0 && fault_rng_.next_double() < rate) {
          ++segments_lost_;  // the RTO (or fast retransmit) recovers it
          break;
        }
      }
      const SimTime arrival = event.time + params_.link_latency;
      const bool last_hop =
          segment.hop + 1 == static_cast<std::int32_t>(msg.path.size());
      if (!last_hop) {
        // Forward to the next hop's output queue (dropped on
        // overflow; the timeout recovers it).
        enqueue(msg.path[static_cast<std::size_t>(segment.hop + 1)],
                Segment{segment.message, segment.segment, segment.hop + 1},
                arrival);
        break;
      }
      handle_delivery(segment, msg, arrival, completed);
      break;
    }
  }
}

void PacketNetwork::throw_event_cap_diagnostic() const {
  std::ostringstream os;
  std::int32_t incomplete = 0;
  for (const MessageState& msg : messages_) {
    if (!msg.complete && !msg.canceled) ++incomplete;
  }
  os << "packet simulation exceeded the event cap (" << params_.max_events
     << " events) — livelock? " << incomplete << " of " << messages_.size()
     << " message(s) incomplete at t=" << now_ << " s";
  std::int32_t listed = 0;
  for (std::size_t m = 0; m < messages_.size(); ++m) {
    const MessageState& msg = messages_[m];
    if (msg.complete || msg.canceled) continue;
    if (listed >= 8) {
      os << "\n  ... " << (incomplete - listed) << " more stuck message(s)";
      break;
    }
    ++listed;
    os << "\n  message " << m << ": rank " << msg.src << " -> rank "
       << msg.dst << ", delivered " << msg.delivered << "/"
       << msg.total_segments << " segments, " << msg.retransmissions
       << " retransmission(s), outstanding segments: [";
    std::int32_t shown = 0;
    std::int32_t outstanding = 0;
    for (std::size_t s = 0; s < msg.state.size(); ++s) {
      if (msg.state[s] != SegmentState::kInflight) continue;
      ++outstanding;
      if (shown < 8) {
        if (shown > 0) os << ", ";
        os << s;
        ++shown;
      }
    }
    if (outstanding > shown) os << ", ... " << (outstanding - shown) << " more";
    os << "]";
  }
  throw Error(os.str());
}

void PacketNetwork::advance_to(SimTime when,
                               std::vector<MessageId>& completed) {
  AAPC_REQUIRE(when >= now_, "advance_to(" << when << ") is before now() = "
                                           << now_);
  while (!events_.empty() && events_.top().time <= when) {
    if (++processed_ >= params_.max_events) throw_event_cap_diagnostic();
    const Event event = events_.top();
    events_.pop();
    now_ = event.time;
    process_event(event, completed);
  }
  now_ = when;
}

void PacketNetwork::run_to_completion() {
  std::vector<MessageId> completed;
  while (!events_.empty()) {
    if (++processed_ >= params_.max_events) throw_event_cap_diagnostic();
    const Event event = events_.top();
    events_.pop();
    now_ = event.time;
    process_event(event, completed);
  }
}

bool PacketNetwork::cancel_message(MessageId id) {
  AAPC_REQUIRE(id >= 0 && id < message_count(), "cancel of unknown message "
                                                    << id);
  MessageState& msg = messages_[static_cast<std::size_t>(id)];
  if (msg.complete || msg.canceled) return false;
  msg.canceled = true;
  return true;
}

bool PacketNetwork::message_complete(MessageId id) const {
  AAPC_REQUIRE(id >= 0 && id < message_count(), "unknown message " << id);
  return messages_[static_cast<std::size_t>(id)].complete;
}

double PacketNetwork::message_remaining_bytes(MessageId id) const {
  AAPC_REQUIRE(id >= 0 && id < message_count(), "unknown message " << id);
  const MessageState& msg = messages_[static_cast<std::size_t>(id)];
  if (msg.complete || msg.canceled) return 0;
  return static_cast<double>(msg.bytes) - msg.delivered_payload;
}

std::int32_t PacketNetwork::message_hops(MessageId id) const {
  AAPC_REQUIRE(id >= 0 && id < message_count(), "unknown message " << id);
  return static_cast<std::int32_t>(
      messages_[static_cast<std::size_t>(id)].path.size());
}

PacketResult PacketNetwork::result() const {
  PacketResult result;
  result.completion.assign(messages_.size(), 0);
  result.message_retransmissions.assign(messages_.size(), 0);
  for (std::size_t m = 0; m < messages_.size(); ++m) {
    const MessageState& msg = messages_[m];
    if (msg.complete) result.completion[m] = msg.last_delivery;
    result.message_retransmissions[m] = msg.retransmissions;
  }
  result.makespan = makespan_;
  result.segments_sent = segments_sent_;
  result.segments_dropped = segments_dropped_;
  result.retransmissions = retransmissions_;
  result.segments_lost = segments_lost_;
  result.goodput_bytes_per_sec =
      makespan_ > 0 ? delivered_payload_ / makespan_ : 0.0;
  result.peak_queue_segments.assign(edge_state_.size(), 0);
  for (std::size_t e = 0; e < edge_state_.size(); ++e) {
    result.peak_queue_segments[e] = edge_state_[e].peak_queue;
    result.peak_queue_occupancy =
        std::max(result.peak_queue_occupancy, edge_state_[e].peak_queue);
  }
  return result;
}

PacketResult simulate_packets(const topology::Topology& topo,
                              const std::vector<PacketMessage>& messages,
                              const PacketNetworkParams& params) {
  PacketNetwork network(topo, params);
  for (const PacketMessage& message : messages) {
    network.add_message(message.src, message.dst, message.bytes,
                        message.start);
  }
  network.run_to_completion();
  AAPC_CHECK_MSG(network.completed_count() ==
                     static_cast<std::int32_t>(messages.size()),
                 "packet simulation ended with "
                     << network.completed_count() << "/" << messages.size()
                     << " messages complete");
  return network.result();
}

}  // namespace aapc::packetsim
