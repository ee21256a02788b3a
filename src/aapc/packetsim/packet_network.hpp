// Segment-level packet simulator: the first-principles counterpart of
// the fluid model.
//
// Where `simnet` *assumes* calibrated contention losses (incast, trunk
// congestion), this module derives them: messages are split into
// MTU-sized segments that traverse store-and-forward switches with
// finite drop-tail output queues; senders keep a window of segments
// outstanding and recover losses by retransmission. Three transports
// are modelled:
//   * kFixedWindow — fixed sliding window + RTO (stop-and-repeat): the
//     simplest transport exhibiting incast timeout collapse;
//   * kAimd — TCP-flavoured congestion control (additive increase,
//     multiplicative decrease, dup-ack fast retransmit);
//   * kSelectiveRepeat — per-segment SACK: the window counts
//     outstanding segments instead of spanning [base, base+W), so a
//     hole never stalls new transmissions, and fast retransmit repairs
//     it without waiting for the RTO. Goodput degrades gracefully under
//     random loss instead of RTO-collapsing.
//
// Beyond deterministic queue-overflow drops, the simulator injects
// per-directed-link Bernoulli segment loss driven by the seeded
// deterministic RNG in common/rng (every run is exactly reproducible
// from its seed). A configuration with every rate at zero performs no
// RNG draws at all and is bit-identical to the fault-free simulator.
//
// The simulator has two entry points: the batch `simulate_packets`
// (used by bench_model_validation and tests) and the incremental
// `PacketNetwork` class, which exposes the same event-driven interface
// as `simnet::FluidNetwork` (add/advance/cancel) so the mpisim executor
// can run generated schedules end-to-end over the packet model via the
// `mpisim::NetworkBackend` seam.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <vector>

#include "aapc/common/rng.hpp"
#include "aapc/common/units.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::packetsim {

/// Stochastic segment-loss model. Probabilities are per segment per
/// directed-link traversal; all randomness flows from `seed` through
/// one deterministic stream, so a (config, seed) pair reproduces a run
/// bit for bit. Defaults are fully inert: with every rate at zero no
/// RNG draw is performed and the simulation is bit-identical to the
/// fault-free model.
struct PacketFaultParams {
  /// Uniform Bernoulli segment-loss probability per directed-link
  /// traversal, in [0, 1).
  double loss_rate = 0.0;
  /// Per-directed-edge overrides of `loss_rate` (EdgeId, probability).
  /// Lets tests and experiments concentrate loss on one trunk
  /// direction.
  std::vector<std::pair<topology::EdgeId, double>> edge_loss;

  /// Seed of the deterministic fault stream.
  std::uint64_t seed = 0x5EEDF00Dull;
};

struct PacketNetworkParams {
  /// Raw link bandwidth (both directions independently).
  double link_bandwidth_bytes_per_sec = mbps_to_bytes_per_sec(100.0);
  /// Segment payload (MTU minus headers).
  Bytes segment_payload = 1460;
  /// Wire bytes per segment (payload + Ethernet/IP/TCP headers).
  Bytes segment_overhead = 78;
  /// Output-queue capacity per directed edge, in segments (~48 KB —
  /// era-appropriate for unmanaged 100 Mbps switches; together with the
  /// 40 ms timeout this reproduces the fluid model's calibrated incast
  /// curve almost exactly, see bench_model_validation).
  std::int32_t queue_capacity_segments = 32;
  /// Fixed per-link propagation/processing latency.
  SimTime link_latency = microseconds(5.0);
  /// Segments a sender keeps outstanding per message (fixed window, or
  /// the initial/maximum bounds of the AIMD window).
  std::int32_t window_segments = 12;

  enum class Transport {
    /// Fixed sliding window + RTO: the simplest transport exhibiting
    /// incast timeout collapse.
    kFixedWindow,
    /// TCP-flavoured congestion control: additive increase (one segment
    /// per window of in-order deliveries), multiplicative decrease
    /// (halve on timeout), starting from 2 segments up to
    /// `window_segments`. Adapts under trunk multiplexing the way real
    /// flows do.
    kAimd,
    /// Per-segment SACK + fast retransmit: the window bounds the number
    /// of outstanding (sent, unacked) segments, so a lost segment never
    /// blocks new transmissions; three deliveries above a hole resend
    /// the hole immediately. Degrades gracefully under random loss
    /// where kFixedWindow RTO-collapses.
    kSelectiveRepeat,
  };
  Transport transport = Transport::kFixedWindow;
  /// Retransmission timeout after injecting a segment.
  SimTime retransmit_timeout = milliseconds(40.0);
  /// Latency of the (unmodelled) ack path: the sender learns about a
  /// delivery this long after it happens.
  SimTime ack_latency = microseconds(120.0);

  /// Stochastic segment-loss model (inert by default).
  PacketFaultParams faults;

  /// Livelock guard: the simulation throws a diagnostic error (naming
  /// the stuck messages and their outstanding segments) after this many
  /// events. Generous but finite.
  std::int64_t max_events = 400'000'000;
};

/// Human-readable transport name ("fixed-window", "aimd",
/// "selective-repeat").
const char* transport_name(PacketNetworkParams::Transport transport);

/// One message to transfer.
struct PacketMessage {
  topology::Rank src = -1;
  topology::Rank dst = -1;
  Bytes bytes = 0;
  SimTime start = 0;
};

struct PacketResult {
  /// Per-message completion times (all segments delivered); 0 for
  /// incomplete or canceled messages.
  std::vector<SimTime> completion;
  /// Time the last message completed.
  SimTime makespan = 0;
  std::int64_t segments_sent = 0;     // includes retransmissions
  std::int64_t segments_dropped = 0;  // queue-overflow drops
  std::int64_t retransmissions = 0;
  /// Segments destroyed by the stochastic link-loss model, separately
  /// from queue overflow.
  std::int64_t segments_lost = 0;
  /// Delivered payload bytes / makespan.
  double goodput_bytes_per_sec = 0;
  /// Retransmissions per message (which flows suffered, not just how
  /// much total).
  std::vector<std::int32_t> message_retransmissions;
  /// Peak waiting-queue depth per directed edge, in segments (the
  /// serializing segment not included).
  std::vector<std::int32_t> peak_queue_segments;
  /// max over peak_queue_segments: the most congested port's high-water
  /// mark.
  std::int32_t peak_queue_occupancy = 0;
};

/// Incremental, event-driven packet simulator. Deterministic: ties are
/// broken by (event time, sequence); stochastic loss draws from one
/// seeded stream in event order. Messages can be added while the
/// simulation runs (start >= now()), which is what lets the mpisim
/// executor drive it as a network backend.
class PacketNetwork {
 public:
  using MessageId = std::int32_t;

  /// `kNoEvent` from next_event_time(): nothing scheduled.
  static constexpr SimTime kNoEvent = std::numeric_limits<double>::infinity();

  PacketNetwork(const topology::Topology& topo,
                const PacketNetworkParams& params);

  /// Current simulated time (high-water mark of processed events /
  /// advance_to targets).
  SimTime now() const { return now_; }

  /// Registers a message of `bytes` payload from rank `src` to rank
  /// `dst`, with its initial window injected at `start` (>= now()).
  MessageId add_message(topology::Rank src, topology::Rank dst, Bytes bytes,
                        SimTime start);

  /// Earliest pending internal event; kNoEvent when the event heap is
  /// empty. Note stale retransmission timers of already-delivered
  /// segments count as events (they are discarded when processed).
  SimTime next_event_time() const;

  /// Processes every event with time <= `when` (which must be >=
  /// now()); ids of messages that completed are appended to
  /// `completed`. Throws a diagnostic error if the event cap is hit.
  void advance_to(SimTime when, std::vector<MessageId>& completed);

  /// Runs until the event heap drains.
  void run_to_completion();

  /// Cancels an incomplete message: its segments evaporate at their
  /// next hop and no further (re)transmissions happen. Returns false
  /// when the message already completed or was already canceled.
  bool cancel_message(MessageId id);

  bool message_complete(MessageId id) const;
  /// Payload bytes not yet delivered; 0 once complete or canceled.
  double message_remaining_bytes(MessageId id) const;
  /// Directed edges on the message's path.
  std::int32_t message_hops(MessageId id) const;
  std::int32_t message_count() const {
    return static_cast<std::int32_t>(messages_.size());
  }
  /// Completed messages so far (canceled ones never complete).
  std::int32_t completed_count() const { return completed_messages_; }

  /// Aggregate result snapshot (completion vector, counters, peaks).
  PacketResult result() const;

 private:
  enum class EventKind : std::uint8_t {
    kInject,   // sender puts segment (a=message, b=segment) on its uplink
    kDequeue,  // edge (a) finished serializing its head segment
    kTimeout,  // retransmit check for (a=message, b=segment)
  };

  struct Event {
    SimTime time;
    std::int64_t sequence;  // tie-break: deterministic FIFO ordering
    EventKind kind;
    std::int32_t a = 0;
    std::int32_t b = 0;

    friend bool operator>(const Event& lhs, const Event& rhs) {
      if (lhs.time != rhs.time) return lhs.time > rhs.time;
      return lhs.sequence > rhs.sequence;
    }
  };

  struct Segment {
    std::int32_t message;
    std::int32_t segment;
    std::int32_t hop;  // index into the message's path
  };

  enum class SegmentState : std::uint8_t { kUnsent, kInflight, kDelivered };

  struct MessageState {
    topology::Rank src = -1;
    topology::Rank dst = -1;
    Bytes bytes = 0;
    std::vector<topology::EdgeId> path;
    std::int32_t total_segments = 0;
    std::int32_t delivered = 0;
    /// Congestion window (AIMD mode); fixed at window_segments
    /// otherwise.
    double cwnd = 0;
    /// Out-of-order deliveries since `base` last advanced (fast
    /// retransmit after 3, the dup-ack analogue).
    std::int32_t dup_deliveries = 0;
    /// Lowest undelivered segment: the fixed/AIMD window is [base, base
    /// + W). A dropped base segment stalls those flows until its
    /// retransmission lands — the mechanism behind incast timeout
    /// collapse. Selective repeat only uses `base` to locate the hole
    /// for fast retransmit.
    std::int32_t base = 0;
    std::int32_t next_unsent = 0;
    std::vector<SegmentState> state;
    SimTime last_delivery = 0;
    Bytes last_segment_payload = 0;
    double delivered_payload = 0;
    std::int32_t retransmissions = 0;
    bool canceled = false;
    bool complete = false;
  };

  struct EdgeState {
    std::deque<Segment> queue;
    bool busy = false;
    std::int32_t peak_queue = 0;
  };

  void start_edge_if_idle(topology::EdgeId edge, SimTime time);
  bool enqueue(topology::EdgeId edge, const Segment& segment, SimTime time);
  void inject(std::int32_t m, std::int32_t s, SimTime time, bool retransmit);
  void process_event(const Event& event, std::vector<MessageId>& completed);
  void handle_delivery(const Segment& segment, MessageState& msg,
                       SimTime arrival, std::vector<MessageId>& completed);
  [[noreturn]] void throw_event_cap_diagnostic() const;

  const topology::Topology& topo_;
  PacketNetworkParams params_;
  double wire_time_ = 0;
  SimTime now_ = 0;
  std::vector<MessageState> messages_;
  std::vector<EdgeState> edge_state_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::int64_t sequence_ = 0;
  std::int64_t processed_ = 0;
  std::int32_t completed_messages_ = 0;
  double delivered_payload_ = 0;
  SimTime makespan_ = 0;
  // Aggregate fault/transport counters (mirrored into PacketResult).
  std::int64_t segments_sent_ = 0;
  std::int64_t segments_dropped_ = 0;
  std::int64_t retransmissions_ = 0;
  std::int64_t segments_lost_ = 0;
  // Stochastic loss. With no nonzero rate nothing is drawn, so an
  // all-zero config leaves the event stream bit-identical to the
  // fault-free simulator.
  Rng fault_rng_;
  bool loss_active_ = false;
  std::vector<double> edge_loss_rate_;  // dense, when loss_active_
};

/// Runs the scenario to completion. Deterministic: ties are broken by
/// (event time, sequence). Throws InvalidArgument on malformed
/// messages; guards against livelock with the params event cap
/// (diagnostic error naming the stuck messages).
PacketResult simulate_packets(const topology::Topology& topo,
                              const std::vector<PacketMessage>& messages,
                              const PacketNetworkParams& params = {});

}  // namespace aapc::packetsim
