// Simulation parameters for the switched-Ethernet model.
//
// Defaults approximate the paper's testbed: 100 Mbps duplex links,
// Linux/TCP software stack on ~2.8 GHz P4 nodes. The fluid model
// separates (a) per-message CPU/software overhead, (b) per-hop switch
// latency, and (c) payload bandwidth after protocol overhead (Ethernet +
// IP + TCP headers consume ~6% of the raw wire rate at MTU-size frames;
// we fold stack inefficiency in as well).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/units.hpp"

namespace aapc::simnet {

/// Messages at or below this size take the small-message path
/// (NetworkParams::small_message_extra_latency).
inline constexpr Bytes kSmallMessageThreshold = 256;

/// A scheduled change of one physical link's raw capacity (both
/// directions): the injectable form of a link fault — degradation,
/// down (0 bytes/sec), or restoration. Consumed by
/// FluidNetwork::schedule_capacity_change, usually via
/// faults::compile().
struct LinkCapacityEvent {
  SimTime when = 0;
  std::int32_t link = -1;
  double bandwidth_bytes_per_sec = 0;
};

struct NetworkParams {
  /// Raw link bandwidth, both directions independently (duplex).
  double link_bandwidth_bytes_per_sec = mbps_to_bytes_per_sec(100.0);

  /// Heterogeneous links: per-physical-link raw bandwidth overrides
  /// (link id, bytes/sec), e.g. gigabit switch trunks over 100 Mbps
  /// access links. Links not listed use link_bandwidth_bytes_per_sec.
  /// (The paper assumes uniform bandwidth; §3's peak formula and the
  /// scheduler's optimality argument are stated for that case — with
  /// overrides the schedule stays contention-free but the phase count
  /// is only optimal for the uniform model.)
  std::vector<std::pair<std::int32_t, double>> link_bandwidth_overrides;

  /// Dense per-link raw capacities with the overrides applied:
  /// O(links + overrides) once, O(1) per query thereafter. This is the
  /// vector FluidNetwork snapshots at construction and the faults layer
  /// mutates at runtime (time-varying capacities).
  std::vector<double> link_capacities(std::int32_t link_count) const {
    std::vector<double> capacities(static_cast<std::size_t>(link_count),
                                   link_bandwidth_bytes_per_sec);
    for (const auto& [id, bandwidth] : link_bandwidth_overrides) {
      AAPC_REQUIRE(id >= 0 && id < link_count,
                   "bandwidth override for nonexistent link " << id);
      capacities[static_cast<std::size_t>(id)] = bandwidth;
    }
    return capacities;
  }

  /// Fraction of the raw bandwidth available to payload once Ethernet,
  /// IP, and TCP framing plus stack inefficiencies are accounted for.
  double protocol_efficiency = 0.93;

  /// End-host duplex efficiency: a machine sending and receiving at the
  /// same time cannot drive both directions at full wire speed
  /// (NIC/PCI/stack limits on the paper's P4-class nodes). The combined
  /// send+receive payload rate of one machine is capped at
  ///   2 * effective_bandwidth() * duplex_efficiency.
  /// A machine moving data in only one direction is unaffected. The
  /// mild 0.95 default matches the per-phase trunk times of Figs. 7-8,
  /// where senders usually also receive yet sustain ~90% wire speed.
  double duplex_efficiency = 0.95;

  /// Switch fabric capacity, in units of effective link bandwidth: one
  /// switch can forward at most switch_fabric_links * effective
  /// link rates of traffic simultaneously. The paper's unmanaged
  /// 100 Mbps edge switches cannot sustain all 24 ports both ways at
  /// wire speed; with every node sending and receiving in every phase
  /// (Fig. 6, 24 concurrent flows through one switch) the fabric, not
  /// the links, is what limits per-phase time. 18 links' worth
  /// reproduces Fig. 6's ~70%-of-wire per-phase rate while leaving the
  /// 8-machine switches of Figs. 7-8 unconstrained.
  double switch_fabric_links = 18.0;

  /// Sender-side CPU time consumed by posting one send (syscall, copy
  /// into socket buffer, protocol work). Serializes sends of one rank.
  SimTime send_overhead = microseconds(60.0);

  /// Receiver-side CPU time consumed by posting one receive.
  SimTime recv_overhead = microseconds(15.0);

  /// Store-and-forward latency per switch traversal, applied once per
  /// hop on delivery (latency, not bandwidth).
  SimTime per_hop_latency = microseconds(25.0);

  /// Extra delivery latency for small messages (synchronization tokens):
  /// the end-to-end cost of a tiny TCP send on the paper's era stack —
  /// kernel wakeups, Nagle/delayed-ACK interactions, interrupt
  /// coalescing — which is far above the wire time of a few bytes.
  /// Calibrated against the per-phase overhead implied by Fig. 6's
  /// 8-16 KB rows (the regime where the paper's routine loses to the
  /// unsynchronized baselines).
  SimTime small_message_extra_latency = milliseconds(0.8);

  /// Latency of one barrier operation when an algorithm uses barriers
  /// between phases (§5 discusses why that is expensive without special
  /// hardware; LAM's software barrier over TCP costs ~one round trip per
  /// tree level, lumped here).
  SimTime barrier_latency = microseconds(400.0);

  // ---- contention losses ----
  //
  // An ideal fluid network with pure max-min sharing keeps every link
  // fully utilized no matter how many flows pile onto it — under that
  // model, unscheduled AAPC would finish as fast as the scheduled one.
  // Real switched Ethernet under TCP does not behave that way: output
  // buffers overflow, packets drop, TCP backs off and retransmits, and
  // goodput falls below wire speed. The effect is strongest at end
  // nodes (the classic many-to-one "incast" collapse on the receiving
  // NIC port) and milder but real on inter-switch trunks carrying many
  // flows. We model it by shrinking a directed edge's usable capacity
  // as a function of the number k of concurrent flows on it:
  //
  //   eta(k) = max(floor, 1 / (1 + beta * (k - 1)))
  //
  // with separate (beta, floor) for machine-attached edges and
  // switch-switch trunks. beta_node is calibrated so 23-way incast
  // yields ~42% goodput (LAM on the paper's 24-node switch, Fig. 6);
  // the trunk floor is calibrated so ~200 flows on a 100 Mbps trunk
  // keep ~62% goodput (LAM on topology (b), Fig. 7). eta(1) = 1 always:
  // a contention-free schedule sees full link speed, which is exactly
  // the property the paper's algorithm exploits.

  /// Per-extra-flow loss on machine-attached edges (incast).
  double node_contention_penalty = 0.062;
  /// Lower bound of machine-edge efficiency under extreme incast.
  double node_efficiency_floor = 0.30;
  /// Per-extra-flow loss on switch-switch trunk edges.
  double trunk_contention_penalty = 0.012;
  /// Lower bound of trunk efficiency under heavy multiplexing.
  double trunk_efficiency_floor = 0.66;

  /// Effective payload bandwidth of an uncontended link direction.
  double effective_bandwidth() const {
    return link_bandwidth_bytes_per_sec * protocol_efficiency;
  }

  /// Efficiency of an edge carrying `flows` concurrent flows.
  double contention_efficiency(bool machine_edge, std::int64_t flows) const {
    if (flows <= 1) return 1.0;
    const double beta =
        machine_edge ? node_contention_penalty : trunk_contention_penalty;
    const double floor =
        machine_edge ? node_efficiency_floor : trunk_efficiency_floor;
    const double eta = 1.0 / (1.0 + beta * static_cast<double>(flows - 1));
    return eta < floor ? floor : eta;
  }
};

}  // namespace aapc::simnet
