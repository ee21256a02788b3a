#include "aapc/mpisim/network_backend.hpp"

#include "aapc/common/error.hpp"
#include "aapc/mpisim/executor.hpp"

namespace aapc::mpisim {

FluidBackend::FluidBackend(const topology::Topology& topo,
                           const simnet::NetworkParams& params)
    : params_(params), net_(topo, params) {}

SimTime FluidBackend::extra_delivery_latency(simnet::FlowId flow) const {
  return params_.per_hop_latency * net_.flow_hops(flow);
}

void FluidBackend::finish(ExecutionResult& result) const {
  result.network_stats = net_.stats();
}

PacketBackend::PacketBackend(const topology::Topology& topo,
                             const packetsim::PacketNetworkParams& params)
    : topo_(topo), net_(topo, params) {}

simnet::FlowId PacketBackend::add_flow(topology::NodeId src,
                                       topology::NodeId dst, Bytes bytes,
                                       SimTime start) {
  return static_cast<simnet::FlowId>(
      net_.add_message(topo_.rank_of(src), topo_.rank_of(dst), bytes, start));
}

void PacketBackend::advance_to(SimTime when,
                               std::vector<simnet::FlowId>& completed) {
  completed_scratch_.clear();
  net_.advance_to(when, completed_scratch_);
  for (const packetsim::PacketNetwork::MessageId id : completed_scratch_) {
    completed.push_back(static_cast<simnet::FlowId>(id));
  }
}

std::int32_t PacketBackend::flow_hops(simnet::FlowId flow) const {
  return net_.message_hops(
      static_cast<packetsim::PacketNetwork::MessageId>(flow));
}

double PacketBackend::flow_rate(simnet::FlowId flow) const {
  // The packet transports retransmit forever (RTO), so an incomplete
  // message is never permanently stuck the way a fluid flow behind a
  // down link is; report it as making progress.
  return net_.message_complete(
             static_cast<packetsim::PacketNetwork::MessageId>(flow))
             ? 0.0
             : 1.0;
}

double PacketBackend::flow_remaining(simnet::FlowId flow) const {
  return net_.message_remaining_bytes(
      static_cast<packetsim::PacketNetwork::MessageId>(flow));
}

bool PacketBackend::cancel_flow(simnet::FlowId flow) {
  return net_.cancel_message(
      static_cast<packetsim::PacketNetwork::MessageId>(flow));
}

void PacketBackend::schedule_capacity_change(SimTime, topology::LinkId,
                                             double) {
  throw InvalidArgument(
      "link-capacity fault events require the fluid backend; the packet "
      "backend models loss via PacketNetworkParams::faults instead");
}

void PacketBackend::finish(ExecutionResult& result) const {
  const packetsim::PacketResult stats = net_.result();
  PacketNetworkSummary& packet = result.packet.emplace();
  packet.segments_sent = stats.segments_sent;
  packet.segments_dropped = stats.segments_dropped;
  packet.retransmissions = stats.retransmissions;
  packet.segments_lost = stats.segments_lost;
}

}  // namespace aapc::mpisim
