// NetworkBackend: the seam between the executor and the network model.
//
// The executor's job — rendezvous matching, rank clocks, watchdog,
// barriers — is independent of *how* bytes move. This interface
// abstracts the event-driven network contract the executor needs
// (add/advance/cancel, earliest event, per-flow queries) so one
// generated schedule runs end-to-end over either model:
//
//  * FluidBackend — simnet::FluidNetwork, the calibrated max-min
//    fluid-flow abstraction (fast; contention from progressive
//    filling). The default; behaviour is bit-identical to the executor
//    before this seam existed.
//  * PacketBackend — packetsim::PacketNetwork, segment-level
//    store-and-forward with finite queues, transports, and stochastic
//    segment loss. Slower but first-principles: this is what
//    lets the paper's scheduled alltoall (phases + pair-wise sync
//    messages) run over a genuinely lossy network.
//
// Semantics note: the fluid model charges store-and-forward delivery
// latency *after* the flow drains (per_hop_latency * hops, added by the
// backend via extra_delivery_latency), while the packet model pays
// link_latency per hop inside the simulation itself — so its
// extra_delivery_latency is 0 and nothing is double-counted.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "aapc/common/units.hpp"
#include "aapc/packetsim/packet_network.hpp"
#include "aapc/simnet/fluid_network.hpp"
#include "aapc/simnet/params.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::mpisim {

struct ExecutionResult;

/// Event-driven network contract the executor drives. FlowIds are
/// backend-scoped opaque handles.
class NetworkBackend {
 public:
  virtual ~NetworkBackend() = default;

  virtual SimTime now() const = 0;
  /// Registers a transfer between machine *nodes* activating at `start`
  /// (>= now()).
  virtual simnet::FlowId add_flow(topology::NodeId src, topology::NodeId dst,
                                  Bytes bytes, SimTime start) = 0;
  /// Earliest internal event; simnet::kNever when idle.
  virtual SimTime next_event_time() const = 0;
  /// Processes events up to `when`; drained flow ids are appended.
  virtual void advance_to(SimTime when,
                          std::vector<simnet::FlowId>& completed) = 0;
  virtual std::int32_t flow_hops(simnet::FlowId flow) const = 0;
  /// 0 means the flow cannot currently make progress (fluid: stuck
  /// behind a down link). Backends whose transport always retries
  /// report nonzero for incomplete flows.
  virtual double flow_rate(simnet::FlowId flow) const = 0;
  virtual double flow_remaining(simnet::FlowId flow) const = 0;
  virtual bool cancel_flow(simnet::FlowId flow) = 0;
  /// Scripted link-capacity fault at `when` (faults::compile output).
  /// Backends without capacity modelling reject this up front.
  virtual void schedule_capacity_change(SimTime when, topology::LinkId link,
                                        double bytes_per_sec) = 0;
  /// Receive-side latency to add on top of the drain time for this
  /// flow (store-and-forward charge not already inside the model).
  virtual SimTime extra_delivery_latency(simnet::FlowId flow) const = 0;
  /// Copies backend statistics into the run result.
  virtual void finish(ExecutionResult& result) const = 0;
};

/// Max-min fluid-flow backend (simnet::FluidNetwork).
class FluidBackend final : public NetworkBackend {
 public:
  FluidBackend(const topology::Topology& topo,
               const simnet::NetworkParams& params);

  SimTime now() const override { return net_.now(); }
  simnet::FlowId add_flow(topology::NodeId src, topology::NodeId dst,
                          Bytes bytes, SimTime start) override {
    return net_.add_flow(src, dst, bytes, start);
  }
  SimTime next_event_time() const override { return net_.next_event_time(); }
  void advance_to(SimTime when,
                  std::vector<simnet::FlowId>& completed) override {
    net_.advance_to(when, completed);
  }
  std::int32_t flow_hops(simnet::FlowId flow) const override {
    return net_.flow_hops(flow);
  }
  double flow_rate(simnet::FlowId flow) const override {
    return net_.flow_rate(flow);
  }
  double flow_remaining(simnet::FlowId flow) const override {
    return net_.flow_remaining(flow);
  }
  bool cancel_flow(simnet::FlowId flow) override {
    return net_.cancel_flow(flow);
  }
  void schedule_capacity_change(SimTime when, topology::LinkId link,
                                double bytes_per_sec) override {
    net_.schedule_capacity_change(when, link, bytes_per_sec);
  }
  SimTime extra_delivery_latency(simnet::FlowId flow) const override;
  void finish(ExecutionResult& result) const override;

 private:
  simnet::NetworkParams params_;
  simnet::FluidNetwork net_;
};

/// Segment-level packet backend (packetsim::PacketNetwork). Transfers
/// pay per-hop latency (and loss, queueing, retransmission) inside the
/// packet model itself, so extra_delivery_latency is 0.
class PacketBackend final : public NetworkBackend {
 public:
  PacketBackend(const topology::Topology& topo,
                const packetsim::PacketNetworkParams& params);

  SimTime now() const override { return net_.now(); }
  simnet::FlowId add_flow(topology::NodeId src, topology::NodeId dst,
                          Bytes bytes, SimTime start) override;
  SimTime next_event_time() const override { return net_.next_event_time(); }
  void advance_to(SimTime when,
                  std::vector<simnet::FlowId>& completed) override;
  std::int32_t flow_hops(simnet::FlowId flow) const override;
  double flow_rate(simnet::FlowId flow) const override;
  double flow_remaining(simnet::FlowId flow) const override;
  bool cancel_flow(simnet::FlowId flow) override;
  [[noreturn]] void schedule_capacity_change(SimTime when,
                                             topology::LinkId link,
                                             double bytes_per_sec) override;
  SimTime extra_delivery_latency(simnet::FlowId) const override { return 0; }
  void finish(ExecutionResult& result) const override;

 private:
  const topology::Topology& topo_;
  packetsim::PacketNetwork net_;
  // Scratch for advance_to's MessageId -> FlowId widening.
  std::vector<packetsim::PacketNetwork::MessageId> completed_scratch_;
};

}  // namespace aapc::mpisim
