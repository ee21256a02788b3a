// The NetworkBackend seam: the same lowered program set (data messages
// plus pair-wise sync tokens) executes over the fluid model and over
// the segment-level packet model, and the two runs agree on the
// schedule's phase structure. Also covers packet-backend runs under
// loss and the backend's rejection of fluid-only fault events.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::mpisim {
namespace {

using topology::make_chain;
using topology::make_single_switch;
using topology::Topology;

/// Per-sender sequence of schedule phases, in the order the sender's
/// data messages actually activated in the executed trace (stable on
/// ties by trace index, which follows posting order).
std::vector<std::vector<std::int32_t>> sender_phase_sequences(
    const core::Schedule& schedule, const ExecutionResult& result,
    std::int32_t ranks) {
  std::map<std::pair<Rank, Rank>, std::int32_t> phase_of;
  for (std::int32_t p = 0; p < schedule.phase_count(); ++p) {
    for (const core::Message& m : schedule.phase(p)) {
      phase_of[{m.src, m.dst}] = p;
    }
  }
  std::vector<std::vector<std::pair<SimTime, std::int32_t>>> timed(ranks);
  for (const MessageTrace& trace : result.trace) {
    if (trace.is_sync || trace.src == trace.dst) continue;
    const auto it = phase_of.find({trace.src, trace.dst});
    if (it == phase_of.end()) continue;
    timed[trace.src].emplace_back(trace.start, it->second);
  }
  std::vector<std::vector<std::int32_t>> sequences(ranks);
  for (std::int32_t r = 0; r < ranks; ++r) {
    std::stable_sort(timed[r].begin(), timed[r].end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (const auto& [start, phase] : timed[r]) {
      sequences[r].push_back(phase);
    }
  }
  return sequences;
}

TEST(ExecutorBackendTest, FluidAndPacketAgreeOnPhaseStructure) {
  const Topology topo = make_chain({3, 3});
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const mpisim::ProgramSet programs =
      lowering::lower_schedule(topo, schedule, 8192);
  const std::int32_t ranks = topo.machine_count();

  ExecutorParams fluid;
  fluid.wakeup_jitter_max = 0;
  fluid.record_trace = true;
  Executor fluid_executor(topo, {}, fluid);
  const ExecutionResult fluid_result = fluid_executor.run(programs);

  ExecutorParams packet = fluid;
  packet.packet.emplace();
  Executor packet_executor(topo, {}, packet);
  const ExecutionResult packet_result = packet_executor.run(programs);

  // Both models complete the full routine with a clean audit.
  EXPECT_TRUE(fluid_result.integrity.ok()) << fluid_result.integrity.summary();
  EXPECT_TRUE(packet_result.integrity.ok())
      << packet_result.integrity.summary();
  EXPECT_EQ(fluid_result.message_count, packet_result.message_count);
  EXPECT_FALSE(fluid_result.packet.has_value());
  ASSERT_TRUE(packet_result.packet.has_value());
  EXPECT_GT(packet_result.packet->segments_sent, 0);
  EXPECT_EQ(packet_result.packet->segments_lost, 0);  // zero-fault run

  // The pair-wise synchronization forces phase order per sender; both
  // backends must execute each sender's data messages in the same —
  // non-decreasing — phase sequence, and every (src, dst) pair appears.
  const auto fluid_phases =
      sender_phase_sequences(schedule, fluid_result, ranks);
  const auto packet_phases =
      sender_phase_sequences(schedule, packet_result, ranks);
  for (std::int32_t r = 0; r < ranks; ++r) {
    EXPECT_EQ(fluid_phases[r].size(),
              static_cast<std::size_t>(ranks - 1))
        << "rank " << r;
    EXPECT_TRUE(std::is_sorted(fluid_phases[r].begin(), fluid_phases[r].end()))
        << "rank " << r << " fluid phase order";
    EXPECT_TRUE(
        std::is_sorted(packet_phases[r].begin(), packet_phases[r].end()))
        << "rank " << r << " packet phase order";
    EXPECT_EQ(fluid_phases[r], packet_phases[r]) << "rank " << r;
  }
}

TEST(ExecutorBackendTest, PacketBackendCompletesUnderLoss) {
  const Topology topo = make_single_switch(6);
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const mpisim::ProgramSet programs =
      lowering::lower_schedule(topo, schedule, 32768);

  ExecutorParams clean;
  clean.wakeup_jitter_max = 0;
  clean.packet.emplace().transport =
      packetsim::PacketNetworkParams::Transport::kSelectiveRepeat;
  Executor clean_executor(topo, {}, clean);
  const ExecutionResult clean_result = clean_executor.run(programs);

  ExecutorParams lossy = clean;
  lossy.packet->faults.loss_rate = 0.01;
  Executor lossy_executor(topo, {}, lossy);
  const ExecutionResult lossy_result = lossy_executor.run(programs);

  // Loss costs retransmissions and time, never integrity.
  EXPECT_TRUE(lossy_result.integrity.ok())
      << lossy_result.integrity.summary();
  EXPECT_EQ(lossy_result.integrity.delivered, lossy_result.message_count);
  EXPECT_GT(lossy_result.packet->segments_lost, 0);
  EXPECT_GT(lossy_result.packet->retransmissions, 0);
  EXPECT_GT(lossy_result.completion_time, clean_result.completion_time);
}

TEST(ExecutorBackendTest, PacketRunsAreDeterministic) {
  const Topology topo = make_single_switch(5);
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const mpisim::ProgramSet programs =
      lowering::lower_schedule(topo, schedule, 16384);
  ExecutorParams exec;
  exec.wakeup_jitter_max = 0;
  exec.packet.emplace().faults.loss_rate = 1e-3;

  Executor first(topo, {}, exec);
  Executor second(topo, {}, exec);
  const ExecutionResult a = first.run(programs);
  const ExecutionResult b = second.run(programs);
  EXPECT_EQ(a.completion_time, b.completion_time);  // bit-identical
  EXPECT_EQ(a.packet->segments_lost, b.packet->segments_lost);
  EXPECT_EQ(a.packet->retransmissions, b.packet->retransmissions);
}

TEST(ExecutorBackendTest, PacketBackendRejectsCapacityFaultEvents) {
  const Topology topo = make_single_switch(4);
  ExecutorParams exec;
  exec.wakeup_jitter_max = 0;
  exec.packet.emplace();
  exec.capacity_events = {{0.001, 0, 0.0}};
  Executor executor(topo, {}, exec);

  ProgramSet set;
  set.name = "ping";
  set.data_bytes = 4096;
  Program sender;
  sender.ops = {Op::isend(1, 0), Op::wait_all()};
  Program receiver;
  receiver.ops = {Op::irecv(0, 0), Op::wait_all()};
  Program idle;
  set.programs = {sender, receiver, idle, idle};

  EXPECT_THROW(executor.run(set), InvalidArgument);
}

}  // namespace
}  // namespace aapc::mpisim
