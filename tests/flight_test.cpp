// Flight-recorder subsystem tests: ring semantics (overwrite-oldest,
// full-width fields, capacity limit, concurrent snapshot coherence),
// dump round-trip and validation, executor wiring (events recorded,
// run context stamped, simulation unperturbed), the shared stall/abort
// diagnostics, and closed-loop localization — including from a
// partially overwritten ring and from an aborted run.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <thread>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/flight/analyze.hpp"
#include "aapc/flight/dump.hpp"
#include "aapc/flight/recorder.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/stp/stp.hpp"
#include "aapc/sync/sync_plan.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::flight {
namespace {

using topology::Topology;

Event make_event(double time) {
  Event e;
  e.kind = EventKind::kSendPost;
  e.peer = 1;
  e.tag = 0;
  e.bytes = 64;
  e.time = time;
  e.aux = time - 1;
  return e;
}

TEST(RingTest, RetainsEventsInOrder) {
  Ring ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 5; ++i) ring.push(make_event(i));
  std::vector<Event> out;
  EXPECT_EQ(ring.snapshot(out), 0u);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(out[i].time, i);
  EXPECT_EQ(ring.pushed(), 5u);
}

TEST(RingTest, OverwriteKeepsMostRecent) {
  Ring ring(8);
  for (int i = 0; i < 20; ++i) ring.push(make_event(i));
  std::vector<Event> out;
  EXPECT_EQ(ring.snapshot(out), 12u);  // 20 pushed, 8 retained
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(out[i].time, 12 + i);
}

TEST(RingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Ring(5).capacity(), 8u);
  EXPECT_EQ(Ring(0).capacity(), 8u);  // minimum
  EXPECT_EQ(Ring(4096).capacity(), 4096u);
  EXPECT_EQ(Ring(4097).capacity(), 8192u);
}

TEST(RingTest, RefusesCapacityAboveTheLimitBeforeAllocating) {
  EXPECT_THROW(Ring(kMaxRingCapacity + 1), InvalidArgument);
  // Above 2^31, where std::bit_ceil has no result.
  EXPECT_THROW(Ring(3'000'000'000u), InvalidArgument);
  const RecorderParams too_big{.ring_capacity = kMaxRingCapacity + 1};
  EXPECT_THROW(Recorder(2, too_big), InvalidArgument);
}

TEST(RingTest, StoresEveryFieldAtFullWidth) {
  Ring ring(8);
  Event big = make_event(1.0);
  big.bytes = std::int64_t{5} << 30;  // 5 GiB
  big.peer = -1;
  big.tag = Recorder::kSyncTagBase + 7;
  Event early = make_event(0.123456789012);
  early.aux = 1.234e-9;
  Event late = make_event(3600.0);
  late.aux = 3600.0 - 1e-6;
  for (const Event& e : {big, early, late}) ring.push(e);
  std::vector<Event> out;
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].bytes, big.bytes);
  EXPECT_EQ(out[0].peer, -1);
  EXPECT_EQ(out[0].tag, big.tag);
  EXPECT_EQ(out[1].time, early.time);
  EXPECT_EQ(out[1].aux, early.aux);
  EXPECT_EQ(out[2].time - out[2].aux, late.time - late.aux);
}

TEST(RingTest, ConcurrentSnapshotNeverTearsEntries) {
  // One writer (the executor's single thread), one reader snapshotting
  // mid-run. Every retained entry must be internally consistent and
  // the retained window must be contiguous most-recent events. Run
  // under TSan this also proves the memory-order discipline.
  Ring ring(64);
  constexpr int kTotal = 200'000;
  std::thread writer([&ring] {
    for (int i = 0; i < kTotal; ++i) {
      Event e;
      e.kind = EventKind::kSendComplete;
      e.peer = i;        // mirrors time: a torn entry breaks the pair
      e.bytes = i;
      e.time = i;
      e.aux = i;
      ring.push(e);
    }
  });
  std::vector<Event> out;
  for (int round = 0; round < 200; ++round) {
    ring.snapshot(out);
    for (std::size_t j = 0; j < out.size(); ++j) {
      ASSERT_EQ(out[j].peer, static_cast<std::int32_t>(out[j].time));
      ASSERT_EQ(out[j].bytes, static_cast<std::int64_t>(out[j].time));
      if (j > 0) {
        ASSERT_EQ(out[j].time, out[j - 1].time + 1);
      }
    }
  }
  writer.join();
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 64u);
  EXPECT_DOUBLE_EQ(out.back().time, kTotal - 1);
}

FlightDump sample_dump() {
  Recorder recorder(3, RecorderParams{.ring_capacity = 16});
  for (int r = 0; r < 3; ++r) {
    for (int i = 0; i < 5 + r; ++i) {
      recorder.record(r, EventKind::kSendPost, (r + 1) % 3, r, 100 * i,
                      0.25 * i, 0.125 * i);
    }
  }
  recorder.run = RunContext{1, 11.625e6, 60e-6, 15e-6, 1.25, 7, 3};
  return snapshot(recorder, "unit test dump");
}

TEST(DumpTest, EncodeDecodeRoundTrip) {
  const FlightDump dump = sample_dump();
  const FlightDump decoded = decode_dump(encode_dump(dump));
  EXPECT_EQ(decoded.meta.rank_count, 3);
  EXPECT_EQ(decoded.meta.ring_capacity, 16u);
  EXPECT_EQ(decoded.meta.run.backend, 1);
  EXPECT_DOUBLE_EQ(decoded.meta.run.effective_bandwidth, 11.625e6);
  EXPECT_DOUBLE_EQ(decoded.meta.run.completion_time, 1.25);
  EXPECT_EQ(decoded.meta.run.retransmissions, 7);
  EXPECT_EQ(decoded.meta.run.segments_lost, 3);
  EXPECT_EQ(decoded.meta.label, "unit test dump");
  ASSERT_EQ(decoded.ranks.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    const RankLog& log = decoded.ranks[static_cast<std::size_t>(r)];
    const RankLog& orig = dump.ranks[static_cast<std::size_t>(r)];
    ASSERT_EQ(log.events.size(), orig.events.size());
    for (std::size_t i = 0; i < log.events.size(); ++i) {
      EXPECT_EQ(log.events[i].kind, orig.events[i].kind);
      EXPECT_EQ(log.events[i].peer, orig.events[i].peer);
      EXPECT_EQ(log.events[i].bytes, orig.events[i].bytes);
      EXPECT_DOUBLE_EQ(log.events[i].time, orig.events[i].time);
      EXPECT_DOUBLE_EQ(log.events[i].aux, orig.events[i].aux);
    }
  }
  // A 75-byte header plus the label, then per rank a 12-byte prefix
  // and 33 bytes per event (5, 6 and 7 events).
  EXPECT_EQ(encode_dump(dump).size(),
            75 + dump.meta.label.size() + 3 * 12 + 18 * 33);
}

TEST(DumpTest, FileRoundTrip) {
  const FlightDump dump = sample_dump();
  const std::string path = testing::TempDir() + "flight_test_dump.flt";
  write_dump_file(dump, path);
  const FlightDump loaded = read_dump_file(path);
  EXPECT_EQ(loaded.meta.label, dump.meta.label);
  EXPECT_EQ(loaded.ranks.size(), dump.ranks.size());
}

TEST(DumpTest, DecodeRejectsCorruption) {
  const std::string good = encode_dump(sample_dump());
  // Bad magic.
  std::string bad = good;
  bad[0] ^= 0xFF;
  EXPECT_THROW(decode_dump(bad), InvalidArgument);
  // Unknown version (bytes 8..9, little-endian u16), including v1,
  // whose records carried two more u32s.
  bad = good;
  bad[8] = 0x7F;
  EXPECT_THROW(decode_dump(bad), InvalidArgument);
  bad[8] = 1;
  EXPECT_THROW(decode_dump(bad), InvalidArgument);
  // Truncations at every prefix length must throw, never crash.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(decode_dump(good.substr(0, len)), InvalidArgument);
  }
  // Trailing garbage.
  EXPECT_THROW(decode_dump(good + "x"), InvalidArgument);
}

/// The last switch-to-switch link of `topo`, -1 when it has none.
topology::LinkId switch_link(const Topology& topo) {
  topology::LinkId trunk = -1;
  for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
    if (!topo.is_machine(topo.edge_source(2 * l)) &&
        !topo.is_machine(topo.edge_target(2 * l))) {
      trunk = l;
    }
  }
  return trunk;
}

/// Lowers the scheduled alltoall of `topo`; returns the program set
/// and fills schedule/plan.
mpisim::ProgramSet lower_scheduled(const Topology& topo, Bytes msize,
                                   core::Schedule& schedule,
                                   sync::SyncPlan& plan) {
  schedule = core::build_aapc_schedule(topo);
  plan = sync::build_sync_plan(topo, schedule);
  lowering::LoweringOptions lopts;
  lopts.precomputed_plan = &plan;
  return lowering::lower_schedule(topo, schedule, msize, lopts);
}

TEST(ExecutorWiringTest, RecordsEventsAndStampsTheRunWithoutPerturbing) {
  const Topology topo = topology::make_chain({4, 4});
  core::Schedule schedule;
  sync::SyncPlan plan;
  const mpisim::ProgramSet set =
      lower_scheduled(topo, 32_KiB, schedule, plan);
  const simnet::NetworkParams net;

  mpisim::Executor plain(topo, net, {});
  const mpisim::ExecutionResult without = plain.run(set);

  Recorder recorder(topo.machine_count());
  mpisim::ExecutorParams exec;
  exec.flight = &recorder;
  mpisim::Executor recorded(topo, net, exec);
  const mpisim::ExecutionResult with = recorded.run(set);

  // The recorder must not influence the simulation at all.
  EXPECT_EQ(with.completion_time, without.completion_time);
  ASSERT_EQ(with.rank_finish.size(), without.rank_finish.size());
  for (std::size_t r = 0; r < with.rank_finish.size(); ++r) {
    EXPECT_EQ(with.rank_finish[r], without.rank_finish[r]);
  }

  // The executor stamped the run's calibration and outcome.
  EXPECT_EQ(recorder.run.backend, 0);
  EXPECT_EQ(recorder.run.effective_bandwidth, net.effective_bandwidth());
  EXPECT_EQ(recorder.run.send_overhead, net.send_overhead);
  EXPECT_EQ(recorder.run.recv_overhead, net.recv_overhead);
  EXPECT_EQ(recorder.run.completion_time, with.completion_time);
  EXPECT_EQ(recorder.run.retransmissions, 0);
  EXPECT_EQ(recorder.run.segments_lost, 0);

  EXPECT_GT(recorder.total_recorded(), 0u);
  std::vector<Event> events;
  bool saw[8] = {};
  for (topology::Rank r = 0; r < topo.machine_count(); ++r) {
    recorder.snapshot_rank(r, events);
    for (const Event& e : events) saw[static_cast<int>(e.kind)] = true;
  }
  EXPECT_TRUE(saw[static_cast<int>(EventKind::kSendPost)]);
  EXPECT_TRUE(saw[static_cast<int>(EventKind::kRecvPost)]);
  EXPECT_TRUE(saw[static_cast<int>(EventKind::kSendComplete)]);
  EXPECT_TRUE(saw[static_cast<int>(EventKind::kRecvComplete)]);
  EXPECT_TRUE(saw[static_cast<int>(EventKind::kSyncWait)] ||
              saw[static_cast<int>(EventKind::kSyncRelease)]);
}

TEST(ExecutorWiringTest, StampsThePacketBackendAndItsLossCounters) {
  const Topology topo = topology::make_single_switch(4);
  core::Schedule schedule;
  sync::SyncPlan plan;
  const mpisim::ProgramSet set =
      lower_scheduled(topo, 16_KiB, schedule, plan);
  Recorder recorder(topo.machine_count());
  mpisim::ExecutorParams exec;
  exec.flight = &recorder;
  exec.packet.emplace().faults.loss_rate = 0.01;
  const mpisim::ExecutionResult result =
      mpisim::Executor(topo, {}, exec).run(set);
  ASSERT_TRUE(result.packet.has_value());
  EXPECT_GT(result.packet->retransmissions, 0);
  EXPECT_EQ(recorder.run.backend, 1);
  EXPECT_EQ(recorder.run.completion_time, result.completion_time);
  EXPECT_EQ(recorder.run.retransmissions, result.packet->retransmissions);
  EXPECT_EQ(recorder.run.segments_lost, result.packet->segments_lost);
}

TEST(DiagnosticsTest, StallCarriesTypedDiagnosticMatchingWhat) {
  const Topology topo = topology::make_single_switch(2);
  mpisim::ProgramSet set;
  set.name = "deadlock";
  set.data_bytes = 1024;
  mpisim::Program sender;
  sender.ops = {mpisim::Op::isend(1, 0), mpisim::Op::wait_all()};
  set.programs = {sender, mpisim::Program{}};
  mpisim::Executor executor(topo, {}, {});
  try {
    executor.run(set);
    FAIL() << "expected ExecutionStalled";
  } catch (const mpisim::ExecutionStalled& e) {
    // One formatting path: what() IS the typed diagnostic's rendering.
    EXPECT_EQ(std::string(e.what()), e.diagnostic().to_string());
    ASSERT_FALSE(e.diagnostic().blocked.empty());
    EXPECT_EQ(e.diagnostic().blocked.front().rank, 0);
    ASSERT_FALSE(e.diagnostic().blocked.front().pending.empty());
    EXPECT_NE(std::string(e.what()).find("(unmatched)"), std::string::npos);
  }
}

TEST(DiagnosticsTest, AbortCarriesTypedDiagnosticMatchingWhat) {
  const Topology topo = topology::make_chain({1, 1});
  // The only switch-switch link is down from the start; the watchdog
  // retries the cross transfer and gives up.
  const topology::LinkId trunk = switch_link(topo);
  ASSERT_GE(trunk, 0);
  faults::FaultPlan plan;
  plan.add(faults::FaultEvent::link_down(0, trunk));
  const simnet::NetworkParams net;
  mpisim::ExecutorParams exec;
  exec.transfer_timeout = milliseconds(5.0);
  exec.transfer_max_retries = 1;
  faults::compile(plan, net, topo.link_count()).apply(exec);

  mpisim::ProgramSet set;
  set.name = "cross";
  set.data_bytes = 32768;
  mpisim::Program sender;
  sender.ops = {mpisim::Op::isend(1, 0), mpisim::Op::wait_all()};
  mpisim::Program receiver;
  receiver.ops = {mpisim::Op::irecv(0, 0), mpisim::Op::wait_all()};
  set.programs = {sender, receiver};
  mpisim::Executor executor(topo, net, exec);
  try {
    executor.run(set);
    FAIL() << "expected TransferAborted";
  } catch (const mpisim::TransferAborted& e) {
    EXPECT_EQ(std::string(e.what()), e.diagnostic().to_string());
    EXPECT_EQ(e.diagnostic().transfer.src, 0);
    EXPECT_EQ(e.diagnostic().transfer.dst, 1);
    EXPECT_EQ(e.diagnostic().attempts, 2);  // original + 1 retry
    EXPECT_NE(std::string(e.what()).find("retries exhausted"),
              std::string::npos);
  }
}

TEST(StpTest, BridgeLinkOfInvertsLinkOfBridgeLink) {
  stp::BridgeNetwork net;
  const stp::BridgeId a = net.add_bridge("a", 1);
  const stp::BridgeId b = net.add_bridge("b", 2);
  net.add_bridge_link(a, b, 19);
  net.add_bridge_link(a, b, 19);  // redundant, blocked by the election
  net.add_machine("m0", a);
  net.add_machine("m1", b);
  const stp::SpanningTree tree = stp::compute_spanning_tree(net);
  for (std::size_t i = 0; i < tree.link_of_bridge_link.size(); ++i) {
    const topology::LinkId link = tree.link_of_bridge_link[i];
    if (link < 0) continue;  // blocked
    EXPECT_EQ(tree.bridge_link_of(link), static_cast<std::int32_t>(i));
  }
  // Machine access links realize no bridge link.
  for (const topology::LinkId access : tree.machine_access_link) {
    EXPECT_EQ(tree.bridge_link_of(access), -1);
  }
  EXPECT_EQ(tree.bridge_link_of(-1), -1);
}

TEST(SyncPlanTest, BuildAdjacencyListsAndValidates) {
  sync::SyncPlan plan;
  plan.edges = {{0, 1}, {0, 2}, {1, 2}};
  const sync::PlanAdjacency adjacency = sync::build_adjacency(plan, 3);
  // Rows hold plan positions; map them to the neighbor messages.
  auto neighbors = [&](std::span<const std::int32_t> row,
                       std::int32_t sync::SyncEdge::*end) {
    std::vector<std::int32_t> out;
    for (const std::int32_t edge : row) {
      out.push_back(plan.edges[static_cast<std::size_t>(edge)].*end);
    }
    return out;
  };
  EXPECT_EQ(neighbors(adjacency.out(0), &sync::SyncEdge::to),
            (std::vector<std::int32_t>{1, 2}));
  EXPECT_EQ(neighbors(adjacency.in(2), &sync::SyncEdge::from),
            (std::vector<std::int32_t>{0, 1}));
  EXPECT_TRUE(adjacency.in(0).empty());

  sync::SyncPlan backward;
  backward.edges = {{2, 1}};
  EXPECT_THROW(sync::build_adjacency(backward, 3), InvalidArgument);
  sync::SyncPlan out_of_range;
  out_of_range.edges = {{0, 5}};
  EXPECT_THROW(sync::build_adjacency(out_of_range, 3), InvalidArgument);
}

TEST(FaultSummaryTest, SummarizesEndState) {
  faults::FaultPlan plan;
  plan.add(faults::FaultEvent::link_degrade(0, 0, 0.5))
      .add(faults::FaultEvent::link_down(milliseconds(1), 1))
      .add(faults::FaultEvent::link_up(milliseconds(2), 1))  // restored
      .add(faults::FaultEvent::link_down(milliseconds(3), 2))
      .add(faults::FaultEvent::node_slowdown(0, 2, 3.0));
  const faults::FaultSummary summary = faults::summarize(plan, 3);
  EXPECT_EQ(summary.degraded_links, (std::vector<std::int32_t>{0}));
  EXPECT_EQ(summary.down_links, (std::vector<std::int32_t>{2}));
  EXPECT_EQ(summary.straggler_ranks, (std::vector<topology::Rank>{2}));
}

/// Runs the chain alltoall under `plan` with ring capacity `ring` and
/// returns the analysis (identity link map: plan links are LinkIds).
AnalysisReport run_and_analyze(const Topology& topo,
                               const faults::FaultPlan& plan,
                               std::uint32_t ring, FlightDump* dump_out) {
  core::Schedule schedule;
  sync::SyncPlan sync_plan;
  const mpisim::ProgramSet set =
      lower_scheduled(topo, 32_KiB, schedule, sync_plan);
  Recorder recorder(topo.machine_count(), RecorderParams{.ring_capacity = ring});
  const simnet::NetworkParams net;
  mpisim::ExecutorParams exec;
  exec.flight = &recorder;
  faults::compile(plan, net, topo.link_count()).apply(exec);
  mpisim::Executor(topo, net, exec).run(set);
  const FlightDump dump = snapshot(recorder, "closed loop");
  if (dump_out != nullptr) *dump_out = dump;
  return analyze(dump, topo, &schedule, &sync_plan);
}

TEST(ClosedLoopTest, LateStragglerLocalizedFromOverwrittenRing) {
  const Topology topo = topology::make_chain({4, 4});
  // Healthy run first, to place the fault onset late in the run.
  const AnalysisReport healthy =
      run_and_analyze(topo, {}, 4096, nullptr);
  EXPECT_TRUE(healthy.verdicts.empty());
  EXPECT_EQ(healthy.events_dropped, 0);
  const double completion = healthy.critical_path_span;
  ASSERT_GT(completion, 0);

  // A straggler that only turns on mid-run (after the early phases
  // have already posted), recorded into tiny rings: the early healthy
  // events are overwritten, and the recent-window estimate still
  // catches the late factor. Onset must land while the rank still has
  // posts left — each rank finishes posting well before the tail of
  // the run drains, so "late" here is relative to the post timeline.
  const double onset = completion * 0.3;
  faults::FaultPlan plan;
  plan.add(faults::FaultEvent::node_slowdown(onset, 2, 4.0));
  FlightDump dump;
  const AnalysisReport report = run_and_analyze(topo, plan, 16, &dump);
  EXPECT_GT(report.events_dropped, 0);
  // The retained window is the most-recent events: the last event of
  // the straggler's ring must postdate the fault onset.
  const RankLog& log = dump.ranks[2];
  ASSERT_FALSE(log.events.empty());
  EXPECT_GT(log.events.back().time, onset);
  ASSERT_FALSE(report.verdicts.empty());
  bool found = false;
  for (const Verdict& v : report.verdicts) {
    if (v.kind == VerdictKind::kStragglerRank && v.rank == 2) found = true;
  }
  EXPECT_TRUE(found) << report.summary();
}

TEST(ClosedLoopTest, DegradedTrunkLocalizedOnPlainChain) {
  const Topology topo = topology::make_chain({4, 4});
  const topology::LinkId trunk = switch_link(topo);
  ASSERT_GE(trunk, 0);
  faults::FaultPlan plan;
  plan.add(faults::FaultEvent::link_degrade(0, trunk, 0.3));
  const AnalysisReport report = run_and_analyze(topo, plan, 4096, nullptr);
  ASSERT_FALSE(report.verdicts.empty());
  EXPECT_EQ(report.verdicts.front().kind, VerdictKind::kDegradedLink);
  EXPECT_EQ(report.verdicts.front().link, trunk);
  EXPECT_NEAR(report.verdicts.front().severity, 1.0 / 0.3, 0.5);
}

TEST(ClosedLoopTest, StalledOrAbortedRunDumpLocalizesTheDownLink) {
  const Topology topo = topology::make_chain({4, 4});
  const topology::LinkId trunk = switch_link(topo);
  ASSERT_GE(trunk, 0);
  core::Schedule schedule;
  sync::SyncPlan sync_plan;
  const mpisim::ProgramSet set =
      lower_scheduled(topo, 32_KiB, schedule, sync_plan);
  faults::FaultPlan plan;
  plan.add(faults::FaultEvent::link_down(0, trunk));
  const simnet::NetworkParams net;
  // With the watchdog the run aborts; without it, it stalls.
  for (const bool watchdog : {true, false}) {
    SCOPED_TRACE(watchdog ? "aborted" : "stalled");
    mpisim::ExecutorParams exec;
    if (watchdog) {
      exec.transfer_timeout = milliseconds(40.0);
      exec.transfer_max_retries = 2;
    }
    faults::compile(plan, net, topo.link_count()).apply(exec);
    Recorder recorder(topo.machine_count());
    recorder.run.completion_time = 1.0;  // left over from an earlier run
    exec.flight = &recorder;
    try {
      mpisim::Executor(topo, net, exec).run(set);
      ADD_FAILURE() << "the run completed over a down trunk";
    } catch (const mpisim::TransferAborted&) {
      EXPECT_TRUE(watchdog);
    } catch (const mpisim::ExecutionStalled&) {
      EXPECT_FALSE(watchdog);
    }

    // The run never completed: its outcome reads 0, its calibration is
    // stamped, and the rings still name the culprit.
    const FlightDump dump = snapshot(recorder, "unfinished run");
    EXPECT_EQ(dump.meta.run.completion_time, 0);
    EXPECT_EQ(dump.meta.run.effective_bandwidth, net.effective_bandwidth());
    const AnalysisReport report = analyze(dump, topo, &schedule, &sync_plan);
    ASSERT_FALSE(report.verdicts.empty());
    EXPECT_EQ(report.verdicts.front().kind, VerdictKind::kDownLink);
    EXPECT_EQ(report.verdicts.front().link, trunk);
  }
}

}  // namespace
}  // namespace aapc::flight
