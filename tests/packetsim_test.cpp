// Tests for the packet-level simulator: wire-time arithmetic, queueing,
// drop/retransmit recovery, and the emergent incast collapse that the
// fluid model's calibrated penalties stand in for.
#include <gtest/gtest.h>

#include "aapc/common/error.hpp"
#include "aapc/packetsim/packet_network.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::packetsim {
namespace {

using topology::make_chain;
using topology::make_single_switch;
using topology::Topology;

PacketNetworkParams fast_params() {
  PacketNetworkParams params;
  params.link_latency = 0;
  params.ack_latency = 0;
  params.segment_overhead = 0;
  return params;
}

TEST(PacketSimTest, SingleFlowApproachesWireSpeed) {
  const Topology topo = make_single_switch(2);
  PacketNetworkParams params = fast_params();
  params.segment_payload = 1250;  // 0.1 ms per segment at 12.5 MB/s
  const PacketResult result = simulate_packets(
      topo, {PacketMessage{0, 1, 1'250'000, 0}}, params);
  // 1000 segments, two store-and-forward hops: the pipeline drains in
  // ~(1000 + 1) segment times.
  EXPECT_NEAR(result.makespan, 0.1001, 1e-5);
  EXPECT_EQ(result.segments_dropped, 0);
  EXPECT_EQ(result.retransmissions, 0);
  EXPECT_NEAR(result.goodput_bytes_per_sec, 12.5e6, 0.05e6);
}

TEST(PacketSimTest, HeaderOverheadReducesGoodput) {
  const Topology topo = make_single_switch(2);
  PacketNetworkParams params = fast_params();
  params.segment_payload = 1460;
  params.segment_overhead = 78;  // ~5% headers
  const PacketResult result = simulate_packets(
      topo, {PacketMessage{0, 1, 1'460'000, 0}}, params);
  EXPECT_NEAR(result.goodput_bytes_per_sec, 12.5e6 * 1460 / 1538, 0.1e6);
}

TEST(PacketSimTest, TwoFlowsShareALink) {
  const Topology topo = make_single_switch(3);
  PacketNetworkParams params = fast_params();
  // Two flows into one receiver with windows small enough not to
  // overflow: fair interleaving, combined wire speed.
  params.window_segments = 4;
  const PacketResult result = simulate_packets(
      topo,
      {PacketMessage{0, 2, 625'000, 0}, PacketMessage{1, 2, 625'000, 0}},
      params);
  EXPECT_EQ(result.segments_dropped, 0);
  EXPECT_NEAR(result.makespan, 0.1, 5e-3);  // 1.25 MB over 12.5 MB/s
}

TEST(PacketSimTest, OverflowDropsAndRecovers) {
  const Topology topo = make_single_switch(9);
  PacketNetworkParams params = fast_params();
  params.queue_capacity_segments = 4;  // tiny switch buffers
  params.window_segments = 8;
  params.retransmit_timeout = 5e-3;
  // 8-to-1 incast into a 4-segment buffer: drops are inevitable, but
  // everything must still complete via retransmission.
  std::vector<PacketMessage> messages;
  for (topology::Rank src = 1; src <= 8; ++src) {
    messages.push_back(PacketMessage{src, 0, 100'000, 0});
  }
  const PacketResult result = simulate_packets(topo, messages, params);
  EXPECT_GT(result.segments_dropped, 0);
  EXPECT_GT(result.retransmissions, 0);
  for (const SimTime completion : result.completion) {
    EXPECT_GT(completion, 0);
  }
}

TEST(PacketSimTest, IncastCollapseEmerges) {
  // The headline property: goodput vs fan-in falls the way the fluid
  // model's eta_node curve assumes — monotonically, and substantially
  // below wire speed at 16-way incast.
  const Topology topo = make_single_switch(24);
  PacketNetworkParams params;  // realistic defaults
  auto goodput = [&](int senders) {
    std::vector<PacketMessage> messages;
    for (int s = 1; s <= senders; ++s) {
      messages.push_back(
          PacketMessage{static_cast<topology::Rank>(s), 0, 500'000, 0});
    }
    return simulate_packets(topo, messages, params).goodput_bytes_per_sec;
  };
  const double one = goodput(1);
  const double four = goodput(4);
  const double sixteen = goodput(16);
  EXPECT_GT(one, 11.0e6);          // near wire speed
  EXPECT_LT(four, one * 1.01);     // no gain from fan-in
  EXPECT_LT(sixteen, 0.75 * one);  // collapse well under way
  EXPECT_LT(sixteen, four);
}

TEST(PacketSimTest, ContentionFreePairsDoNotInterfere) {
  // Disjoint pairs across a chain do not share ports: wire speed each,
  // no drops — the packet-level form of "contention-free phases run at
  // full link rate".
  const Topology topo = make_chain({4, 4});
  PacketNetworkParams params = fast_params();
  std::vector<PacketMessage> messages;
  for (int i = 0; i < 4; ++i) {
    // Same-switch pairs: n0->n1, n2->n3 on s0; n4->n5, n6->n7 on s1.
    messages.push_back(PacketMessage{static_cast<topology::Rank>(2 * i),
                                     static_cast<topology::Rank>(2 * i + 1),
                                     500'000, 0});
  }
  const PacketResult result = simulate_packets(topo, messages, params);
  EXPECT_EQ(result.segments_dropped, 0);
  EXPECT_NEAR(result.goodput_bytes_per_sec, 4 * 12.5e6, 1.5e6);
}

TEST(PacketSimTest, StaggeredStartsRespectStartTimes) {
  const Topology topo = make_single_switch(2);
  PacketNetworkParams params = fast_params();
  const PacketResult result = simulate_packets(
      topo, {PacketMessage{0, 1, 125'000, 0.5}}, params);
  EXPECT_GT(result.completion[0], 0.5);
}

TEST(PacketSimTest, DeterministicAcrossRuns) {
  const Topology topo = make_single_switch(9);
  PacketNetworkParams params;
  std::vector<PacketMessage> messages;
  for (topology::Rank src = 1; src <= 8; ++src) {
    messages.push_back(PacketMessage{src, 0, 200'000, 0});
  }
  const PacketResult a = simulate_packets(topo, messages, params);
  const PacketResult b = simulate_packets(topo, messages, params);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.segments_dropped, b.segments_dropped);
}

TEST(PacketSimTest, AimdAdaptsUnderTrunkMultiplexing) {
  // Eight flows over one trunk: the fixed window over-stalls (shared
  // queue overflows and whole windows time out together); AIMD backs
  // off and recovers quickly, keeping goodput high.
  const Topology topo = make_chain({8, 8});
  std::vector<PacketMessage> messages;
  for (int s = 0; s < 8; ++s) {
    messages.push_back(PacketMessage{static_cast<topology::Rank>(s),
                                     static_cast<topology::Rank>(8 + s),
                                     500'000, 0});
  }
  PacketNetworkParams fixed;  // defaults = fixed window
  PacketNetworkParams aimd;
  aimd.transport = PacketNetworkParams::Transport::kAimd;
  aimd.window_segments = 32;  // AIMD cap, not a fixed burst
  const PacketResult fixed_result = simulate_packets(topo, messages, fixed);
  const PacketResult aimd_result = simulate_packets(topo, messages, aimd);
  EXPECT_GT(aimd_result.goodput_bytes_per_sec,
            fixed_result.goodput_bytes_per_sec);
  // AIMD suffers far fewer retransmissions.
  EXPECT_LT(aimd_result.retransmissions, fixed_result.retransmissions);
}

TEST(PacketSimTest, AimdSingleFlowStillReachesWireSpeed) {
  const Topology topo = make_single_switch(2);
  PacketNetworkParams params = fast_params();
  params.transport = PacketNetworkParams::Transport::kAimd;
  const PacketResult result = simulate_packets(
      topo, {PacketMessage{0, 1, 1'460'000, 0}}, params);
  // The window opens from 2; after the ramp the flow saturates the
  // link, so goodput is within ~15% of wire speed for a 1000-segment
  // transfer.
  EXPECT_GT(result.goodput_bytes_per_sec, 0.85 * 12.5e6);
  EXPECT_EQ(result.segments_dropped, 0);
}

TEST(PacketSimTest, MalformedMessagesRejected) {
  const Topology topo = make_single_switch(2);
  EXPECT_THROW(
      simulate_packets(topo, {PacketMessage{0, 0, 100, 0}}),
      InvalidArgument);
  EXPECT_THROW(
      simulate_packets(topo, {PacketMessage{0, 1, 0, 0}}),
      InvalidArgument);
}

// ---- zero-fault contract ----

// Golden outputs captured from the pre-fault simulator (17 significant
// digits). The all-rates-zero fault config must perform no RNG draw, so
// every double here must match BIT FOR BIT — EXPECT_EQ on doubles is
// deliberate. If this test fails, the fault machinery leaked into the
// fault-free event stream.
TEST(PacketSimGoldenTest, ZeroFaultConfigIsBitIdenticalIncast) {
  const Topology topo = make_single_switch(9);
  const PacketNetworkParams params;  // defaults: all fault rates zero
  std::vector<PacketMessage> messages;
  for (topology::Rank src = 1; src <= 8; ++src) {
    messages.push_back(PacketMessage{src, 0, 200'000, 0});
  }
  const PacketResult result = simulate_packets(topo, messages, params);
  EXPECT_EQ(result.makespan, 0.3893422400000025);
  EXPECT_EQ(result.segments_sent, 1441);
  EXPECT_EQ(result.segments_dropped, 345);
  EXPECT_EQ(result.retransmissions, 345);
  EXPECT_EQ(result.segments_lost, 0);
  EXPECT_EQ(result.goodput_bytes_per_sec, 4109495.0293602608);
  const std::vector<SimTime> golden = {
      0.02338760000000005,  0.38909616000000247, 0.33653912000000064,
      0.38577408000000196,  0.3893422400000025,  0.26451584000000206,
      0.38109856000000125,  0.34908920000000254};
  ASSERT_EQ(result.completion.size(), golden.size());
  for (std::size_t m = 0; m < golden.size(); ++m) {
    EXPECT_EQ(result.completion[m], golden[m]) << "message " << m;
  }
}

TEST(PacketSimGoldenTest, ZeroFaultConfigIsBitIdenticalAimdTrunk) {
  const Topology topo = make_chain({4, 4});
  PacketNetworkParams params;
  params.transport = PacketNetworkParams::Transport::kAimd;
  std::vector<PacketMessage> messages;
  for (topology::Rank s = 0; s < 4; ++s) {
    messages.push_back(PacketMessage{s, static_cast<topology::Rank>(4 + s),
                                     300'000, 1e-4 * s});
  }
  const PacketResult result = simulate_packets(topo, messages, params);
  EXPECT_EQ(result.makespan, 0.10459900000000125);
  EXPECT_EQ(result.segments_sent, 860);
  EXPECT_EQ(result.segments_dropped, 12);
  EXPECT_EQ(result.retransmissions, 36);
  EXPECT_EQ(result.goodput_bytes_per_sec, 11472385.013240907);
  EXPECT_EQ(result.completion[3], 0.10459900000000125);
}

TEST(PacketSimGoldenTest, ZeroFaultConfigIsBitIdenticalSingleFlow) {
  const Topology topo = make_single_switch(2);
  const PacketResult result = simulate_packets(
      topo, {PacketMessage{0, 1, 1'000'000, 0}}, PacketNetworkParams{});
  EXPECT_EQ(result.makespan, 0.084415440000000452);
  EXPECT_EQ(result.segments_sent, 685);
  EXPECT_EQ(result.segments_dropped, 0);
  EXPECT_EQ(result.goodput_bytes_per_sec, 11846174.112223957);
}

// The lossy counterpart: 1 % Bernoulli loss at the default seed. Each
// loss is a draw from the seeded fault stream in event order, so a
// change to which events draw, in what order, or how the transport
// recovers moves these numbers.
TEST(PacketSimGoldenTest, BernoulliLossIsBitIdentical) {
  const Topology topo = make_single_switch(9);
  PacketNetworkParams params;
  params.faults.loss_rate = 0.01;
  std::vector<PacketMessage> messages;
  for (topology::Rank src = 1; src <= 8; ++src) {
    messages.push_back(PacketMessage{src, 0, 200'000, 0});
  }
  const PacketResult result = simulate_packets(topo, messages, params);
  EXPECT_EQ(result.makespan, 0.37716128000000054);
  EXPECT_EQ(result.segments_lost, 14);
  EXPECT_EQ(result.retransmissions, 271);
  const std::vector<SimTime> golden = {
      0.098739920000000009, 0.34478280000000178, 0.26266328000000172,
      0.37716128000000054,  0.18082463999999909, 0.35056568000000266,
      0.30624536000000213,  0.35130392000000277};
  ASSERT_EQ(result.completion.size(), golden.size());
  for (std::size_t m = 0; m < golden.size(); ++m) {
    EXPECT_EQ(result.completion[m], golden[m]) << "message " << m;
  }
}

// ---- stochastic faults ----

TEST(PacketSimFaultTest, SameSeedIsBitIdentical) {
  const Topology topo = make_single_switch(9);
  PacketNetworkParams params;
  params.faults.loss_rate = 0.01;
  std::vector<PacketMessage> messages;
  for (topology::Rank src = 1; src <= 8; ++src) {
    messages.push_back(PacketMessage{src, 0, 200'000, 0});
  }
  const PacketResult a = simulate_packets(topo, messages, params);
  const PacketResult b = simulate_packets(topo, messages, params);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.segments_sent, b.segments_sent);
  EXPECT_EQ(a.segments_lost, b.segments_lost);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.message_retransmissions, b.message_retransmissions);
  EXPECT_GT(a.segments_lost, 0);
}

TEST(PacketSimFaultTest, DifferentSeedDiffers) {
  const Topology topo = make_single_switch(9);
  PacketNetworkParams params;
  params.faults.loss_rate = 0.02;
  std::vector<PacketMessage> messages;
  for (topology::Rank src = 1; src <= 8; ++src) {
    messages.push_back(PacketMessage{src, 0, 200'000, 0});
  }
  PacketNetworkParams other = params;
  other.faults.seed = params.faults.seed + 1;
  const PacketResult a = simulate_packets(topo, messages, params);
  const PacketResult b = simulate_packets(topo, messages, other);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(PacketSimFaultTest, BernoulliLossIsRecovered) {
  const Topology topo = make_single_switch(2);
  PacketNetworkParams params;
  params.faults.loss_rate = 0.05;
  const PacketResult result = simulate_packets(
      topo, {PacketMessage{0, 1, 1'000'000, 0}}, params);
  EXPECT_GT(result.segments_lost, 0);
  EXPECT_GE(result.retransmissions, result.segments_lost);
  EXPECT_GT(result.completion[0], 0);  // completed despite the losses
  const PacketResult clean = simulate_packets(
      topo, {PacketMessage{0, 1, 1'000'000, 0}}, PacketNetworkParams{});
  EXPECT_GT(result.makespan, clean.makespan);
}

TEST(PacketSimFaultTest, EdgeLossOverrideConcentratesLoss) {
  // Loss only on the n0 -> switch uplink: the reverse transfer rides
  // clean links and must see zero retransmissions.
  const Topology topo = make_single_switch(2);
  PacketNetworkParams params;
  params.faults.loss_rate = 0.0;
  const auto uplink = topo.path(topo.machine_node(0),
                                topo.machine_node(1)).front();
  params.faults.edge_loss.emplace_back(uplink, 0.05);
  const PacketResult result = simulate_packets(
      topo,
      {PacketMessage{0, 1, 500'000, 0}, PacketMessage{1, 0, 500'000, 0}},
      params);
  EXPECT_GT(result.message_retransmissions[0], 0);
  EXPECT_EQ(result.message_retransmissions[1], 0);
}

TEST(PacketSimFaultTest, SelectiveRepeatDegradesMoreGracefully) {
  // The acceptance comparison in miniature: 1% Bernoulli loss on one
  // large flow. Fixed window stalls behind every hole until the 40 ms
  // RTO; selective repeat keeps the pipe full and fast-retransmits.
  const Topology topo = make_single_switch(2);
  PacketNetworkParams fixed;
  fixed.faults.loss_rate = 0.01;
  PacketNetworkParams sack = fixed;
  sack.transport = PacketNetworkParams::Transport::kSelectiveRepeat;
  const PacketResult fixed_result = simulate_packets(
      topo, {PacketMessage{0, 1, 2'000'000, 0}}, fixed);
  const PacketResult sack_result = simulate_packets(
      topo, {PacketMessage{0, 1, 2'000'000, 0}}, sack);
  EXPECT_LT(sack_result.makespan, 0.5 * fixed_result.makespan);
}

TEST(PacketSimFaultTest, SelectiveRepeatCleanMatchesFixedWindow) {
  // With no losses the SACK window never has a hole, so the transport
  // behaves exactly like a fixed window of the same size.
  const Topology topo = make_single_switch(2);
  PacketNetworkParams sack;
  sack.transport = PacketNetworkParams::Transport::kSelectiveRepeat;
  const PacketResult a = simulate_packets(
      topo, {PacketMessage{0, 1, 1'000'000, 0}}, PacketNetworkParams{});
  const PacketResult b = simulate_packets(
      topo, {PacketMessage{0, 1, 1'000'000, 0}}, sack);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.segments_sent, b.segments_sent);
}

TEST(PacketSimFaultTest, InvalidFaultRatesRejected) {
  const Topology topo = make_single_switch(2);
  PacketNetworkParams params;
  params.faults.loss_rate = 1.0;  // must be < 1
  EXPECT_THROW(simulate_packets(topo, {PacketMessage{0, 1, 100, 0}}, params),
               InvalidArgument);
  params.faults.loss_rate = 0.0;
  params.faults.edge_loss.emplace_back(999, 0.5);  // nonexistent edge
  EXPECT_THROW(simulate_packets(topo, {PacketMessage{0, 1, 100, 0}}, params),
               InvalidArgument);
}

// ---- per-message counters, livelock diagnostic, incremental API ----

TEST(PacketSimResultTest, PerMessageRetransmissionsSumToTotal) {
  const Topology topo = make_single_switch(9);
  PacketNetworkParams params;
  params.faults.loss_rate = 0.01;
  std::vector<PacketMessage> messages;
  for (topology::Rank src = 1; src <= 8; ++src) {
    messages.push_back(PacketMessage{src, 0, 200'000, 0});
  }
  const PacketResult result = simulate_packets(topo, messages, params);
  std::int64_t sum = 0;
  for (const std::int32_t r : result.message_retransmissions) sum += r;
  EXPECT_EQ(sum, result.retransmissions);
  EXPECT_GT(result.retransmissions, 0);
}

TEST(PacketSimResultTest, PeakQueueTracksCongestedPort) {
  const Topology topo = make_single_switch(9);
  std::vector<PacketMessage> messages;
  for (topology::Rank src = 1; src <= 8; ++src) {
    messages.push_back(PacketMessage{src, 0, 200'000, 0});
  }
  const PacketResult result =
      simulate_packets(topo, messages, PacketNetworkParams{});
  ASSERT_EQ(result.peak_queue_segments.size(),
            static_cast<std::size_t>(topo.directed_edge_count()));
  std::int32_t max_peak = 0;
  for (const std::int32_t p : result.peak_queue_segments) {
    max_peak = std::max(max_peak, p);
  }
  EXPECT_EQ(result.peak_queue_occupancy, max_peak);
  // The incast port (switch -> receiver) hits the drop-tail cap.
  const PacketNetworkParams params;
  EXPECT_EQ(result.peak_queue_occupancy, params.queue_capacity_segments);
}

TEST(PacketSimResultTest, EventCapDiagnosticNamesStuckMessages) {
  const Topology topo = make_single_switch(9);
  PacketNetworkParams params;
  params.max_events = 200;  // far too few for 8 x 137 segments
  std::vector<PacketMessage> messages;
  for (topology::Rank src = 1; src <= 8; ++src) {
    messages.push_back(PacketMessage{src, 0, 200'000, 0});
  }
  try {
    simulate_packets(topo, messages, params);
    FAIL() << "expected the event-cap diagnostic";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("event cap"), std::string::npos) << what;
    EXPECT_NE(what.find("rank"), std::string::npos) << what;
    EXPECT_NE(what.find("outstanding"), std::string::npos) << what;
  }
}

TEST(PacketNetworkTest, IncrementalMatchesBatch) {
  const Topology topo = make_single_switch(9);
  PacketNetworkParams params;
  params.faults.loss_rate = 0.005;
  std::vector<PacketMessage> messages;
  for (topology::Rank src = 1; src <= 8; ++src) {
    messages.push_back(PacketMessage{src, 0, 200'000, 0});
  }
  const PacketResult batch = simulate_packets(topo, messages, params);

  PacketNetwork network(topo, params);
  for (const PacketMessage& m : messages) {
    network.add_message(m.src, m.dst, m.bytes, m.start);
  }
  // Drive via the executor-style event loop instead of one big run.
  std::vector<PacketNetwork::MessageId> completed;
  while (network.next_event_time() != PacketNetwork::kNoEvent) {
    network.advance_to(network.next_event_time(), completed);
  }
  EXPECT_EQ(completed.size(), messages.size());
  const PacketResult incremental = network.result();
  EXPECT_EQ(batch.makespan, incremental.makespan);
  EXPECT_EQ(batch.segments_sent, incremental.segments_sent);
  EXPECT_EQ(batch.completion, incremental.completion);
}

TEST(PacketNetworkTest, MessagesCanJoinARunningSimulation) {
  const Topology topo = make_single_switch(3);
  PacketNetwork network(topo, PacketNetworkParams{});
  const auto first = network.add_message(0, 2, 100'000, 0);
  std::vector<PacketNetwork::MessageId> completed;
  network.advance_to(0.01, completed);
  const auto second = network.add_message(1, 2, 100'000, network.now());
  while (network.next_event_time() != PacketNetwork::kNoEvent) {
    network.advance_to(network.next_event_time(), completed);
  }
  EXPECT_TRUE(network.message_complete(first));
  EXPECT_TRUE(network.message_complete(second));
  EXPECT_EQ(network.completed_count(), 2);
}

TEST(PacketNetworkTest, CancelStopsRetransmissionAndCompletion) {
  const Topology topo = make_single_switch(3);
  PacketNetworkParams params;
  params.faults.loss_rate = 0.01;
  PacketNetwork network(topo, params);
  const auto keep = network.add_message(0, 2, 200'000, 0);
  const auto drop = network.add_message(1, 2, 200'000, 0);
  std::vector<PacketNetwork::MessageId> completed;
  network.advance_to(0.005, completed);
  EXPECT_TRUE(network.cancel_message(drop));
  EXPECT_FALSE(network.cancel_message(drop));  // already canceled
  while (network.next_event_time() != PacketNetwork::kNoEvent) {
    network.advance_to(network.next_event_time(), completed);
  }
  EXPECT_TRUE(network.message_complete(keep));
  EXPECT_FALSE(network.message_complete(drop));
  EXPECT_EQ(network.completed_count(), 1);
  EXPECT_EQ(network.message_remaining_bytes(drop), 0);  // canceled
}

}  // namespace
}  // namespace aapc::packetsim
