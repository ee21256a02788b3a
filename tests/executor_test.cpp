// Unit tests for the mpisim executor: op semantics, matching, timing,
// jitter determinism, and failure reporting; and for its post table.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/mpisim/post_table.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::mpisim {
namespace {

using topology::make_single_switch;
using topology::Topology;

/// Deterministic, overhead-free parameters for exact timing math.
simnet::NetworkParams clean_net() {
  simnet::NetworkParams net;
  net.protocol_efficiency = 1.0;
  net.send_overhead = 0;
  net.recv_overhead = 0;
  net.per_hop_latency = 0;
  net.small_message_extra_latency = 0;
  net.node_contention_penalty = 0;
  net.trunk_contention_penalty = 0;
  net.node_efficiency_floor = 1.0;
  net.trunk_efficiency_floor = 1.0;
  net.duplex_efficiency = 1.0;
  net.switch_fabric_links = 1e9;
  return net;
}

ExecutorParams clean_exec() {
  ExecutorParams exec;
  exec.wakeup_jitter_max = 0;
  return exec;
}

ProgramSet two_rank_ping(Bytes bytes) {
  ProgramSet set;
  set.name = "ping";
  set.data_bytes = bytes;
  Program sender;
  sender.ops = {Op::isend(1, 0), Op::wait_all()};
  Program receiver;
  receiver.ops = {Op::irecv(0, 0), Op::wait_all()};
  set.programs = {sender, receiver};
  return set;
}

TEST(ExecutorTest, PingTransferTime) {
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), clean_exec());
  const ExecutionResult result = executor.run(two_rank_ping(12'500'000));
  EXPECT_NEAR(result.completion_time, 1.0, 1e-9);
  EXPECT_EQ(result.message_count, 1);
  EXPECT_NEAR(result.network_bytes, 12'500'000, 1e-6);
}

TEST(ExecutorTest, SendOverheadSerializesPosts) {
  const Topology topo = make_single_switch(3);
  simnet::NetworkParams net = clean_net();
  net.send_overhead = 0.25;  // absurd value to make the effect visible
  Executor executor(topo, net, clean_exec());
  ProgramSet set;
  set.name = "two-sends";
  set.data_bytes = 1'250'000;
  Program sender;
  sender.ops = {Op::isend(1, 0), Op::isend(2, 0), Op::wait_all()};
  Program r1;
  r1.ops = {Op::irecv(0, 0), Op::wait_all()};
  Program r2;
  r2.ops = {Op::irecv(0, 0), Op::wait_all()};
  set.programs = {sender, r1, r2};
  const ExecutionResult result = executor.run(set);
  // First flow activates at 0.25, second at 0.50. Both share the source
  // uplink until the first (equal sizes but staggered) finishes.
  // flow1: 0.25..0.50 alone (0.1s of bytes at full rate? bytes move:
  // 0.25s * 12.5MB/s = 3.125MB > 1.25MB) — flow1 is done by 0.35.
  // flow2 runs alone 0.50..0.60.
  EXPECT_NEAR(result.completion_time, 0.60, 1e-9);
}

TEST(ExecutorTest, RendezvousWaitsForReceiver) {
  const Topology topo = make_single_switch(2);
  simnet::NetworkParams net = clean_net();
  net.recv_overhead = 0.5;
  Executor executor(topo, net, clean_exec());
  const ExecutionResult result = executor.run(two_rank_ping(12'500'000));
  // Flow starts only once the receiver has posted (t = 0.5).
  EXPECT_NEAR(result.completion_time, 1.5, 1e-9);
}

TEST(ExecutorTest, PerHopLatencyDelaysReceiverOnly) {
  const Topology topo = make_single_switch(2);  // 2 hops machine-machine
  simnet::NetworkParams net = clean_net();
  net.per_hop_latency = 0.1;
  Executor executor(topo, net, clean_exec());
  const ExecutionResult result = executor.run(two_rank_ping(12'500'000));
  // Sender finishes at 1.0; receiver at 1.0 + 2 * 0.1.
  EXPECT_NEAR(result.rank_finish[0], 1.0, 1e-9);
  EXPECT_NEAR(result.rank_finish[1], 1.2, 1e-9);
}

TEST(ExecutorTest, SmallMessageExtraLatency) {
  const Topology topo = make_single_switch(2);
  simnet::NetworkParams net = clean_net();
  net.small_message_threshold = 256;
  net.small_message_extra_latency = 0.7;
  Executor executor(topo, net, clean_exec());
  const ExecutionResult result = executor.run(two_rank_ping(4));
  EXPECT_NEAR(result.rank_finish[1], 0.7, 1e-6);
  // Data-size messages are unaffected.
  const ExecutionResult big = executor.run(two_rank_ping(12'500'000));
  EXPECT_NEAR(big.rank_finish[1], 1.0, 1e-6);
}

TEST(ExecutorTest, WaitSpecificRequest) {
  const Topology topo = make_single_switch(3);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set;
  set.name = "wait-specific";
  set.pair_bytes.assign(9, 1);
  set.pair_bytes[1 * 3 + 0] = 1'250'000;
  set.pair_bytes[2 * 3 + 0] = 12'500'000;
  Program p0;  // receives from 1 (req 0) and 2 (req 1); waits req 1 first
  p0.ops = {Op::irecv(1, 0), Op::irecv(2, 0), Op::wait(1), Op::wait(0)};
  Program p1;
  p1.ops = {Op::isend(0, 0), Op::wait_all()};
  Program p2;
  p2.ops = {Op::isend(0, 0), Op::wait_all()};
  set.programs = {p0, p1, p2};
  const ExecutionResult result = executor.run(set);
  // Incast: both flows share the downlink. Small finishes at ~0.2,
  // big at ~1.1 (6.25 MB/s while sharing). Rank 0 completes when both
  // done.
  EXPECT_GT(result.rank_finish[0], 1.0);
}

TEST(ExecutorTest, BarrierSynchronizesClocks) {
  const Topology topo = make_single_switch(3);
  simnet::NetworkParams net = clean_net();
  net.barrier_latency = 0.25;
  ExecutorParams exec = clean_exec();
  exec.memcpy_bandwidth_bytes_per_sec = 1e6;  // 1 MB/s: copies take time
  Executor slow_copy(topo, net, exec);
  ProgramSet set;
  set.name = "barrier";
  set.data_bytes = 2'000'000;
  Program fast;
  fast.ops = {Op::barrier()};
  Program slow;
  slow.ops = {Op::copy(), Op::barrier()};  // 2 s of copying
  set.programs = {fast, fast, slow};
  const ExecutionResult result = slow_copy.run(set);
  for (const SimTime finish : result.rank_finish) {
    EXPECT_NEAR(finish, 2.25, 1e-9);  // slowest arrival + barrier cost
  }
}

TEST(ExecutorTest, CopyUsesMemcpyBandwidth) {
  const Topology topo = make_single_switch(2);
  ExecutorParams exec = clean_exec();
  exec.memcpy_bandwidth_bytes_per_sec = 1e9;
  Executor executor(topo, clean_net(), exec);
  ProgramSet set;
  set.name = "copy";
  set.data_bytes = 500'000'000;
  Program p;
  p.ops = {Op::copy()};
  set.programs = {p, p};
  const ExecutionResult result = executor.run(set);
  EXPECT_NEAR(result.completion_time, 0.5, 1e-9);
}

/// The (send request, receive request) pair of every match, in match
/// order: request ids name posts by their place in each rank's program.
std::vector<std::pair<RequestId, RequestId>> matched_requests(
    const ExecutionResult& result) {
  std::vector<std::pair<RequestId, RequestId>> pairs;
  for (const MessageTrace& m : result.trace) {
    pairs.emplace_back(m.send_request, m.recv_request);
  }
  return pairs;
}

ExecutorParams traced_exec() {
  ExecutorParams exec = clean_exec();
  exec.record_trace = true;
  return exec;
}

TEST(ExecutorTest, FifoMatchingSameTag) {
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), traced_exec());
  ProgramSet set;
  set.name = "fifo";
  set.data_bytes = 1'000'000;
  Program sender;
  sender.ops = {Op::isend(1, 7), Op::isend(1, 7), Op::wait_all()};
  Program receiver;  // each receive takes the oldest send of its tag
  receiver.ops = {Op::irecv(0, 7), Op::irecv(0, 7), Op::wait_all()};
  set.programs = {sender, receiver};
  const ExecutionResult result = executor.run(set);
  const std::vector<std::pair<RequestId, RequestId>> expected = {{0, 0},
                                                                 {1, 1}};
  EXPECT_EQ(matched_requests(result), expected);
}

TEST(ExecutorTest, TagsPartitionMatching) {
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), traced_exec());
  ProgramSet set;
  set.name = "tags";
  set.data_bytes = 1'000'000;
  Program sender;
  sender.ops = {Op::isend(1, 1), Op::isend(1, 2), Op::wait_all()};
  Program receiver;  // posted in the opposite tag order
  receiver.ops = {Op::irecv(0, 2), Op::irecv(0, 1), Op::wait_all()};
  set.programs = {sender, receiver};
  const ExecutionResult result = executor.run(set);
  EXPECT_EQ(result.message_count, 2);
  // The tag-2 receive (request 0) takes the tag-2 send (request 1).
  const std::vector<std::pair<RequestId, RequestId>> expected = {{1, 0},
                                                                 {0, 1}};
  EXPECT_EQ(matched_requests(result), expected);
}

TEST(ExecutorTest, MatchOrderAcrossTagsAndSides) {
  // Rank 0 leaves four sends to rank 1 waiting (tags 3 and 4, two
  // each); rank 1 then waits a receive of tag 9 on the same pair and
  // takes the sends out of posting order — from the middle, the head,
  // then the rest — while its own send to rank 0 (tag 3, the other
  // direction) waits too. Each receive takes the oldest send of its
  // tag.
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), traced_exec());
  ProgramSet set;
  set.name = "match-order";
  set.data_bytes = 100;
  Program p0;
  p0.ops = {Op::isend(1, 3), Op::isend(1, 4), Op::isend(1, 3),
            Op::isend(1, 4), Op::wait_all(), Op::irecv(1, 3),
            Op::isend(1, 9), Op::wait_all()};
  Program p1;
  p1.ops = {Op::isend(0, 3), Op::irecv(0, 9), Op::irecv(0, 4),
            Op::irecv(0, 3), Op::irecv(0, 4), Op::irecv(0, 3),
            Op::wait_all()};
  set.programs = {p0, p1};
  const ExecutionResult result = executor.run(set);
  struct Expected {
    Rank src;
    Rank dst;
    Tag tag;
    RequestId send_request;
    RequestId recv_request;
  };
  const Expected expected[] = {{0, 1, 4, 1, 2}, {0, 1, 3, 0, 3},
                               {0, 1, 4, 3, 4}, {0, 1, 3, 2, 5},
                               {1, 0, 3, 0, 4}, {0, 1, 9, 5, 1}};
  ASSERT_EQ(result.trace.size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    const MessageTrace& got = result.trace[i];
    EXPECT_EQ(got.src, expected[i].src) << "match " << i;
    EXPECT_EQ(got.dst, expected[i].dst) << "match " << i;
    EXPECT_EQ(got.tag, expected[i].tag) << "match " << i;
    EXPECT_EQ(got.send_request, expected[i].send_request) << "match " << i;
    EXPECT_EQ(got.recv_request, expected[i].recv_request) << "match " << i;
  }
}

TEST(ExecutorTest, WaitingPostsStayBounded) {
  // 10 000 sequential exchanges, each with a fresh tag: every post is
  // matched before the next is made, so the post table never holds
  // more than the one send waiting for its receive.
  constexpr Tag kExchanges = 10'000;
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set;
  set.name = "sequential-exchanges";
  set.data_bytes = 64;
  set.programs.resize(2);
  for (Tag tag = 0; tag < kExchanges; ++tag) {
    set.programs[0].ops.push_back(Op::isend(1, tag));
    set.programs[0].ops.push_back(Op::wait(tag));
    set.programs[1].ops.push_back(Op::irecv(0, tag));
    set.programs[1].ops.push_back(Op::wait(tag));
  }
  const ExecutionResult result = executor.run(set);
  EXPECT_EQ(result.message_count, kExchanges);
  EXPECT_LE(result.peak_waiting_posts, 1);
}

TEST(ExecutorTest, DeadlockDetected) {
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set;
  set.name = "deadlock";
  set.data_bytes = 100;
  Program p0;  // both wait for a message that is never sent
  p0.ops = {Op::irecv(1, 0), Op::wait_all()};
  Program p1;
  p1.ops = {Op::irecv(0, 0), Op::wait_all()};
  set.programs = {p0, p1};
  EXPECT_THROW(executor.run(set), InvalidArgument);
}

TEST(ExecutorTest, UnmatchedSendReported) {
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set;
  set.name = "unmatched";
  set.data_bytes = 100;
  Program p0;  // fire-and-forget isend with no matching receive
  p0.ops = {Op::isend(1, 0)};
  Program p1;
  set.programs = {p0, p1};
  EXPECT_THROW(executor.run(set), InvalidArgument);
}

TEST(ExecutorTest, UnmatchedPostsReportIsSortedAndCapped) {
  // Eleven leftover (sender, receiver, tag, side) groups on ranks 2, 3
  // and 10: the report lists the first eight in numeric (sender,
  // receiver, tag) order, receives before sends, and counts the rest.
  const Topology topo = make_single_switch(11);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set;
  set.name = "leftovers";
  set.data_bytes = 16;
  set.programs.resize(11);
  set.programs[2].ops = {Op::isend(3, 0), Op::isend(10, 1), Op::isend(10, 1),
                         Op::irecv(3, 5), Op::irecv(10, 6)};
  set.programs[3].ops = {Op::isend(2, 7),  Op::isend(10, 0),
                         Op::irecv(2, 8),  Op::irecv(10, 2),
                         Op::irecv(10, 2), Op::irecv(10, 2)};
  set.programs[10].ops = {Op::isend(2, 3), Op::irecv(2, 9), Op::irecv(3, 1)};
  try {
    executor.run(set);
    FAIL() << "leftover posts must throw";
  } catch (const InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()),
              "program set 'leftovers' finished with unmatched posts:\n"
              "  1 unmatched send(s) rank 2 -> rank 3 tag=0\n"
              "  1 unmatched recv(s) rank 2 -> rank 3 tag=8\n"
              "  2 unmatched send(s) rank 2 -> rank 10 tag=1\n"
              "  1 unmatched recv(s) rank 2 -> rank 10 tag=9\n"
              "  1 unmatched recv(s) rank 3 -> rank 2 tag=5\n"
              "  1 unmatched send(s) rank 3 -> rank 2 tag=7\n"
              "  1 unmatched send(s) rank 3 -> rank 10 tag=0\n"
              "  1 unmatched recv(s) rank 3 -> rank 10 tag=1\n"
              "  ... 3 more");
  }
}

TEST(ExecutorTest, WrongProgramCountRejected) {
  const Topology topo = make_single_switch(3);
  Executor executor(topo, clean_net(), clean_exec());
  EXPECT_THROW(executor.run(two_rank_ping(100)), InvalidArgument);
}

TEST(ExecutorTest, PairTableOfWrongSizeRejected) {
  // A pair table is either absent or ranks x ranks entries.
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set = two_rank_ping(100);
  for (const std::size_t entries : {1u, 3u, 5u, 9u}) {
    set.pair_bytes.assign(entries, 100);
    EXPECT_THROW(executor.run(set), InvalidArgument) << entries;
  }
  set.pair_bytes.assign(4, 100);
  EXPECT_EQ(executor.run(set).message_count, 1);
}

TEST(ExecutorTest, JitterIsDeterministicPerSeed) {
  const Topology topo = make_single_switch(2);
  ExecutorParams exec;
  exec.wakeup_jitter_max = 1e-3;
  exec.jitter_seed = 42;
  Executor a(topo, clean_net(), exec);
  Executor b(topo, clean_net(), exec);
  const SimTime ta = a.run(two_rank_ping(1'000'000)).completion_time;
  const SimTime tb = b.run(two_rank_ping(1'000'000)).completion_time;
  EXPECT_EQ(ta, tb);
  exec.jitter_seed = 43;
  Executor c(topo, clean_net(), exec);
  const SimTime tc = c.run(two_rank_ping(1'000'000)).completion_time;
  EXPECT_NE(ta, tc);
}

TEST(ExecutorTest, WaitOnUnpostedRequestRejected) {
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set;
  set.name = "bad-wait";
  Program p0;
  p0.ops = {Op::wait(3)};
  Program p1;
  set.programs = {p0, p1};
  EXPECT_THROW(executor.run(set), InvalidArgument);
}

TEST(ExecutorTest, SelfSendRejected) {
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set;
  set.name = "self-send";
  set.data_bytes = 100;
  Program p0;
  p0.ops = {Op::isend(0, 0)};
  Program p1;
  set.programs = {p0, p1};
  EXPECT_THROW(executor.run(set), InvalidArgument);
}

TEST(PostTableTest, SameTagPostsMatchInFifoOrder) {
  PostTable table(2);
  for (RequestId id = 0; id < 3; ++id) {
    EXPECT_EQ(table.match_or_wait(0, 1, 5, PostSide::kSend, id), -1);
  }
  EXPECT_EQ(table.waiting(), 3);
  for (RequestId id = 0; id < 3; ++id) {
    EXPECT_EQ(table.match_or_wait(0, 1, 5, PostSide::kRecv, 10 + id), id);
  }
  EXPECT_EQ(table.waiting(), 0);
}

TEST(PostTableTest, KeysAreSenderReceiverTagAndSide) {
  PostTable table(3);
  EXPECT_EQ(table.match_or_wait(0, 1, 5, PostSide::kSend, 1), -1);
  // Another tag, the reverse pair, another receiver, and the same side
  // all leave the send waiting.
  EXPECT_EQ(table.match_or_wait(0, 1, 6, PostSide::kRecv, 2), -1);
  EXPECT_EQ(table.match_or_wait(1, 0, 5, PostSide::kRecv, 3), -1);
  EXPECT_EQ(table.match_or_wait(0, 2, 5, PostSide::kRecv, 4), -1);
  EXPECT_EQ(table.match_or_wait(0, 1, 5, PostSide::kSend, 5), -1);
  EXPECT_EQ(table.waiting(), 5);
  EXPECT_EQ(table.match_or_wait(0, 1, 5, PostSide::kRecv, 6), 1);
  EXPECT_EQ(table.match_or_wait(0, 1, 5, PostSide::kRecv, 7), 5);
  EXPECT_EQ(table.match_or_wait(0, 1, 6, PostSide::kSend, 8), 2);
  EXPECT_EQ(table.waiting(), 2);
}

TEST(PostTableTest, RemovesFromHeadMiddleAndTail) {
  PostTable table(2);
  for (Tag tag = 1; tag <= 3; ++tag) {
    EXPECT_EQ(table.match_or_wait(0, 1, tag, PostSide::kSend, 10 * tag), -1);
  }
  EXPECT_EQ(table.match_or_wait(0, 1, 2, PostSide::kRecv, 0), 20);  // middle
  EXPECT_EQ(table.match_or_wait(0, 1, 3, PostSide::kRecv, 0), 30);  // tail
  // The list is now the head alone; a post appended after the tail was
  // removed must still be found behind it.
  EXPECT_EQ(table.match_or_wait(0, 1, 4, PostSide::kSend, 40), -1);
  EXPECT_EQ(table.match_or_wait(0, 1, 1, PostSide::kRecv, 0), 10);  // head
  EXPECT_EQ(table.match_or_wait(0, 1, 4, PostSide::kRecv, 0), 40);
  EXPECT_EQ(table.waiting(), 0);
  // An emptied list takes new posts again.
  EXPECT_EQ(table.match_or_wait(0, 1, 1, PostSide::kRecv, 50), -1);
  EXPECT_EQ(table.match_or_wait(0, 1, 1, PostSide::kSend, 0), 50);
}

TEST(PostTableTest, FreedNodesAreReused) {
  PostTable table(4);
  for (Rank r = 1; r < 4; ++r) {
    EXPECT_EQ(table.match_or_wait(0, r, 0, PostSide::kSend, r), -1);
  }
  EXPECT_EQ(table.nodes(), 3);
  for (Rank r = 1; r < 4; ++r) {
    EXPECT_EQ(table.match_or_wait(0, r, 0, PostSide::kRecv, 0), r);
  }
  // Three waiting at once again, on other pairs and tags: no new node.
  for (Tag tag = 7; tag < 10; ++tag) {
    EXPECT_EQ(table.match_or_wait(3, 2, tag, PostSide::kRecv, tag), -1);
  }
  EXPECT_EQ(table.nodes(), 3);
  EXPECT_EQ(table.waiting(), 3);
  EXPECT_EQ(table.match_or_wait(3, 2, 8, PostSide::kSend, 0), 8);
  EXPECT_EQ(table.match_or_wait(1, 2, 0, PostSide::kSend, 0), -1);
  EXPECT_EQ(table.nodes(), 3);
  EXPECT_EQ(table.match_or_wait(1, 2, 1, PostSide::kSend, 0), -1);
  EXPECT_EQ(table.nodes(), 4);
}

TEST(PostTableTest, LeftoversGroupedAndSorted) {
  PostTable table(11);
  table.match_or_wait(10, 2, 3, PostSide::kSend, 0);
  table.match_or_wait(2, 10, 1, PostSide::kSend, 1);
  table.match_or_wait(2, 3, 8, PostSide::kRecv, 2);
  table.match_or_wait(2, 10, 1, PostSide::kSend, 3);
  table.match_or_wait(2, 3, 0, PostSide::kSend, 4);
  const std::vector<PostTable::Leftover> leftovers = table.leftovers();
  ASSERT_EQ(leftovers.size(), 4u);
  const auto expect = [&](std::size_t i, Rank sender, Rank receiver, Tag tag,
                          PostSide side, std::int64_t count) {
    EXPECT_EQ(leftovers[i].sender, sender) << i;
    EXPECT_EQ(leftovers[i].receiver, receiver) << i;
    EXPECT_EQ(leftovers[i].tag, tag) << i;
    EXPECT_EQ(leftovers[i].side, side) << i;
    EXPECT_EQ(leftovers[i].count, count) << i;
  };
  expect(0, 2, 3, 0, PostSide::kSend, 1);
  expect(1, 2, 3, 8, PostSide::kRecv, 1);
  expect(2, 2, 10, 1, PostSide::kSend, 2);
  expect(3, 10, 2, 3, PostSide::kSend, 1);
}

TEST(ProgramTest, RequestCountAndToString) {
  ProgramSet set;
  set.data_bytes = 10;
  set.token_bytes = 4;
  Program p;
  p.ops = {Op::copy(),
           Op::irecv(1, 0),
           Op::isend(1, 0),
           Op::irecv(1, kSyncTag),
           Op::wait(0),
           Op::wait_all(),
           Op::barrier()};
  set.programs = {p, Program{}};
  EXPECT_EQ(p.request_count(), 3);
  EXPECT_EQ(p.to_string(set, 0),
            "copy(bytes=10)\n"
            "irecv(peer=1, bytes=10, tag=0)\n"
            "isend(peer=1, bytes=10, tag=0)\n"
            "irecv(peer=1, bytes=4, tag=1048576)\n"
            "wait(0)\n"
            "waitall()\n"
            "barrier()\n");
}

TEST(ProgramTest, OpHoldsATagOrARequest) {
  EXPECT_EQ(sizeof(Op), 12u);
  EXPECT_EQ(Op::isend(3, 7).tag(), 7);
  EXPECT_EQ(Op::irecv(3, kSyncTag + 2).tag(), kSyncTag + 2);
  EXPECT_EQ(Op::isend(3, 7).request(), -1);
  EXPECT_EQ(Op::wait(5).request(), 5);
  EXPECT_EQ(Op::wait(5).tag(), 0);
  for (const Op op : {Op::wait_all(), Op::barrier(), Op::copy()}) {
    EXPECT_EQ(op.tag(), 0);
    EXPECT_EQ(op.request(), -1);
    EXPECT_EQ(op.peer, -1);
  }
}

TEST(ProgramSetTest, BytesFollowTheSizeRule) {
  ProgramSet set;
  set.programs.resize(3);
  set.data_bytes = 1000;
  set.token_bytes = 4;
  // A regular set: every data post and copy reads data_bytes.
  EXPECT_EQ(set.bytes(0, Op::isend(2, 0)), 1000);
  EXPECT_EQ(set.bytes(2, Op::irecv(0, 5)), 1000);
  EXPECT_EQ(set.bytes(1, Op::copy()), 1000);
  EXPECT_EQ(set.bytes(0, Op::isend(1, kSyncTag)), 4);
  EXPECT_EQ(set.bytes(1, Op::irecv(0, kSyncTag + 9)), 4);
  EXPECT_EQ(set.bytes(0, Op::wait(0)), 0);
  EXPECT_EQ(set.bytes(0, Op::wait_all()), 0);
  EXPECT_EQ(set.bytes(0, Op::barrier()), 0);
  // With a pair table a data post reads its (sender, receiver) entry
  // on either side and a copy reads (rank, rank); tokens keep theirs.
  set.pair_bytes = {0, 1, 2, 10, 11, 12, 20, 21, 22};
  EXPECT_EQ(set.bytes(0, Op::isend(2, 0)), 2);
  EXPECT_EQ(set.bytes(2, Op::irecv(0, 0)), 2);
  EXPECT_EQ(set.bytes(2, Op::isend(1, 3)), 21);
  EXPECT_EQ(set.bytes(1, Op::irecv(2, 3)), 21);
  EXPECT_EQ(set.bytes(1, Op::copy()), 11);
  EXPECT_EQ(set.bytes(2, Op::isend(1, kSyncTag)), 4);
}

TEST(ProgramSetTest, PairTableMapsZeroToOneByte) {
  EXPECT_EQ(pair_table({0, 5, 0, 7}), (std::vector<Bytes>{1, 5, 1, 7}));
}

TEST(ProgramSetTest, RelabelPermutesThePairTable) {
  // Rank r's program moves to perm[r]; entry (s, d) moves to
  // (perm[s], perm[d]), so every op still reads the size it read.
  ProgramSet set;
  set.name = "pairs";
  set.token_bytes = 4;
  set.programs.resize(3);
  set.programs[0].ops = {Op::copy(), Op::isend(1, 0), Op::irecv(2, 0)};
  set.programs[1].ops = {Op::copy(), Op::irecv(0, 0), Op::isend(2, kSyncTag)};
  set.programs[2].ops = {Op::copy(), Op::isend(0, 0), Op::irecv(1, kSyncTag)};
  set.pair_bytes = {100, 101, 102, 110, 111, 112, 120, 121, 122};
  const std::vector<Rank> perm = {2, 0, 1};
  const ProgramSet out = relabel_program_set(set, perm);
  EXPECT_EQ(out.token_bytes, 4);
  EXPECT_EQ(out.pair_bytes,
            (std::vector<Bytes>{111, 112, 110, 121, 122, 120, 101, 102, 100}));
  for (Rank r = 0; r < 3; ++r) {
    const Program& before = set.programs[static_cast<std::size_t>(r)];
    const Program& after = out.programs[static_cast<std::size_t>(perm[r])];
    ASSERT_EQ(after.ops.size(), before.ops.size());
    for (std::size_t k = 0; k < before.ops.size(); ++k) {
      EXPECT_EQ(out.bytes(perm[r], after.ops[k]),
                set.bytes(r, before.ops[k]))
          << "rank " << r << " op " << k;
    }
  }
}

}  // namespace
}  // namespace aapc::mpisim
