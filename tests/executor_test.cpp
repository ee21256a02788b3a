// Unit tests for the mpisim executor: op semantics, matching, timing,
// jitter determinism, and failure reporting; and for its post table.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
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
  Program sender;
  sender.ops = {Op::isend(1, bytes, 0), Op::wait_all()};
  Program receiver;
  receiver.ops = {Op::irecv(0, bytes, 0), Op::wait_all()};
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
  Program sender;
  sender.ops = {Op::isend(1, 1'250'000, 0), Op::isend(2, 1'250'000, 0),
                Op::wait_all()};
  Program r1;
  r1.ops = {Op::irecv(0, 1'250'000, 0), Op::wait_all()};
  Program r2;
  r2.ops = {Op::irecv(0, 1'250'000, 0), Op::wait_all()};
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
  Program p0;  // receives from 1 (req 0) and 2 (req 1); waits req 1 first
  p0.ops = {Op::irecv(1, 1'250'000, 0), Op::irecv(2, 12'500'000, 0),
            Op::wait(1), Op::wait(0)};
  Program p1;
  p1.ops = {Op::isend(0, 1'250'000, 0), Op::wait_all()};
  Program p2;
  p2.ops = {Op::isend(0, 12'500'000, 0), Op::wait_all()};
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
  Program fast;
  fast.ops = {Op::barrier()};
  Program slow;
  slow.ops = {Op::copy(2'000'000), Op::barrier()};  // 2 s of copying
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
  Program p;
  p.ops = {Op::copy(500'000'000)};
  set.programs = {p, p};
  const ExecutionResult result = executor.run(set);
  EXPECT_NEAR(result.completion_time, 0.5, 1e-9);
}

TEST(ExecutorTest, FifoMatchingSameTag) {
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set;
  set.name = "fifo";
  Program sender;
  sender.ops = {Op::isend(1, 1'000'000, 7), Op::isend(1, 2'000'000, 7),
                Op::wait_all()};
  Program receiver;  // sizes must match in posting order
  receiver.ops = {Op::irecv(0, 1'000'000, 7), Op::irecv(0, 2'000'000, 7),
                  Op::wait_all()};
  set.programs = {sender, receiver};
  EXPECT_NO_THROW(executor.run(set));
}

TEST(ExecutorTest, TagsPartitionMatching) {
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set;
  set.name = "tags";
  Program sender;
  sender.ops = {Op::isend(1, 1'000'000, 1), Op::isend(1, 2'000'000, 2),
                Op::wait_all()};
  Program receiver;  // posted in the opposite tag order
  receiver.ops = {Op::irecv(0, 2'000'000, 2), Op::irecv(0, 1'000'000, 1),
                  Op::wait_all()};
  set.programs = {sender, receiver};
  const ExecutionResult result = executor.run(set);
  EXPECT_EQ(result.message_count, 2);
}

TEST(ExecutorTest, MatchOrderAcrossTagsAndSides) {
  // Rank 0 leaves four sends to rank 1 waiting (tags 3 and 4, two each,
  // distinct sizes); rank 1 then waits a receive of tag 9 on the same
  // pair and takes the sends out of posting order — from the middle,
  // the head, then the rest — while its own send to rank 0 (tag 3, the
  // other direction) waits too. Each receive takes the oldest send of
  // its tag.
  const Topology topo = make_single_switch(2);
  ExecutorParams exec = clean_exec();
  exec.record_trace = true;
  Executor executor(topo, clean_net(), exec);
  ProgramSet set;
  set.name = "match-order";
  Program p0;
  p0.ops = {Op::isend(1, 100, 3), Op::isend(1, 200, 4),
            Op::isend(1, 300, 3), Op::isend(1, 400, 4),
            Op::wait_all(),       Op::irecv(1, 50, 3),
            Op::isend(1, 900, 9), Op::wait_all()};
  Program p1;
  p1.ops = {Op::isend(0, 50, 3),  Op::irecv(0, 900, 9),
            Op::irecv(0, 200, 4), Op::irecv(0, 100, 3),
            Op::irecv(0, 400, 4), Op::irecv(0, 300, 3),
            Op::wait_all()};
  set.programs = {p0, p1};
  const ExecutionResult result = executor.run(set);
  struct Expected {
    Rank src;
    Rank dst;
    Tag tag;
    Bytes bytes;
  };
  const Expected expected[] = {{0, 1, 4, 200}, {0, 1, 3, 100},
                               {0, 1, 4, 400}, {0, 1, 3, 300},
                               {1, 0, 3, 50},  {0, 1, 9, 900}};
  ASSERT_EQ(result.trace.size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    const MessageTrace& got = result.trace[i];
    EXPECT_EQ(got.src, expected[i].src) << "match " << i;
    EXPECT_EQ(got.dst, expected[i].dst) << "match " << i;
    EXPECT_EQ(got.tag, expected[i].tag) << "match " << i;
    EXPECT_EQ(got.bytes, expected[i].bytes) << "match " << i;
  }
}

TEST(ExecutorTest, MatchedSizeMismatchRejected) {
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set;
  set.name = "size-mismatch";
  Program p0;
  p0.ops = {Op::isend(1, 100, 0), Op::wait_all()};
  Program p1;
  p1.ops = {Op::irecv(0, 200, 0), Op::wait_all()};
  set.programs = {p0, p1};
  try {
    executor.run(set);
    FAIL() << "a send matched to a receive of another size must throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=0"), std::string::npos) << what;
    EXPECT_NE(what.find("100"), std::string::npos) << what;
    EXPECT_NE(what.find("200"), std::string::npos) << what;
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
  set.programs.resize(2);
  for (Tag tag = 0; tag < kExchanges; ++tag) {
    set.programs[0].ops.push_back(Op::isend(1, 64, tag));
    set.programs[0].ops.push_back(Op::wait(tag));
    set.programs[1].ops.push_back(Op::irecv(0, 64, tag));
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
  Program p0;  // both wait for a message that is never sent
  p0.ops = {Op::irecv(1, 100, 0), Op::wait_all()};
  Program p1;
  p1.ops = {Op::irecv(0, 100, 0), Op::wait_all()};
  set.programs = {p0, p1};
  EXPECT_THROW(executor.run(set), InvalidArgument);
}

TEST(ExecutorTest, UnmatchedSendReported) {
  const Topology topo = make_single_switch(2);
  Executor executor(topo, clean_net(), clean_exec());
  ProgramSet set;
  set.name = "unmatched";
  Program p0;  // fire-and-forget isend with no matching receive
  p0.ops = {Op::isend(1, 100, 0)};
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
  set.programs.resize(11);
  set.programs[2].ops = {Op::isend(3, 16, 0), Op::isend(10, 16, 1),
                         Op::isend(10, 16, 1), Op::irecv(3, 16, 5),
                         Op::irecv(10, 16, 6)};
  set.programs[3].ops = {Op::isend(2, 16, 7), Op::isend(10, 16, 0),
                         Op::irecv(2, 16, 8), Op::irecv(10, 16, 2),
                         Op::irecv(10, 16, 2), Op::irecv(10, 16, 2)};
  set.programs[10].ops = {Op::isend(2, 16, 3), Op::irecv(2, 16, 9),
                          Op::irecv(3, 16, 1)};
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
  Program p0;
  p0.ops = {Op::isend(0, 100, 0)};
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
  Program p;
  p.ops = {Op::copy(10), Op::irecv(1, 10, 0), Op::isend(1, 10, 0),
           Op::wait(0), Op::wait_all(), Op::barrier()};
  EXPECT_EQ(p.request_count(), 2);
  const std::string text = p.to_string();
  EXPECT_NE(text.find("isend"), std::string::npos);
  EXPECT_NE(text.find("barrier"), std::string::npos);
}

}  // namespace
}  // namespace aapc::mpisim
