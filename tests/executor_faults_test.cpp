// Executor under injected faults: transfer watchdog (timeout, retry,
// abort), stragglers, the named-rank stall diagnostic, and bit-exact
// zero-fault behaviour.
#include <gtest/gtest.h>

#include <string>

#include "aapc/baselines/baselines.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::mpisim {
namespace {

using topology::make_chain;
using topology::make_single_switch;
using topology::Topology;

topology::LinkId trunk_link(const Topology& topo) {
  for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
    if (!topo.is_machine(topo.edge_source(2 * l)) &&
        !topo.is_machine(topo.edge_target(2 * l))) {
      return l;
    }
  }
  return -1;
}

/// rank 0 sends one message across the chain trunk to rank 1.
ProgramSet one_transfer(Bytes bytes) {
  ProgramSet set;
  set.name = "one-transfer";
  set.data_bytes = bytes;
  Program sender;
  sender.ops = {Op::isend(1, 0), Op::wait_all()};
  Program receiver;
  receiver.ops = {Op::irecv(0, 0), Op::wait_all()};
  set.programs = {sender, receiver};
  return set;
}

TEST(ExecutorFaultsTest, WatchdogAbortsOnPermanentlyDownLink) {
  const Topology topo = make_chain({1, 1});
  ExecutorParams exec;
  exec.wakeup_jitter_max = 0;
  exec.capacity_events = {{0.0, trunk_link(topo), 0.0}};  // down forever
  exec.transfer_timeout = 0.05;
  exec.transfer_max_retries = 2;
  Executor executor(topo, {}, exec);
  try {
    executor.run(one_transfer(1'000'000));
    FAIL() << "expected TransferAborted";
  } catch (const TransferAborted& aborted) {
    const std::string what = aborted.what();
    // The abort names the endpoints and the exhausted retry budget —
    // a named-rank diagnostic, not a hang.
    EXPECT_NE(what.find("rank 0 -> rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("3 attempt(s)"), std::string::npos) << what;
    EXPECT_NE(what.find("retries exhausted"), std::string::npos) << what;
  }
}

TEST(ExecutorFaultsTest, WatchdogRetriesThroughTransientOutage) {
  const Topology topo = make_chain({1, 1});
  const topology::LinkId trunk = trunk_link(topo);
  const simnet::NetworkParams net;
  ExecutorParams exec;
  exec.wakeup_jitter_max = 0;
  exec.record_trace = true;
  // Outage shortly after the transfer starts; restored at 100 ms.
  exec.capacity_events = {{0.001, trunk, 0.0},
                          {0.100, trunk, net.link_bandwidth_bytes_per_sec}};
  // The timeout must cover a healthy transfer (100 KB ≈ 8.6 ms at wire
  // speed) so only the outage triggers the watchdog.
  exec.transfer_timeout = 0.03;
  exec.transfer_max_retries = 10;
  Executor executor(topo, net, exec);
  const ExecutionResult result = executor.run(one_transfer(100'000));
  EXPECT_GE(result.transfer_retries, 1);
  EXPECT_EQ(result.transfer_timeouts, result.transfer_retries);
  EXPECT_GT(result.completion_time, 0.100);  // waited out the outage
  // The trace annotates the reposted transfer with its retry count.
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_GE(result.trace[0].retries, 1);
}

TEST(ExecutorFaultsTest, DownLinkWithoutWatchdogStallsWithDiagnostic) {
  const Topology topo = make_chain({1, 1});
  ExecutorParams exec;
  exec.wakeup_jitter_max = 0;
  exec.capacity_events = {{0.0, trunk_link(topo), 0.0}};
  Executor executor(topo, {}, exec);  // transfer_timeout = 0: no watchdog
  try {
    executor.run(one_transfer(1'000'000));
    FAIL() << "expected ExecutionStalled";
  } catch (const ExecutionStalled& stalled) {
    const std::string what = stalled.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("stuck transfer: rank 0 -> rank 1"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("link down?"), std::string::npos) << what;
  }
}

TEST(ExecutorFaultsTest, DeadlockDiagnosticNamesPendingRequests) {
  // Satellite: a mismatched program set must fail with a diagnostic
  // naming the blocked ranks and their pending operations.
  const Topology topo = make_single_switch(2);
  ProgramSet set;
  set.name = "mismatched";
  set.data_bytes = 4096;
  Program p0;
  p0.ops = {Op::irecv(1, 7), Op::wait_all()};
  Program p1;  // never sends
  p1.ops = {Op::irecv(0, 9), Op::wait_all()};
  set.programs = {p0, p1};
  Executor executor(topo, {}, {});
  try {
    executor.run(set);
    FAIL() << "expected ExecutionStalled";
  } catch (const ExecutionStalled& stalled) {
    const std::string what = stalled.what();
    EXPECT_NE(what.find("mismatched"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("recv from rank 1 tag=7"), std::string::npos) << what;
    EXPECT_NE(what.find("recv from rank 0 tag=9"), std::string::npos) << what;
    EXPECT_NE(what.find("(unmatched)"), std::string::npos) << what;
  }
}

TEST(ExecutorFaultsTest, StragglerSlowdownInflatesCompletion) {
  const Topology topo = make_single_switch(4);
  const ProgramSet set = baselines::lam_alltoall(4, 32_KiB);
  ExecutorParams exec;
  exec.wakeup_jitter_max = milliseconds(0.5);
  Executor healthy(topo, {}, exec);
  const SimTime t_healthy = healthy.run(set).completion_time;

  ExecutorParams slow = exec;
  slow.rank_faults = {RankFault{0, 20.0, 0.0}};
  Executor straggling(topo, {}, slow);
  const SimTime t_slow = straggling.run(set).completion_time;
  EXPECT_GT(t_slow, 1.5 * t_healthy);
}

TEST(ExecutorFaultsTest, SlowdownOnsetOnlyAffectsLaterWork) {
  // Onset far past completion: the straggler never materializes and the
  // run is bit-identical to the healthy one.
  const Topology topo = make_single_switch(4);
  const ProgramSet set = baselines::lam_alltoall(4, 32_KiB);
  ExecutorParams exec;
  Executor healthy(topo, {}, exec);
  const SimTime t_healthy = healthy.run(set).completion_time;

  ExecutorParams late = exec;
  late.rank_faults = {RankFault{0, 20.0, /*onset=*/1e6}};
  Executor unaffected(topo, {}, late);
  EXPECT_EQ(unaffected.run(set).completion_time, t_healthy);
}

TEST(ExecutorFaultsTest, EmptyFaultPlanIsBitIdentical) {
  // The acceptance bar for the whole subsystem: compiling and applying
  // an EMPTY plan (plus enabling the watchdog on a healthy network)
  // changes nothing, to the last bit.
  const Topology topo = make_single_switch(6);
  const ProgramSet set = baselines::lam_alltoall(6, 64_KiB);
  ExecutorParams exec;
  exec.record_trace = true;
  Executor baseline(topo, {}, exec);
  const ExecutionResult before = baseline.run(set);

  ExecutorParams faulty = exec;
  faults::CompiledFaults compiled =
      faults::compile(faults::FaultPlan{}, {}, topo.link_count());
  compiled.apply(faulty);
  faulty.transfer_timeout = 1e6;  // armed, never fires
  Executor after_executor(topo, {}, faulty);
  const ExecutionResult after = after_executor.run(set);

  EXPECT_EQ(before.completion_time, after.completion_time);
  EXPECT_EQ(before.rank_finish, after.rank_finish);
  EXPECT_EQ(before.message_count, after.message_count);
  EXPECT_EQ(after.transfer_timeouts, 0);
  EXPECT_EQ(after.transfer_retries, 0);
  ASSERT_EQ(before.trace.size(), after.trace.size());
  for (std::size_t i = 0; i < before.trace.size(); ++i) {
    EXPECT_EQ(before.trace[i].start, after.trace[i].start);
    EXPECT_EQ(before.trace[i].end, after.trace[i].end);
    EXPECT_EQ(after.trace[i].retries, 0);
  }
}

TEST(ExecutorFaultsTest, FaultRunsAreDeterministic) {
  // Identical plan + identical seeds => identical runs, bit for bit.
  const Topology topo = make_chain({2, 2});
  const ProgramSet set = baselines::lam_alltoall(4, 64_KiB);
  faults::FaultPlan plan;
  plan.add(faults::FaultEvent::link_degrade(0.01, trunk_link(topo), 0.5))
      .add(faults::FaultEvent::node_slowdown(0.0, 2, 3.0));
  auto run = [&] {
    ExecutorParams exec;
    exec.record_trace = true;
    exec.transfer_timeout = 10.0;
    faults::compile(plan, {}, topo.link_count()).apply(exec);
    Executor executor(topo, {}, exec);
    return executor.run(set);
  };
  const ExecutionResult a = run();
  const ExecutionResult b = run();
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.rank_finish, b.rank_finish);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].start, b.trace[i].start);
    EXPECT_EQ(a.trace[i].end, b.trace[i].end);
    EXPECT_EQ(a.trace[i].retries, b.trace[i].retries);
  }
}

}  // namespace
}  // namespace aapc::mpisim
