// The end-to-end data-integrity ledger: fingerprint binding, the
// exactly-once audit, each violation class (missing, duplicated,
// corrupted, misdelivered), and the executor wiring — including the
// watchdog-retry path, which must still deliver exactly once.
#include <gtest/gtest.h>

#include <string>

#include "aapc/core/scheduler.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/mpisim/integrity.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::mpisim {
namespace {

using topology::make_chain;
using topology::make_single_switch;
using topology::Topology;

TEST(FingerprintTest, DeterministicAndSensitiveToEveryField) {
  const Fingerprint base = message_fingerprint(3, 7, 42, 65536, 0x5EED);
  EXPECT_EQ(base, message_fingerprint(3, 7, 42, 65536, 0x5EED));
  EXPECT_NE(base, message_fingerprint(4, 7, 42, 65536, 0x5EED));  // src
  EXPECT_NE(base, message_fingerprint(3, 8, 42, 65536, 0x5EED));  // dst
  EXPECT_NE(base, message_fingerprint(3, 7, 43, 65536, 0x5EED));  // tag
  EXPECT_NE(base, message_fingerprint(3, 7, 42, 65537, 0x5EED));  // bytes
  EXPECT_NE(base, message_fingerprint(3, 7, 42, 65536, 0x5EEE));  // salt
  // Swapping src and dst must not collide: the mix is chained, not a
  // symmetric combination.
  EXPECT_NE(message_fingerprint(3, 7, 42, 65536, 0x5EED),
            message_fingerprint(7, 3, 42, 65536, 0x5EED));
}

TEST(DeliveryLedgerTest, ExactlyOnceDeliveryAudit) {
  DeliveryLedger ledger;
  const DeliveryLedger::EntryId a = ledger.record_send(0, 1, 5, 1024);
  const DeliveryLedger::EntryId b = ledger.record_send(1, 0, 5, 1024);
  ledger.record_delivery(a, 0, 1, 5, 1024);
  ledger.record_delivery(b, 1, 0, 5, 1024);
  const IntegrityReport report = ledger.report();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.expected, 2);
  EXPECT_EQ(report.delivered, 2);
  EXPECT_EQ(report.summary().find("ok"), 0u) << report.summary();
}

TEST(DeliveryLedgerTest, MissingDeliveryIsFlagged) {
  DeliveryLedger ledger;
  const DeliveryLedger::EntryId a = ledger.record_send(0, 1, 0, 4096);
  ledger.record_send(2, 3, 0, 4096);  // never delivered
  ledger.record_delivery(a, 0, 1, 0, 4096);
  const IntegrityReport report = ledger.report();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.missing, 1);
  EXPECT_EQ(report.duplicated, 0);
  EXPECT_NE(report.summary().find("missing"), std::string::npos)
      << report.summary();
}

TEST(DeliveryLedgerTest, DuplicateDeliveryIsFlagged) {
  DeliveryLedger ledger;
  const DeliveryLedger::EntryId a = ledger.record_send(0, 1, 0, 4096);
  ledger.record_delivery(a, 0, 1, 0, 4096);
  ledger.record_delivery(a, 0, 1, 0, 4096);  // delivered twice
  const IntegrityReport report = ledger.report();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.duplicated, 1);
  EXPECT_EQ(report.missing, 0);
  EXPECT_NE(report.summary().find("duplicated"), std::string::npos)
      << report.summary();
}

TEST(DeliveryLedgerTest, CorruptedFingerprintIsFlagged) {
  DeliveryLedger ledger;
  const DeliveryLedger::EntryId a = ledger.record_send(0, 1, 0, 4096);
  // Right endpoints, wrong checksum: a corrupted payload.
  ledger.record_delivery_with_fingerprint(a, 0, 1, 0, 4096, 0xBADBADBADull);
  const IntegrityReport report = ledger.report();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.corrupted, 1);
  EXPECT_EQ(report.misdelivered, 0);
  EXPECT_NE(report.summary().find("corrupted"), std::string::npos)
      << report.summary();
}

TEST(DeliveryLedgerTest, MisdeliveryIsFlaggedNotCorruption) {
  DeliveryLedger ledger;
  const DeliveryLedger::EntryId a = ledger.record_send(0, 1, 0, 4096);
  // The receiver's view names the wrong destination rank — a transfer
  // bound to the wrong request pair, distinct from payload corruption.
  ledger.record_delivery(a, 0, 2, 0, 4096);
  const IntegrityReport report = ledger.report();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.misdelivered, 1);
  EXPECT_EQ(report.corrupted, 0);
  EXPECT_NE(report.summary().find("misdelivered"), std::string::npos)
      << report.summary();
}

TEST(DeliveryLedgerTest, RetriesAreAuditedButNotViolations) {
  DeliveryLedger ledger;
  const DeliveryLedger::EntryId a = ledger.record_send(0, 1, 0, 4096);
  ledger.record_retry(a);
  ledger.record_retry(a);
  ledger.record_delivery(a, 0, 1, 0, 4096);
  const IntegrityReport report = ledger.report();
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.retried, 2);
}

TEST(IntegrityExecutorTest, LoweredAlltoallAuditsEveryTransfer) {
  const Topology topo = make_single_switch(6);
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const mpisim::ProgramSet programs =
      lowering::lower_schedule(topo, schedule, 16384);
  ExecutorParams exec;
  exec.wakeup_jitter_max = 0;
  Executor executor(topo, {}, exec);
  const ExecutionResult result = executor.run(programs);
  EXPECT_TRUE(result.integrity.ok()) << result.integrity.summary();
  // Every matched transfer — data and sync messages alike — is stamped
  // and audited.
  EXPECT_EQ(result.integrity.expected, result.message_count);
  EXPECT_EQ(result.integrity.delivered, result.message_count);
  EXPECT_EQ(result.integrity.retried, 0);
}

TEST(IntegrityExecutorTest, WatchdogRetryStillDeliversExactlyOnce) {
  // Mirror of ExecutorFaultsTest.WatchdogRetriesThroughTransientOutage:
  // the trunk goes down mid-transfer and comes back at 100 ms, the
  // watchdog reposts — the ledger must see the retry and exactly one
  // delivery, not a duplicate.
  const Topology topo = make_chain({1, 1});
  topology::LinkId trunk = -1;
  for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
    if (!topo.is_machine(topo.edge_source(2 * l)) &&
        !topo.is_machine(topo.edge_target(2 * l))) {
      trunk = l;
    }
  }
  ASSERT_GE(trunk, 0);
  const simnet::NetworkParams net;
  ExecutorParams exec;
  exec.wakeup_jitter_max = 0;
  exec.capacity_events = {{0.001, trunk, 0.0},
                          {0.100, trunk, net.link_bandwidth_bytes_per_sec}};
  exec.transfer_timeout = 0.03;
  exec.transfer_max_retries = 10;
  Executor executor(topo, net, exec);

  ProgramSet set;
  set.name = "one-transfer";
  set.data_bytes = 100'000;
  Program sender;
  sender.ops = {Op::isend(1, 0), Op::wait_all()};
  Program receiver;
  receiver.ops = {Op::irecv(0, 0), Op::wait_all()};
  set.programs = {sender, receiver};

  const ExecutionResult result = executor.run(set);
  EXPECT_GE(result.transfer_retries, 1);
  EXPECT_TRUE(result.integrity.ok()) << result.integrity.summary();
  EXPECT_EQ(result.integrity.expected, 1);
  EXPECT_EQ(result.integrity.delivered, 1);
  EXPECT_EQ(result.integrity.retried, result.transfer_retries);
}

}  // namespace
}  // namespace aapc::mpisim
