// Loopback end-to-end tests for the aapc_netd server (netd/server.hpp,
// docs/NETD.md): bit-identity of TCP responses against the in-process
// ScheduleService, the pressure valves (quota, connection cap,
// dispatch overload) answering with structured error frames, protocol
// violations, answers no frame can carry, mid-frame disconnects, resets
// with answers queued or mid-stream, graceful drain, and concurrent
// connections. The 1024-rank answers that must block mid-stream share
// one in-process reference compile; other sizes stay moderate so the
// suite is TSan-friendly.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/common/units.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/netd/client.hpp"
#include "aapc/netd/server.hpp"
#include "aapc/netd/wire.hpp"
#include "aapc/stp/stp.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"

namespace aapc::netd {
namespace {

using topology::NodeId;
using topology::Topology;

/// The same physical cluster under a fresh rank/switch labeling.
Topology shuffled_copy(const Topology& topo, Rng& rng) {
  const std::int32_t n = topo.node_count();
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  rng.shuffle(order);
  Topology out;
  std::vector<NodeId> new_id(static_cast<std::size_t>(n));
  for (const NodeId old : order) {
    new_id[static_cast<std::size_t>(old)] =
        topo.is_machine(old) ? out.add_machine() : out.add_switch();
  }
  for (topology::LinkId l = 0; l < topo.link_count(); ++l) {
    const auto [a, b] = topo.link_endpoints(l);
    out.add_link(new_id[static_cast<std::size_t>(a)],
                 new_id[static_cast<std::size_t>(b)]);
  }
  out.finalize();
  return out;
}

/// Starts a server on an ephemeral loopback port.
std::unique_ptr<Server> start_server(ServerOptions options = {}) {
  options.port = 0;
  auto server = std::make_unique<Server>(options);
  server->start();
  return server;
}

/// `count` alltoall requests for `topo` at 64 KiB, ids 0..count-1, as
/// one byte string to pipeline on a connection.
std::string pipelined_requests(const Topology& topo, std::uint64_t count) {
  RequestFrame request;
  request.message_bytes = 64_KiB;
  request.tenant = "pipeline";
  request.topology_text = topology::serialize_topology(topo);
  std::string bytes;
  for (std::uint64_t id = 0; id < count; ++id) {
    request.request_id = id;
    bytes += encode_request(request);
  }
  return bytes;
}

/// The 1024-rank fat tree (make_fat_tree(16, 8, 8)) whose 10.4 MB answer
/// is larger than the loopback socket buffers, so its stream blocks.
const Topology& big_tree() {
  static const Topology topo = topology::make_fat_tree(16, 8, 8);
  return topo;
}

/// The in-process service's JSON for big_tree() at 64 KiB, compiled once
/// for the whole suite.
const std::string& big_tree_json() {
  static const std::string json = [] {
    service::ScheduleService reference;
    return core::schedule_to_json(reference.compile(big_tree(), 64_KiB).schedule,
                                  big_tree().machine_count());
  }();
  return json;
}

/// A request frame for big_tree() at 64 KiB under `request_id`.
std::string big_tree_request(std::uint64_t request_id) {
  RequestFrame request;
  request.request_id = request_id;
  request.message_bytes = 64_KiB;
  request.tenant = "pipeline";
  request.topology_text = topology::serialize_topology(big_tree());
  return encode_request(request);
}

/// Waits (60 s at most) until the server has encoded `count` responses,
/// as its response-frame histogram counts them.
void wait_for_response_frames(const Server& server, std::uint64_t count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    const obs::RegistrySnapshot snapshot = server.metrics_snapshot();
    const obs::SeriesSnapshot* frames =
        snapshot.find("aapc_netd_response_frame_bytes");
    if (frames != nullptr &&
        frames->histogram.count >= static_cast<std::int64_t>(count)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "the server did not encode " << count << " responses";
}

TEST(NetdServerTest, LoopbackResponsesBitIdenticalToInProcessService) {
  const auto server = start_server();
  Client client("127.0.0.1", server->port());
  service::ScheduleService reference;
  Rng rng(17);
  const Topology bases[] = {topology::make_paper_figure1(),
                            topology::make_paper_topology_b(),
                            topology::make_paper_topology_c()};
  for (const Topology& base : bases) {
    for (const Bytes msize : {8_KiB, 256_KiB}) {
      // Once under the generator labeling, once relabeled: the wire
      // must preserve the relabeling semantics of docs/SERVICE.md.
      for (const Topology& topo : {base, shuffled_copy(base, rng)}) {
        const ResponseFrame over_wire = client.compile(topo, msize);
        const service::CompiledRoutine in_process =
            reference.compile(topo, msize);
        EXPECT_EQ(over_wire.schedule_json,
                  core::schedule_to_json(in_process.schedule,
                                         topo.machine_count()));
        EXPECT_EQ(over_wire.to_canonical, in_process.to_canonical);
        EXPECT_EQ(over_wire.shard, 0u);
      }
    }
  }
}

TEST(NetdServerTest, PipelinedLargeResponsesBitIdenticalToInProcessService) {
  // Fourteen requests pipelined on one connection to two dispatchers:
  // twelve alternate two kinds on a relabeled 256-rank fat tree (~0.6 MB
  // answers), and two ask for the 1024-rank tree (10.4 MB each), ~28 MB
  // in all while the client reads nothing. Each answer streams behind
  // its prefix; the others queue behind a blocked stream, so frames
  // that interleaved on the wire would fail to decode.
  ServerOptions options;
  options.dispatch_threads = 2;
  const auto server = start_server(options);
  Client client("127.0.0.1", server->port());
  Rng rng(41);
  const Topology topo = shuffled_copy(topology::make_fat_tree(8, 4, 8), rng);
  ASSERT_EQ(topo.machine_count(), 256);
  service::ScheduleService reference;
  const core::CollectiveKind kinds[] = {core::CollectiveKind::kAlltoall,
                                        core::CollectiveKind::kAllgather};
  std::string expected_json[2];
  std::vector<topology::Rank> to_canonical;
  for (int k = 0; k < 2; ++k) {
    const service::CompiledRoutine in_process =
        reference.compile(topo, 64_KiB, kinds[k]);
    expected_json[k] =
        core::schedule_to_json(in_process.schedule, topo.machine_count());
    ASSERT_GT(expected_json[k].size(), 500'000u);
    to_canonical = in_process.to_canonical;
  }

  constexpr std::uint64_t kRequests = 14;
  const auto is_big = [](std::uint64_t id) { return id == 3 || id == 8; };
  RequestFrame request;
  request.message_bytes = 64_KiB;
  request.tenant = "pipeline";
  request.topology_text = topology::serialize_topology(topo);
  std::string pipelined;
  for (std::uint64_t id = 0; id < kRequests; ++id) {
    if (is_big(id)) {
      pipelined += big_tree_request(id);
      continue;
    }
    request.request_id = id;
    request.kind = kinds[id % 2];
    pipelined += encode_request(request);
  }
  client.send_raw(pipelined);
  // Read nothing until the server has encoded every response, so the
  // socket buffers fill first.
  wait_for_response_frames(*server, kRequests);

  std::vector<bool> answered(kRequests, false);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const ResponseFrame response = decode_response(client.read_frame());
    ASSERT_LT(response.request_id, kRequests);
    EXPECT_FALSE(answered[response.request_id])
        << "request " << response.request_id << " answered twice";
    answered[response.request_id] = true;
    if (is_big(response.request_id)) {
      EXPECT_EQ(response.schedule_json, big_tree_json())
          << "request " << response.request_id;
      continue;
    }
    EXPECT_EQ(response.schedule_json, expected_json[response.request_id % 2])
        << "request " << response.request_id;
    EXPECT_EQ(response.to_canonical, to_canonical);
  }
}

TEST(NetdServerTest, CacheHitAndCoalesceFlagsTravelTheWire) {
  const auto server = start_server();
  Client client("127.0.0.1", server->port());
  const Topology topo = topology::make_paper_figure1();
  const ResponseFrame first = client.compile(topo, 8_KiB);
  EXPECT_FALSE(first.cache_hit);
  const ResponseFrame second = client.compile(topo, 8_KiB);
  EXPECT_TRUE(second.cache_hit);
  // Isomorphic relabelings share the canonical artifact.
  Rng rng(23);
  const ResponseFrame relabeled =
      client.compile(shuffled_copy(topo, rng), 8_KiB);
  EXPECT_TRUE(relabeled.cache_hit);
  EXPECT_EQ(relabeled.canonical_hash, first.canonical_hash);
}

TEST(NetdServerTest, MetricsRequestReturnsMergedRegistry) {
  const auto server = start_server();
  Client client("127.0.0.1", server->port());
  (void)client.compile(topology::make_paper_figure1(), 8_KiB);
  const std::string json = client.fetch_metrics_json();
  EXPECT_NE(json.find("aapc_netd_requests_total"), std::string::npos);
  EXPECT_NE(json.find("aapc_netd_request_seconds"), std::string::npos);
  // The service's series appear as the service exports them, with no
  // label added.
  EXPECT_NE(json.find("aapc_service_requests_total"), std::string::npos);
  EXPECT_EQ(json.find("\"shard\""), std::string::npos);
}

TEST(NetdServerTest, InvalidTopologyAnswersStructuredErrorAndKeepsConnection) {
  const auto server = start_server();
  Client client("127.0.0.1", server->port());
  try {
    (void)client.compile_serialized("not a topology at all", 8_KiB);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidRequest);
  }
  // The connection survives a request-scoped failure.
  const ResponseFrame ok =
      client.compile(topology::make_paper_figure1(), 8_KiB);
  EXPECT_FALSE(ok.schedule_json.empty());
}

TEST(NetdServerTest, BadCollectiveKindAnswersStructuredErrorAndKeepsConnection) {
  const auto server = start_server();
  Client client("127.0.0.1", server->port());
  RequestFrame request;
  request.request_id = 77;
  request.message_bytes = 8_KiB;
  request.topology_text =
      topology::serialize_topology(topology::make_paper_figure1());
  std::string bytes = encode_request(request);
  // Re-stamp the kind byte (8 bytes from the end: kind u8 + 3 reserved
  // bytes + empty-set count u32) to a value off the enum.
  bytes[bytes.size() - 8] = static_cast<char>(9);
  client.send_raw(bytes);
  const Frame frame = client.read_frame();
  ASSERT_EQ(frame.header.type, FrameType::kError);
  const ErrorFrame error = decode_error(frame);
  EXPECT_EQ(error.code, ErrorCode::kInvalidRequest);
  EXPECT_EQ(error.request_id, 77u);
  // A bad kind is a bad request, not a torn stream: unlike the
  // malformed-frame path the connection stays open and serves the
  // next compile.
  const ResponseFrame ok =
      client.compile(topology::make_paper_figure1(), 8_KiB);
  EXPECT_FALSE(ok.schedule_json.empty());
}

TEST(NetdServerTest, CompilesEveryCollectiveKindOverLoopback) {
  const auto server = start_server();
  Client client("127.0.0.1", server->port());
  service::ScheduleService reference;
  const Topology topo = topology::make_paper_figure1();
  const std::int32_t n = topo.machine_count();
  core::SparseNeighbors ring(static_cast<std::size_t>(n));
  for (topology::Rank r = 0; r < n; ++r) {
    ring[static_cast<std::size_t>(r)] = {(r + 1) % n, (r + n - 1) % n};
  }
  struct Case {
    core::CollectiveKind kind;
    core::SparseNeighbors neighbors;
  };
  const std::vector<Case> cases{
      {core::CollectiveKind::kAlltoall, {}},
      {core::CollectiveKind::kAllgather, {}},
      {core::CollectiveKind::kReduceScatter, {}},
      {core::CollectiveKind::kSparseAlltoall, ring},
  };
  for (const Case& c : cases) {
    const ResponseFrame over_wire =
        client.compile(topo, 8_KiB, "default", c.kind, c.neighbors);
    const service::CompiledRoutine in_process =
        reference.compile(topo, 8_KiB, c.kind, c.neighbors);
    EXPECT_EQ(over_wire.schedule_json,
              core::schedule_to_json(in_process.schedule, n))
        << core::collective_kind_name(c.kind);
    EXPECT_EQ(in_process.schedule.kind, c.kind);
  }
  // Neighbor sets on a non-sparse kind are a request-scoped error.
  try {
    (void)client.compile(topo, 8_KiB, "default",
                         core::CollectiveKind::kAllgather, ring);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidRequest);
  } catch (const Error&) {
    // encode-side rejection is also acceptable — nothing hit the wire
  }
  EXPECT_FALSE(
      client.compile(topo, 8_KiB).schedule_json.empty());
}

TEST(NetdServerTest, AnswerPastMaxPayloadIsRefusedBeforeCompiling) {
  // A 1536-rank alltoall needs a ~25 MB answer, past kMaxPayload (16 MiB):
  // refused from the request alone, with nothing compiled or cached.
  const auto server = start_server();
  Client client("127.0.0.1", server->port());
  const Topology topo = topology::make_fat_tree(16, 8, 12);
  ASSERT_EQ(topo.machine_count(), 1536);
  try {
    (void)client.compile(topo, 64_KiB);
    ADD_FAILURE() << "a 1536-rank answer was served";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidRequest);
    EXPECT_NE(std::string(e.what()).find("kMaxPayload"), std::string::npos)
        << e.what();
  }
  const obs::RegistrySnapshot snapshot = server->metrics_snapshot();
  EXPECT_EQ(snapshot.value("aapc_service_cache_misses_total"), 0.0);
  EXPECT_EQ(snapshot.value("aapc_service_cache_bytes"), 0.0);
  EXPECT_EQ(snapshot.value("aapc_netd_requests_total"), 0.0);
  // The connection stays usable.
  EXPECT_FALSE(client.compile(topology::make_paper_figure1(), 8_KiB)
                   .schedule_json.empty());
}

TEST(NetdServerTest, MalformedFrameAnswersProtocolErrorThenCloses) {
  const auto server = start_server();
  Client client("127.0.0.1", server->port());
  std::string garbage(64, '\x5a');  // wrong magic from byte 0
  client.send_raw(garbage);
  const Frame frame = client.read_frame();
  ASSERT_EQ(frame.header.type, FrameType::kError);
  EXPECT_EQ(decode_error(frame).code, ErrorCode::kProtocol);
  // After answering, the server closes: the next read must fail
  // rather than hang.
  EXPECT_THROW((void)client.read_frame(), Error);
}

TEST(NetdServerTest, TenantQuotaAnswersQuotaExceededWithRetryHint) {
  ServerOptions options;
  options.admission.tenant_rate = 0.001;  // effectively no refill
  options.admission.tenant_burst = 2;
  const auto server = start_server(options);
  Client client("127.0.0.1", server->port());
  const Topology topo = topology::make_paper_figure1();
  (void)client.compile(topo, 8_KiB, "greedy");
  (void)client.compile(topo, 8_KiB, "greedy");
  try {
    (void)client.compile(topo, 8_KiB, "greedy");
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kQuotaExceeded);
    EXPECT_GT(e.retry_after_seconds(), 0.0);
  }
  // Quotas are per tenant: another tenant is unaffected.
  EXPECT_FALSE(client.compile(topo, 8_KiB, "patient").schedule_json.empty());
}

TEST(NetdServerTest, ConnectionCapRefusesWithStructuredFrame) {
  ServerOptions options;
  options.admission.max_connections = 1;
  const auto server = start_server(options);
  Client first("127.0.0.1", server->port());
  (void)first.compile(topology::make_paper_figure1(), 8_KiB);
  Client second("127.0.0.1", server->port());
  const Frame frame = second.read_frame();
  ASSERT_EQ(frame.header.type, FrameType::kError);
  EXPECT_EQ(decode_error(frame).code, ErrorCode::kConnectionLimit);
  // The admitted connection keeps working.
  EXPECT_TRUE(first.compile(topology::make_paper_figure1(), 8_KiB).cache_hit);
}

TEST(NetdServerTest, DispatchOverloadAnswersOverloadedWithRetryHint) {
  ServerOptions options;
  options.dispatch_threads = 1;
  options.dispatch_queue_capacity = 1;
  options.service.compiler_threads = 1;
  const auto server = start_server(options);

  constexpr int kClients = 8;
  std::atomic<int> served{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        Client client("127.0.0.1", server->port());
        Rng rng(1000 + static_cast<std::uint64_t>(t));
        // Distinct random clusters: every request is a cache miss, so
        // the single dispatcher compiles while its one-slot queue fills
        // and the queue must answer for the rest.
        topology::RandomTreeOptions tree;
        tree.switches = 3;
        tree.machines = 16;
        const Topology topo = topology::make_random_tree(rng, tree);
        (void)client.compile(topo, 64_KiB);
        served.fetch_add(1);
      } catch (const RemoteError& e) {
        if (e.code() == ErrorCode::kOverloaded) {
          EXPECT_GT(e.retry_after_seconds(), 0.0);
          overloaded.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      } catch (const std::exception&) {
        other.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Every request got a definite outcome — served or a structured
  // overload frame; never a dropped connection or unexpected error.
  EXPECT_EQ(served.load() + overloaded.load(), kClients);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(overloaded.load(), 1);
}

TEST(NetdServerTest, MidFrameDisconnectIsCountedNotFatal) {
  const auto server = start_server();
  {
    Client rude("127.0.0.1", server->port());
    const std::string bytes = encode_request([] {
      RequestFrame request;
      request.request_id = 1;
      request.message_bytes = 8_KiB;
      request.tenant = "rude";
      request.topology_text =
          topology::serialize_topology(topology::make_paper_figure1());
      return request;
    }());
    rude.send_raw(bytes.substr(0, bytes.size() / 2));
    rude.close();  // hang up with half a frame buffered server-side
  }
  // The server keeps serving; the disconnect shows up as a counter.
  Client polite("127.0.0.1", server->port());
  EXPECT_FALSE(
      polite.compile(topology::make_paper_figure1(), 8_KiB)
          .schedule_json.empty());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  double count = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    count = server->metrics_snapshot().value(
        "aapc_netd_midframe_disconnects_total");
    if (count >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(count, 1);
}

TEST(NetdServerTest, StopDrainsInFlightRequestsGracefully) {
  ServerOptions options;
  options.drain_deadline_seconds = 60;
  const auto server = start_server(options);
  const Topology topo = topology::make_fat_tree(8, 4, 8);
  ResponseFrame response;
  std::string failure;
  std::thread tenant([&] {
    try {
      Client client("127.0.0.1", server->port());
      response = client.compile(topo, 64_KiB);
    } catch (const std::exception& e) {
      // kShuttingDown and a transport tear alike: a dispatched request
      // must be answered in full.
      failure = e.what();
    }
  });
  // The service counts the miss before it submits the compilation, so
  // once the counter reads 1 the request is dispatched and in flight.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server->metrics_snapshot().value("aapc_service_cache_misses_total") <
             1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->stop();
  tenant.join();
  EXPECT_TRUE(failure.empty()) << failure;
  service::ScheduleService reference;
  EXPECT_EQ(response.schedule_json,
            core::schedule_to_json(reference.compile(topo, 64_KiB).schedule,
                                   topo.machine_count()));
  // Stopped means stopped: new connections are refused.
  EXPECT_THROW(Client("127.0.0.1", server->port()), Error);
}

TEST(NetdServerTest, StopFlushesEveryQueuedResponseBeforeClosing) {
  // A 1024-rank answer (10.4 MB) blocked mid-stream, then thirty-two
  // ~0.6 MB answers queued behind it on the same connection, all encoded
  // before stop() and read only once it has begun: ~30 MB, several times
  // what the loopback socket buffers hold (~4 MB), so stop() must keep
  // streaming until the client has read every byte.
  ServerOptions options;
  options.drain_deadline_seconds = 60;
  const auto server = start_server(options);
  const Topology topo = topology::make_fat_tree(8, 4, 8);
  service::ScheduleService reference;
  const std::string expected = core::schedule_to_json(
      reference.compile(topo, 64_KiB).schedule, topo.machine_count());
  constexpr std::uint64_t kRequests = 32;
  constexpr std::uint64_t kBigId = kRequests;
  Client client("127.0.0.1", server->port());
  client.send_raw(big_tree_request(kBigId));
  wait_for_response_frames(*server, 1);
  client.send_raw(pipelined_requests(topo, kRequests));
  wait_for_response_frames(*server, kRequests + 1);

  std::thread stopper([&] { server->stop(); });
  // stop() closes the listener first, so a refused connect means the
  // shutdown is under way.
  while (true) {
    try {
      Client probe("127.0.0.1", server->port());
    } catch (const Error&) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::vector<bool> answered(kRequests + 1, false);
  std::uint64_t read = 0;
  try {
    for (; read < kRequests + 1; ++read) {
      const ResponseFrame response = decode_response(client.read_frame());
      if (response.request_id > kBigId || answered[response.request_id]) {
        ADD_FAILURE() << "unexpected request id " << response.request_id;
        break;
      }
      answered[response.request_id] = true;
      EXPECT_EQ(response.schedule_json,
                response.request_id == kBigId ? big_tree_json() : expected)
          << "request " << response.request_id;
    }
  } catch (const Error& e) {
    ADD_FAILURE() << "after " << read << " of " << kRequests + 1
                  << " answers: " << e.what();
  }
  stopper.join();
  EXPECT_EQ(read, kRequests + 1);
  const obs::RegistrySnapshot snapshot = server->metrics_snapshot();
  EXPECT_EQ(snapshot.value("aapc_netd_response_drops_total"), 0.0);
  // The 1024-rank answer blocked before the client read a byte, and the
  // drain wrote the rest of it.
  EXPECT_GE(snapshot.value("aapc_netd_response_resumes_total"), 1.0);
}

TEST(NetdServerTest, StopClosesAnUnreadConnectionAtTheDrainDeadline) {
  // A client that never reads cannot hold stop() past the drain
  // deadline; its connection closes with output unsent, counted once.
  ServerOptions options;
  options.drain_deadline_seconds = 1;
  const auto server = start_server(options);
  constexpr std::uint64_t kRequests = 16;
  Client client("127.0.0.1", server->port());
  client.send_raw(
      pipelined_requests(topology::make_fat_tree(8, 4, 8), kRequests));
  wait_for_response_frames(*server, kRequests);
  const auto begin = std::chrono::steady_clock::now();
  server->stop();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - begin;
  // The loop checks the deadline at least every 100 ms; the rest of the
  // second is slack for thread joins on a loaded host.
  EXPECT_LT(took.count(), 2.0);
  EXPECT_EQ(server->metrics_snapshot().value("aapc_netd_response_drops_total"),
            1.0);
}

/// A blocking loopback socket connected to `port`; a nonzero
/// `receive_buffer` fixes its SO_RCVBUF before the connect, so the
/// kernel cannot take an answer larger than the two socket buffers.
int dial_loopback(std::uint16_t port, int receive_buffer = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  if (receive_buffer > 0) {
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                           sizeof(receive_buffer)),
              0);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  for (std::size_t sent = 0; sent < bytes.size();) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// Closes `fd` with a reset (SO_LINGER 0), then waits (10 s at most)
/// until the server counts `drops` dropped responses and no open
/// connection; returns the drop count it last read.
double reset_and_wait(int fd, const Server& server, double drops) {
  const linger reset{/*l_onoff=*/1, /*l_linger=*/0};
  EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)),
            0);
  ::close(fd);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  double read = 0;
  double active = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    const obs::RegistrySnapshot snapshot = server.metrics_snapshot();
    read = snapshot.value("aapc_netd_response_drops_total");
    active = snapshot.value("aapc_netd_connections_active");
    if (read >= drops && active == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(active, 0.0);
  return read;
}

TEST(NetdServerTest, ResetWithAnswersQueuedCountsADropAndKeepsServing) {
  // Sixteen ~0.6 MB answers pipelined on one connection, more than the
  // loopback socket buffers take, then a reset (SO_LINGER 0) before the
  // client reads a byte: the connection closes with output unsent, and
  // that counts as a dropped response.
  const auto server = start_server();
  const Topology topo = topology::make_fat_tree(8, 4, 8);
  constexpr std::uint64_t kRequests = 16;
  const int fd = dial_loopback(server->port());
  send_all(fd, pipelined_requests(topo, kRequests));
  wait_for_response_frames(*server, kRequests);
  const double drops = reset_and_wait(fd, *server, 1);
  EXPECT_GE(drops, 1.0);

  // A reset in the middle of one streamed answer: the client reads the
  // first bytes of a 1024-rank answer, so its stream has begun, and with
  // a 64 KiB receive buffer it cannot have ended (10.4 MB against at
  // most 4 MiB of send buffer), then resets. That is exactly one more
  // drop, whichever thread sees the reset first.
  const int mid = dial_loopback(server->port(), 64 << 10);
  send_all(mid, big_tree_request(1));
  char head[kHeaderSize];
  for (std::size_t got = 0; got < sizeof(head);) {
    const ssize_t n = ::recv(mid, head + got, sizeof(head) - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(reset_and_wait(mid, *server, drops + 1), drops + 1);

  Client fresh("127.0.0.1", server->port());
  service::ScheduleService reference;
  EXPECT_EQ(fresh.compile(topo, 64_KiB).schedule_json,
            core::schedule_to_json(reference.compile(topo, 64_KiB).schedule,
                                   topo.machine_count()));
  EXPECT_EQ(fresh.compile(big_tree(), 64_KiB).schedule_json, big_tree_json());
}

TEST(NetdServerTest, ConcurrentConnectionsAllServedExactly) {
  ServerOptions options;
  options.dispatch_threads = 4;
  const auto server = start_server(options);
  constexpr int kClients = 12;
  constexpr int kRequestsEach = 6;
  std::atomic<int> served{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        Client client("127.0.0.1", server->port());
        Rng rng(31 * static_cast<std::uint64_t>(t) + 5);
        const Topology bases[] = {topology::make_paper_figure1(),
                                  topology::make_paper_topology_b(),
                                  topology::make_paper_topology_c()};
        for (int i = 0; i < kRequestsEach; ++i) {
          const Topology topo =
              shuffled_copy(bases[rng.next_below(3)], rng);
          for (;;) {
            try {
              const ResponseFrame response = client.compile(topo, 64_KiB);
              if (response.schedule_json.empty()) failures.fetch_add(1);
              served.fetch_add(1);
              break;
            } catch (const RemoteError& e) {
              if (e.code() != ErrorCode::kOverloaded) throw;
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(served.load(), kClients * kRequestsEach);
  EXPECT_EQ(failures.load(), 0);
  const obs::RegistrySnapshot snapshot = server->metrics_snapshot();
  EXPECT_GE(snapshot.total("aapc_netd_requests_total"),
            static_cast<double>(kClients * kRequestsEach));
}

/// Open descriptors of this process.
std::int64_t open_descriptors() {
  std::int64_t count = 0;
  for ([[maybe_unused]] const auto& fd :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(NetdServerTest, FailedStartLeaksNoDescriptor) {
  // start() throws after socket() on an address it cannot parse and on
  // a port another server holds (EADDRINUSE); neither may leave the
  // listening socket open.
  ServerOptions holder_options;
  holder_options.service.compiler_threads = 1;
  holder_options.dispatch_threads = 1;
  const auto holder = start_server(holder_options);
  ServerOptions bad_host;
  bad_host.host = "not-an-address";
  bad_host.service.compiler_threads = 1;
  ServerOptions port_in_use;
  port_in_use.port = holder->port();
  port_in_use.service.compiler_threads = 1;
  const std::int64_t before = open_descriptors();
  for (int attempt = 0; attempt < 3; ++attempt) {
    for (const ServerOptions& options : {bad_host, port_in_use}) {
      Server server(options);
      EXPECT_THROW(server.start(), Error);
    }
  }
  EXPECT_EQ(open_descriptors(), before);
}

// ---------------------------------------------------------------------------
// Fabric churn (docs/NETD.md §churn): live link events over the wire.

/// Two switches, three machines each. Bridge link 0 is the elected
/// trunk; link 1 is a redundant higher-cost trunk that 802.1D blocks
/// until the primary fails.
std::shared_ptr<stp::BridgeNetwork> make_fabric(bool redundant_trunk = true) {
  auto fabric = std::make_shared<stp::BridgeNetwork>();
  const stp::BridgeId s0 = fabric->add_bridge("s0", 1);
  const stp::BridgeId s1 = fabric->add_bridge("s1", 2);
  fabric->add_bridge_link(s0, s1, 19);
  if (redundant_trunk) fabric->add_bridge_link(s0, s1, 38);
  for (int m = 0; m < 3; ++m) {
    fabric->add_machine("a" + std::to_string(m), s0);
    fabric->add_machine("b" + std::to_string(m), s1);
  }
  return fabric;
}

TEST(NetdChurnTest, DegradeAnswersTheSameScheduleOverTheWire) {
  ServerOptions options;
  options.fabric = make_fabric();
  const auto server = start_server(options);
  const Topology elected =
      stp::compute_spanning_tree(*options.fabric).topology;
  Client client("127.0.0.1", server->port());

  const ResponseFrame healthy = client.compile(elected, 8_KiB);
  EXPECT_FALSE(healthy.stale);
  EXPECT_EQ(healthy.epoch, 0u);

  const ChurnAckFrame ack = client.churn(ChurnKind::kLinkDegrade, 0, 0.5);
  EXPECT_EQ(ack.epoch, 1u);
  EXPECT_EQ(ack.invalidated, 1u);  // the one bound topology uses the trunk
  EXPECT_FALSE(ack.reelected);     // a degraded trunk still forwards

  // The degrade changes no answer: the same schedule and hash, from the
  // cache, never stale, stamped with the new epoch.
  const ResponseFrame degraded = client.compile(elected, 8_KiB);
  EXPECT_FALSE(degraded.stale);
  EXPECT_TRUE(degraded.cache_hit);
  EXPECT_EQ(degraded.epoch, 1u);
  EXPECT_EQ(degraded.canonical_hash, healthy.canonical_hash);
  EXPECT_EQ(degraded.schedule_json, healthy.schedule_json);
  EXPECT_GE(server->metrics_snapshot().total("aapc_netd_churn_events_total"),
            1.0);
}

TEST(NetdChurnTest, TrunkFailureReelectsOntoTheBackupLink) {
  ServerOptions options;
  options.fabric = make_fabric();
  const auto server = start_server(options);
  const Topology elected =
      stp::compute_spanning_tree(*options.fabric).topology;
  Client client("127.0.0.1", server->port());
  const ResponseFrame before = client.compile(elected, 8_KiB);

  const ChurnAckFrame ack = client.churn(ChurnKind::kLinkDown, 0);
  EXPECT_EQ(ack.epoch, 1u);
  EXPECT_EQ(ack.invalidated, 1u);  // the dead trunk was forwarding
  EXPECT_TRUE(ack.reelected);      // traffic moved to bridge link 1

  // The backup tree is isomorphic (same shape), so the canonical hash —
  // and the cached artifact — survive the re-election, and the answer
  // is the one served before the event.
  const ResponseFrame after = client.compile(elected, 8_KiB);
  EXPECT_EQ(after.epoch, 1u);
  EXPECT_FALSE(after.stale);
  EXPECT_TRUE(after.cache_hit);
  EXPECT_EQ(after.schedule_json, before.schedule_json);
  EXPECT_GE(server->metrics_snapshot().total("aapc_netd_reelections_total"),
            1.0);

  // Restoring the primary trunk re-elects back and invalidates again.
  const ChurnAckFrame restore = client.churn(ChurnKind::kLinkUp, 0);
  EXPECT_EQ(restore.epoch, 2u);
  EXPECT_TRUE(restore.reelected);
}

TEST(NetdChurnTest, DisconnectingOrMalformedEventsRejectedWithoutStateChange) {
  ServerOptions options;
  options.fabric = make_fabric(/*redundant_trunk=*/false);
  const auto server = start_server(options);
  const Topology elected =
      stp::compute_spanning_tree(*options.fabric).topology;
  Client client("127.0.0.1", server->port());
  (void)client.compile(elected, 8_KiB);

  // Downing the only trunk would disconnect the fabric: the trial
  // election rejects it and nothing is applied.
  try {
    (void)client.churn(ChurnKind::kLinkDown, 0);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidRequest);
  }
  // Out-of-range link index: same structured rejection.
  EXPECT_THROW((void)client.churn(ChurnKind::kLinkDegrade, 99, 0.5),
               RemoteError);
  // No state change: the epoch is still 0.
  const ResponseFrame response = client.compile(elected, 8_KiB);
  EXPECT_FALSE(response.stale);
  EXPECT_EQ(response.epoch, 0u);
  EXPECT_GE(server->metrics_snapshot().total("aapc_netd_churn_rejects_total"),
            2.0);
}

TEST(NetdChurnTest, ChurnEventsRejectedWhenNoFabricConfigured) {
  const auto server = start_server();
  Client client("127.0.0.1", server->port());
  try {
    (void)client.churn(ChurnKind::kLinkDegrade, 0, 0.5);
    FAIL() << "expected RemoteError";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidRequest);
  }
  // The connection survives the rejection.
  EXPECT_FALSE(client.compile(topology::make_paper_figure1(), 8_KiB)
                   .schedule_json.empty());
}

TEST(NetdClientTest, ReconnectsTransparentlyAcrossAServerRestart) {
  ServerOptions options;
  auto server = start_server(options);
  const std::uint16_t port = server->port();
  ClientOptions client_options;
  client_options.initial_backoff_seconds = 0.02;
  Client client("127.0.0.1", port, client_options);
  const Topology topo = topology::make_paper_figure1();
  (void)client.compile(topo, 8_KiB);

  // Restart the server on the same port: the client's socket dies, and
  // the next compile must redial and resend instead of surfacing the
  // transport error.
  server->stop();
  server.reset();
  options.port = port;
  auto reborn = std::make_unique<Server>(options);
  reborn->start();

  const ResponseFrame response = client.compile(topo, 8_KiB);
  EXPECT_FALSE(response.schedule_json.empty());
  EXPECT_GE(client.reconnects(), 1);
}

TEST(NetdClientTest, ZeroReconnectsPreservesFailFastBehavior) {
  ClientOptions options;
  options.max_reconnects = 0;
  const auto server = start_server();
  Client client("127.0.0.1", server->port(), options);
  (void)client.compile(topology::make_paper_figure1(), 8_KiB);
  server->stop();
  EXPECT_THROW((void)client.compile(topology::make_paper_figure1(), 8_KiB),
               Error);
}

}  // namespace
}  // namespace aapc::netd
