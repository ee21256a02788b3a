// aapc_netd: TCP serving front-end for the schedule-compilation
// service (the wire behind docs/SERVICE.md; protocol in netd/wire.hpp,
// spec in docs/NETD.md).
//
// Threading model (non-blocking, edge-triggered epoll):
//
//   1 event loop         owns the listener and every connection:
//                        accept4() and connection admission, reads,
//                        frame decoding, protocol/quota/drain errors
//                        answered inline, compile work enqueued, and
//                        every close()
//   M dispatchers        parse topology, canonicalize, run
//                        ScheduleService::lookup (a miss compiles on
//                        the dispatcher's own thread), and send the
//                        answer themselves: its prefix, then its JSON
//                        in chunks through one reused buffer
//
// Whichever thread has a frame queues it under the connection's mutex
// and, unless another thread is already sending there, sends until
// EAGAIN; the loop sends the rest on EPOLLOUT. A thread that must end a
// connection shuts the socket down, and the loop closes it on the
// hang-up that follows.
//
// The server owns one ScheduleService: its cache, compiler pool,
// in-flight coalescing and topology-epoch feed serve every connection.
//
// Pressure valves, outermost first — every rejection is a structured
// error frame with a retry-after hint, never a dropped connection:
//   1. connection cap            kConnectionLimit (frame, then close)
//   2. per-tenant token bucket   kQuotaExceeded
//   3. bounded dispatch queue    kOverloaded
// At most M compilations run at once, one per dispatcher, so the
// dispatch queue is the one place a backlog of misses can wait.
//
// Shutdown drains: stop() shuts the listener down, fails *new* requests
// with kShuttingDown, but lets everything already dispatched finish and
// flushes the responses, closing each connection once its output has
// drained — in-flight compilations are never abandoned mid-future.
// ServerOptions::drain_deadline_seconds bounds the whole drain. SIGPIPE
// is ignored process-wide on start(); a connection that ends with
// output unsent (reset, hang-up, send error, drain deadline) counts one
// dropped response, not a crash.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aapc/netd/admission.hpp"
#include "aapc/netd/wire.hpp"
#include "aapc/obs/metrics.hpp"
#include "aapc/service/service.hpp"
#include "aapc/stp/stp.hpp"

namespace aapc::netd {

struct ServerOptions {
  /// Listen address. Loopback by default: the front-end is meant to
  /// sit behind a deployment's own ingress, not on the open internet.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with Server::port().
  std::uint16_t port = 0;
  /// Compile-dispatch worker threads.
  std::int32_t dispatch_threads = 4;
  /// Requests queued for dispatch before kOverloaded rejections.
  std::int32_t dispatch_queue_capacity = 256;
  /// Connection cap and per-tenant token buckets.
  AdmissionOptions admission;
  /// Configuration of the backend ScheduleService.
  service::ServiceOptions service;
  /// stop() waits at most this long for dispatched requests to finish
  /// (failing the not-yet-started remainder with kShuttingDown) and for
  /// clients to read their responses (closing the connections that
  /// still hold output, counted in aapc_netd_response_drops_total).
  double drain_deadline_seconds = 10;
  /// Optional bridged fabric behind the serving path. When set, start()
  /// runs the 802.1D election, canonicalizes the elected machine-leaf
  /// tree, and binds its canonical hash into the service's
  /// TopologyEpochs feed; kChurnEvent frames then drive live link-rate
  /// churn (trial re-election first, so a disconnecting event is
  /// rejected without touching serving state). Null disables churn
  /// handling — kChurnEvent answers kInvalidRequest.
  std::shared_ptr<const stp::BridgeNetwork> fabric;
};

class Server {
 public:
  explicit Server(const ServerOptions& options = {});
  /// Stops (gracefully, see stop()) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the event loop and the dispatchers.
  void start();

  /// Graceful shutdown: close the listener, drain in-flight requests,
  /// flush responses until each connection's output drains, close
  /// connections, join every thread; drain_deadline_seconds bounds it.
  /// Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (after start()).
  std::uint16_t port() const;

  /// Merged registry snapshot: the netd front-end series plus the
  /// backend service's aapc_service_* series — one document for the
  /// obs exporters (docs/OBSERVABILITY.md).
  obs::RegistrySnapshot metrics_snapshot() const;

 private:
  friend class Dispatcher;
  struct Impl;

  ServerOptions options_;
  std::atomic<bool> running_{false};
  std::unique_ptr<Impl> impl_;
};

}  // namespace aapc::netd
