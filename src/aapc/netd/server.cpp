#include "aapc/netd/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#include "aapc/core/schedule_io.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/faults/repair.hpp"
#include "aapc/obs/exposition.hpp"
#include "aapc/service/canonical.hpp"
#include "aapc/topology/io.hpp"

namespace aapc::netd {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint32_t to_retry_ms(double seconds) {
  const double ms = seconds * 1e3;
  if (ms <= 0) return 0;
  if (ms >= 4e9) return 4'000'000'000u;
  return static_cast<std::uint32_t>(ms) + 1;  // round up: hints are floors
}

/// An answer's JSON goes to the socket in chunks of this size, written
/// into one buffer per sending thread (chunk_buffer).
constexpr std::size_t kChunkBytes = 256 * 1024;

/// This thread's chunk buffer: allocated on its first chunk, reused for
/// every chunk after. The loop and each dispatcher hold one.
std::span<char> chunk_buffer() {
  thread_local const std::unique_ptr<char[]> buffer =
      std::make_unique_for_overwrite<char[]>(kChunkBytes);
  return {buffer.get(), kChunkBytes};
}

enum class SendResult { kAll, kBlocked, kFailed };

/// Sends `bytes` until the socket took them all, would block, or failed;
/// `sent` is set to what it took.
SendResult send_bytes(int fd, std::span<const char> bytes, std::size_t& sent) {
  sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return SendResult::kBlocked;
    if (errno == EINTR) continue;
    // EPIPE/ECONNRESET: the peer vanished mid-response. SIGPIPE is
    // ignored process-wide, so this is a clean error path.
    return SendResult::kFailed;
  }
  return SendResult::kAll;
}

/// Frame-size histogram bounds: 64 B .. 16 MiB in powers of four.
std::vector<double> frame_bytes_bounds() {
  std::vector<double> bounds;
  for (double b = 64; b <= 16.0 * 1024 * 1024; b *= 4) bounds.push_back(b);
  return bounds;
}

}  // namespace

class Dispatcher;

/// One frame a connection owes its peer. `bytes` is a whole frame, or
/// the prefix of an answer whose schedule JSON `json` writes after it,
/// chunk by chunk, from the served entry it keeps alive. A pending
/// answer holds its prefix (4 bytes a rank) and the writer's label table
/// (12 bytes a rank), never its JSON.
struct Outgoing {
  struct Json {
    service::CompiledEntryPtr entry;  // outlives eviction from the cache
    core::ScheduleJsonWriter writer;  // reads entry->schedule
  };

  std::string bytes;
  std::size_t offset = 0;  // of `bytes`, already sent
  std::optional<Json> json;
  /// The socket filled up with this frame at the head of the queue, and
  /// whether its answer has been counted as resumed since.
  bool blocked = false;
  bool resumed = false;

  bool finished() const {
    return offset == bytes.size() && (!json || json->writer.done());
  }
};

/// One accepted socket. The event loop owns its reads and its close().
/// Any thread with a frame for it queues the frame under `mutex`, and
/// unless another thread is sending there, sends until the queue is
/// empty or the socket would block; the loop sends the rest on EPOLLOUT.
/// A thread that must end the connection (a send error, or a drained
/// close-after-flush) shuts the socket down, and the loop closes it on
/// the hang-up that follows. Once `closed` flips, frames are dropped and
/// counted — a client that disconnects mid-response costs a counter,
/// not a crash. Each DispatchItem holds a ConnectionPtr, so teardown
/// never frees a connection that a dispatched request will still answer.
struct Connection {
  int fd = -1;
  /// Loop-thread only: incremental input framing.
  FrameDecoder decoder;

  std::mutex mutex;  // guards everything below
  /// Frames in the order they go out; only the head is ever sent, so
  /// frames never interleave on the wire.
  std::deque<Outgoing> queue;
  /// A thread is sending the queue (with `mutex` released between
  /// chunks); other threads only add to it.
  bool sending = false;
  bool closed = false;
  bool close_after_flush = false;

  /// Whether the peer is still owed bytes: the one test of it, for the
  /// senders, the shutdown drain and the teardown's drop count.
  bool owes_output() const { return !queue.empty(); }

  /// Sends the queue until it is empty, the socket would block, or the
  /// connection ends (`lock` holds `mutex`). A thread that finds another
  /// one sending leaves its frame to that one, so the queue's head is
  /// the sender's alone: it writes the head's next JSON chunk into this
  /// thread's chunk buffer with the mutex released, and holds the mutex
  /// for one chunk's send at a time. When the socket takes part of a
  /// chunk, the writer moves back to the first byte it did not take, so
  /// nothing unsent is kept.
  void send_queued(std::unique_lock<std::mutex>& lock, obs::Counter& resumes) {
    if (sending) return;
    sending = true;
    while (!closed && owes_output()) {
      Outgoing& head = queue.front();
      if (head.finished()) {
        queue.pop_front();
        if (!owes_output() && close_after_flush) shut_down();
        continue;
      }
      std::span<const char> bytes =
          std::span<const char>(head.bytes).subspan(head.offset);
      std::optional<core::ScheduleJsonWriter::Position> mark;
      if (bytes.empty()) {
        core::ScheduleJsonWriter& writer = head.json->writer;
        mark = writer.position();
        const std::span<char> chunk = chunk_buffer();
        lock.unlock();
        bytes = chunk.first(writer.write(chunk.data(), chunk.size()));
        lock.lock();
        if (closed) break;
      }
      std::size_t sent = 0;
      const SendResult result = send_bytes(fd, bytes, sent);
      if (!mark) {
        head.offset += sent;
      } else if (sent < bytes.size()) {
        head.json->writer.seek(*mark);
        head.json->writer.write(chunk_buffer().data(), sent);
      }
      if (sent > 0 && head.blocked && !head.resumed && head.json) {
        head.resumed = true;
        resumes.inc();
      }
      if (result == SendResult::kBlocked) {
        head.blocked = true;
        break;
      }
      if (result == SendResult::kFailed) {
        // The loop's teardown counts the unsent output as a drop.
        shut_down();
        break;
      }
    }
    sending = false;
  }

  /// Ends the connection from any thread (mutex held). The fd stays
  /// open, so it cannot be reused under a sender; the shutdown raises a
  /// hang-up on which the loop closes it.
  void shut_down() {
    ::shutdown(fd, SHUT_RDWR);
    closed = true;
  }
};

using ConnectionPtr = std::shared_ptr<Connection>;

struct DispatchItem {
  ConnectionPtr conn;
  RequestFrame request;
  Clock::time_point arrival{};
  std::size_t request_frame_bytes = 0;
};

struct Server::Impl {
  explicit Impl(const ServerOptions& opts);
  ~Impl();

  // the event loop (its thread only)
  void run_loop();
  void accept_connections();
  void refuse_connection(int fd, ErrorCode code, const std::string& message);
  void handle_readable(const ConnectionPtr& conn);
  void handle_frame(const ConnectionPtr& conn, const Frame& frame);
  bool close_drained();
  void close_connection(const ConnectionPtr& conn);

  // any thread
  void deliver(const ConnectionPtr& conn, Outgoing frame,
               bool close_after = false);
  void deliver(const ConnectionPtr& conn, std::string bytes,
               bool close_after = false);
  void fail_request(const ConnectionPtr& conn, std::uint64_t request_id,
                    ErrorCode code, double retry_after_seconds,
                    const std::string& message);

  // dispatcher side
  void handle_compile(const DispatchItem& item);

  // fabric churn (the constructor, then the event loop)
  void bind_elected_tree();
  ChurnAckFrame apply_churn(const ChurnEventFrame& event);

  obs::Counter& reject_counter(ErrorCode code);
  obs::RegistrySnapshot merged_snapshot() const;
  double overload_retry_hint() const;

  ServerOptions options;
  AdmissionControl admission;

  mutable obs::Registry registry;
  obs::Counter& connections_total;
  obs::Gauge& connections_active;
  obs::Counter& midframe_disconnects;
  obs::Counter& response_drops;
  obs::Counter& response_resumes;
  obs::Histogram& request_frame_bytes;
  obs::Histogram& response_frame_bytes;
  obs::Counter& requests;
  obs::Histogram& request_seconds;

  obs::Counter& churn_events;
  obs::Counter& churn_rejects;
  obs::Counter& reelections;

  service::ScheduleService service;
  std::unique_ptr<Dispatcher> dispatcher;

  /// Serving-fabric state: the committed fault timeline (event times are
  /// a synthetic sequence number — churn frames carry no clock), the
  /// tree its last election produced, and the canonical hash currently
  /// bound into the service's epoch feed.
  faults::FaultPlan fabric_plan;
  stp::SpanningTree fabric_tree;
  std::uint64_t fabric_hash = 0;
  std::int64_t fabric_seq = 0;

  /// Written by start() before the loop starts.
  int listen_fd = -1;
  int epoll_fd = -1;
  std::uint16_t bound_port = 0;

  std::atomic<bool> draining{false};
  std::atomic<std::int64_t> in_flight_requests{0};
  std::atomic<bool> stopping{false};
  /// Written before `stopping` is set; read by the loop after it sees it.
  Clock::time_point stop_deadline;

  /// Loop-thread only, and ~Impl after the loop's join.
  bool listening = true;
  std::unordered_map<int, ConnectionPtr> conns;

  std::thread loop;  // declared after everything it uses
};

// ---------------------------------------------------------------------------
// Dispatcher

/// Bounded MPMC queue + worker threads running the compile pipeline.
/// try_submit() is the third pressure valve: a full queue rejects
/// immediately (the event loop answers kOverloaded) instead of letting
/// slow compilations back the sockets up invisibly.
class Dispatcher {
 public:
  Dispatcher(Server::Impl* server, std::int32_t threads,
             std::int32_t queue_capacity)
      : server_(server),
        capacity_(static_cast<std::size_t>(std::max(1, queue_capacity))) {
    const std::int32_t count = std::max(1, threads);
    workers_.reserve(static_cast<std::size_t>(count));
    for (std::int32_t i = 0; i < count; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
  }

  ~Dispatcher() { stop_and_join(); }

  bool try_submit(DispatchItem item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_ || queue_.size() >= capacity_) return false;
      queue_.push_back(std::move(item));
    }
    server_->in_flight_requests.fetch_add(1, std::memory_order_acq_rel);
    work_available_.notify_one();
    return true;
  }

  std::int64_t queue_depth() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::int64_t>(queue_.size());
  }

  /// Stops workers. Items already *executing* always run to completion
  /// (ScheduleService never abandons a compilation mid-future); items
  /// still queued are failed with kShuttingDown (Server::stop waits out
  /// the drain deadline first).
  void stop_and_join() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_ && workers_.empty()) return;
      stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    workers_.clear();
  }

 private:
  void worker() {
    while (true) {
      DispatchItem item;
      bool stopping;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_available_.wait(lock,
                             [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, nothing left
        item = std::move(queue_.front());
        queue_.pop_front();
        stopping = stopping_;
      }
      if (stopping) {
        server_->reject_counter(ErrorCode::kShuttingDown).inc();
        server_->fail_request(item.conn, item.request.request_id,
                              ErrorCode::kShuttingDown, 1.0,
                              "server shut down before this request was "
                              "dispatched");
      } else {
        server_->handle_compile(item);
      }
      server_->in_flight_requests.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  Server::Impl* server_;
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<DispatchItem> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

// ---------------------------------------------------------------------------
// Event loop

void Server::Impl::run_loop() {
  std::vector<epoll_event> events(128);
  while (true) {
    // The timeout is the tick on which a stopping loop looks at its
    // connections again when no socket has anything to say.
    const int n = ::epoll_wait(epoll_fd, events.data(),
                               static_cast<int>(events.size()),
                               /*timeout ms=*/100);
    if (n < 0 && errno != EINTR) {
      std::fprintf(stderr, "aapc_netd: epoll_wait failed: %s\n",
                   std::strerror(errno));
      break;
    }
    for (int i = 0; i < std::max(n, 0); ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      if (ev.data.fd == listen_fd) {
        if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
          // stop() shut the listener down.
          ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
          ::close(listen_fd);
          listening = false;
        } else {
          accept_connections();
        }
        continue;
      }
      const auto it = conns.find(ev.data.fd);
      if (it == conns.end()) continue;
      const ConnectionPtr conn = it->second;  // keep alive across teardown
      if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(conn);
        continue;
      }
      if ((ev.events & (EPOLLIN | EPOLLRDHUP)) != 0) handle_readable(conn);
      if ((ev.events & EPOLLOUT) != 0) {
        std::unique_lock<std::mutex> lock(conn->mutex);
        conn->send_queued(lock, response_resumes);
      }
    }
    if (stopping.load(std::memory_order_acquire) && close_drained()) return;
  }
}

void Server::Impl::accept_connections() {
  while (true) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // EINVAL: stop() shut the listener down; its hang-up closes it.
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR &&
          errno != EINVAL) {
        std::fprintf(stderr, "aapc_netd: accept4 failed: %s\n",
                     std::strerror(errno));
      }
      return;
    }
    connections_total.inc();
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!admission.try_admit_connection()) {
      refuse_connection(fd, ErrorCode::kConnectionLimit,
                        "connection limit reached");
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      std::fprintf(stderr, "aapc_netd: epoll_ctl(ADD) failed: %s\n",
                   std::strerror(errno));
      ::close(fd);
      admission.release_connection();
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conns.emplace(fd, std::move(conn));
    connections_active.add(1);
  }
}

void Server::Impl::refuse_connection(int fd, ErrorCode code,
                                     const std::string& message) {
  reject_counter(code).inc();
  ErrorFrame error;
  error.code = code;
  error.retry_after_ms = to_retry_ms(0.5);
  error.message = message;
  const std::string bytes = encode_error(error);
  // Best-effort: the socket buffer of a fresh connection always holds
  // one small frame, so the client sees a structured refusal rather
  // than a bare RST.
  [[maybe_unused]] const ssize_t n =
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  ::close(fd);
}

void Server::Impl::handle_readable(const ConnectionPtr& conn) {
  char buf[64 * 1024];
  bool peer_closed = false;
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;  // ECONNRESET and friends
    break;
  }
  try {
    while (std::optional<Frame> frame = conn->decoder.next()) {
      handle_frame(conn, *frame);
      bool closed;
      {
        const std::lock_guard<std::mutex> lock(conn->mutex);
        closed = conn->closed;
      }
      if (closed) return;
    }
  } catch (const ProtocolError& e) {
    // Malformed stream: answer with a structured error, then close.
    // The decoder is poisoned, so no further frames are parsed.
    reject_counter(ErrorCode::kProtocol).inc();
    ErrorFrame error;
    error.code = ErrorCode::kProtocol;
    error.message = e.what();
    deliver(conn, encode_error(error), /*close_after=*/true);
    return;
  }
  if (peer_closed) {
    if (conn->decoder.buffered() > 0) {
      // Disconnect mid-frame: bytes of a frame that never completed.
      midframe_disconnects.inc();
    }
    close_connection(conn);
  }
}

void Server::Impl::handle_frame(const ConnectionPtr& conn,
                                const Frame& frame) {
  switch (frame.header.type) {
    case FrameType::kRequest: {
      RequestFrame request;
      try {
        request = decode_request(frame);
      } catch (const ProtocolError&) {
        throw;  // framing damage: poison + close (caller handles)
      } catch (const InvalidArgument& e) {
        // Well-framed request with bad semantics (out-of-range kind
        // byte, neighbor sets on a non-sparse kind): the stream is
        // intact, so answer structurally and keep the connection —
        // the same contract as churn-event validation below.
        reject_counter(ErrorCode::kInvalidRequest).inc();
        fail_request(conn, frame.header.request_id,
                     ErrorCode::kInvalidRequest, 0, e.what());
        return;
      }
      if (draining.load(std::memory_order_acquire)) {
        reject_counter(ErrorCode::kShuttingDown).inc();
        fail_request(conn, request.request_id, ErrorCode::kShuttingDown,
                     /*retry_after_seconds=*/1.0, "server is draining");
        return;
      }
      double retry_after = 0;
      if (!admission.try_admit_request(request.tenant, &retry_after)) {
        reject_counter(ErrorCode::kQuotaExceeded).inc();
        fail_request(conn, request.request_id, ErrorCode::kQuotaExceeded,
                     retry_after,
                     "tenant '" + request.tenant + "' exceeded its "
                     "request quota");
        return;
      }
      DispatchItem item;
      item.conn = conn;
      item.request = request;
      item.arrival = Clock::now();
      item.request_frame_bytes = kHeaderSize + frame.payload.size();
      if (!dispatcher->try_submit(std::move(item))) {
        reject_counter(ErrorCode::kOverloaded).inc();
        fail_request(conn, request.request_id, ErrorCode::kOverloaded,
                     overload_retry_hint(), "dispatch queue is full");
      }
      return;
    }
    case FrameType::kMetricsRequest: {
      deliver(conn, encode_metrics_response(frame.header.request_id,
                                            obs::to_json(merged_snapshot())));
      return;
    }
    case FrameType::kChurnEvent: {
      // Applied inline on the loop thread: churn is an operator feed
      // (a handful of events per incident), and applying before the
      // next read guarantees compile requests later on this
      // connection observe the bumped epoch.
      const ChurnEventFrame event = decode_churn_event(frame);
      try {
        ChurnAckFrame ack = apply_churn(event);
        ack.request_id = event.request_id;
        deliver(conn, encode_churn_ack(ack));
      } catch (const InvalidArgument& e) {
        churn_rejects.inc();
        reject_counter(ErrorCode::kInvalidRequest).inc();
        fail_request(conn, event.request_id, ErrorCode::kInvalidRequest, 0,
                     e.what());
      }
      return;
    }
    default:
      throw ProtocolError(
          "frame type " +
          std::to_string(static_cast<int>(frame.header.type)) +
          " is not valid from a client");
  }
}

/// Graceful exit, once per iteration after stop(): a connection whose
/// output has drained closes (EPOLLOUT keeps sending the others), and
/// at the deadline the rest close too. True once nothing is open.
bool Server::Impl::close_drained() {
  const bool late = Clock::now() >= stop_deadline;
  std::vector<ConnectionPtr> open;
  open.reserve(conns.size());
  for (const auto& [fd, conn] : conns) open.push_back(conn);
  for (const ConnectionPtr& conn : open) {
    bool sending;
    {
      const std::lock_guard<std::mutex> lock(conn->mutex);
      sending = !conn->closed && conn->owes_output();
    }
    if (!sending || late) close_connection(conn);
  }
  return conns.empty() && !listening;
}

/// The one teardown, once per connection. Output the peer never took
/// counts one dropped response, whatever ended the connection: a reset,
/// a hang-up, a send error or the drain deadline.
void Server::Impl::close_connection(const ConnectionPtr& conn) {
  bool unsent;
  {
    const std::lock_guard<std::mutex> lock(conn->mutex);
    conn->closed = true;
    unsent = conn->owes_output();
    // Lets go of pending answers' entries now, unless a sender between
    // chunks still holds the head; the queue then goes with the
    // connection once that sender is done with it.
    if (!conn->sending) conn->queue.clear();
  }
  if (unsent) response_drops.inc();
  ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns.erase(conn->fd);
  admission.release_connection();
  connections_active.add(-1);
}

// ---------------------------------------------------------------------------
// Server::Impl

Server::Impl::Impl(const ServerOptions& opts)
    : options(opts),
      admission(opts.admission),
      connections_total(registry.counter("aapc_netd_connections_total",
                                         "TCP connections accepted")),
      connections_active(registry.gauge("aapc_netd_connections_active",
                                        "Currently admitted connections")),
      midframe_disconnects(registry.counter(
          "aapc_netd_midframe_disconnects_total",
          "Peers that hung up with a partial frame buffered")),
      response_drops(registry.counter(
          "aapc_netd_response_drops_total",
          "Responses dropped: one per connection that closed with "
          "output unsent (reset, hang-up, send error or the shutdown "
          "drain deadline), one per answer for a closed connection")),
      response_resumes(registry.counter(
          "aapc_netd_response_resumes_total",
          "Answers whose remaining chunks were written after the socket "
          "blocked")),
      request_frame_bytes(registry.histogram(
          "aapc_netd_request_frame_bytes",
          "Size of received request frames (header + payload)",
          frame_bytes_bounds())),
      response_frame_bytes(registry.histogram(
          "aapc_netd_response_frame_bytes",
          "Size of sent response frames (header + payload)",
          frame_bytes_bounds())),
      requests(registry.counter("aapc_netd_requests_total",
                                "Requests dispatched to the schedule service")),
      request_seconds(registry.histogram(
          "aapc_netd_request_seconds",
          "Arrival to the end of the dispatcher's part: the answer's last "
          "chunk sent, or the rest left to the socket's next EPOLLOUT")),
      churn_events(registry.counter("aapc_netd_churn_events_total",
                                    "Fabric link events applied")),
      churn_rejects(registry.counter(
          "aapc_netd_churn_rejects_total",
          "Fabric link events rejected (no fabric, bad link, or the "
          "event would disconnect the bridge graph)")),
      reelections(registry.counter(
          "aapc_netd_reelections_total",
          "Churn events that changed the elected spanning tree")),
      service(opts.service) {
  if (options.fabric != nullptr) {
    fabric_tree = stp::compute_spanning_tree(*options.fabric);
    bind_elected_tree();
  }
}

/// Re-canonicalizes the elected tree and (re)binds its hash into the
/// service's epoch feed: one LinkBinding per forwarding bridge link,
/// translated bridge link -> tree LinkId -> canonical LinkId. Machine
/// access links are not bound (churn frames script bridge links, same
/// convention as FaultPlan).
void Server::Impl::bind_elected_tree() {
  const service::Canonicalization canon =
      service::canonicalize(fabric_tree.topology);
  std::vector<service::TopologyEpochs::LinkBinding> bindings;
  const std::vector<bool>& forwarding = fabric_tree.forwarding;
  for (std::size_t b = 0; b < forwarding.size(); ++b) {
    if (!forwarding[b]) continue;
    const topology::LinkId tree_link =
        fabric_tree.link_of_bridge_link[b];
    if (tree_link < 0) continue;
    bindings.push_back({static_cast<std::int32_t>(b),
                        canon.link_to_canonical[tree_link]});
  }
  if (fabric_hash != 0 && fabric_hash != canon.hash) {
    service.epochs().unbind(fabric_hash);
  }
  service.epochs().bind(canon.hash, bindings,
                        fabric_tree.topology.link_count());
  fabric_hash = canon.hash;
}

ChurnAckFrame Server::Impl::apply_churn(const ChurnEventFrame& event) {
  AAPC_REQUIRE(options.fabric != nullptr,
               "this server has no bridged fabric configured; churn "
               "events have nothing to act on");
  const stp::BridgeNetwork& fabric = *options.fabric;
  AAPC_REQUIRE(event.link >= 0 && event.link < fabric.bridge_link_count(),
               "churn event names bridge link " << event.link
                   << " but the fabric has " << fabric.bridge_link_count());

  const SimTime when = static_cast<SimTime>(fabric_seq + 1);
  faults::FaultEvent fault;
  double factor = 1.0;
  switch (event.kind) {
    case ChurnKind::kLinkDegrade:
      AAPC_REQUIRE(event.factor > 0 && event.factor <= 1.0,
                   "degrade factor must be in (0, 1], got " << event.factor);
      fault = faults::FaultEvent::link_degrade(when, event.link, event.factor);
      factor = event.factor;
      break;
    case ChurnKind::kLinkDown:
      fault = faults::FaultEvent::link_down(when, event.link);
      factor = 0;
      break;
    case ChurnKind::kLinkUp:
      fault = faults::FaultEvent::link_up(when, event.link);
      factor = 1.0;
      break;
  }

  // Trial first: elect_residual throws InvalidArgument when the event
  // disconnects the bridge graph. Nothing below runs in that case, so a
  // bad operator feed cannot wedge the serving state.
  faults::FaultPlan candidate = fabric_plan;
  candidate.add(fault);
  stp::SpanningTree elected =
      faults::elect_residual(fabric, candidate, when);

  // Commit: record the event, feed the service's epoch layer, rebind
  // if the election moved traffic onto different physical links.
  fabric_plan = std::move(candidate);
  fabric_seq += 1;
  churn_events.inc();
  const service::TopologyEpochs::EventResult result =
      service.epochs().link_event(event.link, factor);
  ChurnAckFrame ack;
  ack.epoch = result.epoch;
  ack.invalidated = static_cast<std::uint64_t>(result.invalidated);
  const bool tree_changed =
      elected.forwarding != fabric_tree.forwarding ||
      elected.link_of_bridge_link != fabric_tree.link_of_bridge_link;
  if (tree_changed) {
    fabric_tree = std::move(elected);
    bind_elected_tree();
    ack.reelected = true;
    reelections.inc();
  }
  return ack;
}

Server::Impl::~Impl() {
  // The loop closes the listener on the hang-up that stop() raises and
  // clears `listening`; the loop has been joined (or never started) by
  // now. Close it here only when the loop did not, so a number that may
  // have been reused is never closed twice: start() threw after
  // socket(), or the loop ended on an epoll_wait error.
  if (listening && listen_fd >= 0) ::close(listen_fd);
  if (epoll_fd >= 0) ::close(epoll_fd);
}

obs::Counter& Server::Impl::reject_counter(ErrorCode code) {
  // Registration is idempotent and cheap after first use; causes are a
  // small closed set so the series stay bounded.
  return registry.counter("aapc_netd_rejects_total",
                          "Requests answered with an error frame, by cause",
                          obs::Labels{{"cause", error_code_name(code)}});
}

double Server::Impl::overload_retry_hint() const {
  // Expected queue drain time: depth x a nominal 50 ms compile over the
  // dispatcher width. Deliberately coarse: each dispatcher compiles its
  // own misses, so the queue drains at the dispatchers' pace.
  const double depth =
      static_cast<double>(dispatcher != nullptr ? dispatcher->queue_depth()
                                                : 0);
  const double workers = static_cast<double>(std::max(
      1, options.dispatch_threads));
  return 0.05 * (depth + workers) / workers;
}

/// Any thread: queues a frame and sends what the socket takes now. The
/// sockets are edge-triggered, and one that has been writable all along
/// raises no new EPOLLOUT, so the thread that queues must try the send.
/// A frame for a closed connection is dropped and counted.
void Server::Impl::deliver(const ConnectionPtr& conn, Outgoing frame,
                           bool close_after) {
  std::unique_lock<std::mutex> lock(conn->mutex);
  if (conn->closed) {
    response_drops.inc();
    return;
  }
  conn->queue.push_back(std::move(frame));
  if (close_after) conn->close_after_flush = true;
  conn->send_queued(lock, response_resumes);
}

void Server::Impl::deliver(const ConnectionPtr& conn, std::string bytes,
                           bool close_after) {
  Outgoing frame;
  frame.bytes = std::move(bytes);
  deliver(conn, std::move(frame), close_after);
}

void Server::Impl::fail_request(const ConnectionPtr& conn,
                                std::uint64_t request_id, ErrorCode code,
                                double retry_after_seconds,
                                const std::string& message) {
  ErrorFrame error;
  error.request_id = request_id;
  error.code = code;
  error.retry_after_ms = to_retry_ms(retry_after_seconds);
  error.message = message;
  deliver(conn, encode_error(error));
}

void Server::Impl::handle_compile(const DispatchItem& item) {
  const RequestFrame& request = item.request;
  topology::Topology topo;
  service::Canonicalization canon;
  try {
    topo = topology::parse_topology(request.topology_text);
    canon = service::canonicalize(topo);
  } catch (const Error& e) {
    reject_counter(ErrorCode::kInvalidRequest).inc();
    fail_request(item.conn, request.request_id, ErrorCode::kInvalidRequest, 0,
                 std::string("malformed topology: ") + e.what());
    return;
  }
  try {
    // An answer no frame can carry is refused before anything compiles.
    const std::uint64_t floor = response_payload_floor(
        topo.machine_count(), request.kind, request.neighbors);
    AAPC_REQUIRE(floor <= kMaxPayload,
                 "a " << core::collective_kind_name(request.kind)
                      << " answer on " << topo.machine_count()
                      << " ranks needs at least " << floor
                      << " payload bytes, above kMaxPayload (" << kMaxPayload
                      << ")");
    requests.inc();
    // The caller-labeled JSON is written from the canonical entry
    // through the permutation, chunk by chunk, straight into the socket;
    // no relabeled schedule, no JSON string and no whole frame is built.
    service::ServedEntry served = service.lookup(
        topo, request.message_bytes, canon, request.kind, request.neighbors);
    Outgoing answer;
    answer.json.emplace(Outgoing::Json{
        served.entry,
        core::ScheduleJsonWriter(served.entry->schedule, topo.machine_count(),
                                 core::invert_permutation(served.to_canonical))});
    const std::size_t json_bytes = answer.json->writer.size();
    ResponseFrame response;
    response.request_id = request.request_id;
    response.cache_hit = served.cache_hit;
    response.coalesced = served.coalesced;
    response.epoch = served.epoch;
    response.canonical_hash = canon.hash;
    response.to_canonical = std::move(served.to_canonical);
    // The exact-size check: throws before anything is sent.
    answer.bytes = encode_response_prefix(response, json_bytes);
    request_frame_bytes.observe(
        static_cast<double>(item.request_frame_bytes));
    response_frame_bytes.observe(
        static_cast<double>(answer.bytes.size() + json_bytes));
    deliver(item.conn, std::move(answer));
    request_seconds.observe(seconds_since(item.arrival));
  } catch (const InvalidArgument& e) {
    reject_counter(ErrorCode::kInvalidRequest).inc();
    fail_request(item.conn, request.request_id, ErrorCode::kInvalidRequest, 0,
                 e.what());
  } catch (const std::exception& e) {
    reject_counter(ErrorCode::kInternal).inc();
    fail_request(item.conn, request.request_id, ErrorCode::kInternal, 0,
                 std::string("internal error: ") + e.what());
  }
}

obs::RegistrySnapshot Server::Impl::merged_snapshot() const {
  obs::RegistrySnapshot merged = registry.snapshot();
  obs::RegistrySnapshot backend = service.metrics_snapshot();
  for (obs::SeriesSnapshot& series : backend.series) {
    merged.series.push_back(std::move(series));
  }
  return merged;
}

// ---------------------------------------------------------------------------
// Server

Server::Server(const ServerOptions& options) : options_(options) {}

Server::~Server() { stop(); }

std::uint16_t Server::port() const {
  AAPC_REQUIRE(impl_ != nullptr, "Server::port() before start()");
  return impl_->bound_port;
}

obs::RegistrySnapshot Server::metrics_snapshot() const {
  AAPC_REQUIRE(impl_ != nullptr, "Server::metrics_snapshot() before start()");
  return impl_->merged_snapshot();
}

void Server::start() {
  AAPC_REQUIRE(!running(), "Server::start() called twice");
  // A client that disappears mid-write must surface as EPIPE on the
  // send, not kill the process (lifecycle satellite, docs/NETD.md §6).
  ::signal(SIGPIPE, SIG_IGN);

  impl_ = std::make_unique<Impl>(options_);
  Impl& impl = *impl_;

  impl.listen_fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  AAPC_CHECK_MSG(impl.listen_fd >= 0, "socket: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(impl.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  AAPC_REQUIRE(::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) ==
                   1,
               "invalid listen address '" << options_.host << "'");
  AAPC_REQUIRE(::bind(impl.listen_fd,
                      reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "bind " << options_.host << ":" << options_.port << ": "
                       << std::strerror(errno));
  AAPC_CHECK_MSG(::listen(impl.listen_fd, 1024) == 0,
                 "listen: " << std::strerror(errno));
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  AAPC_CHECK(::getsockname(impl.listen_fd,
                           reinterpret_cast<sockaddr*>(&bound),
                           &bound_len) == 0);
  impl.bound_port = ntohs(bound.sin_port);

  impl.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  AAPC_CHECK_MSG(impl.epoll_fd >= 0,
                 "epoll_create1: " << std::strerror(errno));
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: a failed accept4 is retried
  ev.data.fd = impl.listen_fd;
  AAPC_CHECK(::epoll_ctl(impl.epoll_fd, EPOLL_CTL_ADD, impl.listen_fd, &ev) ==
             0);

  impl.dispatcher = std::make_unique<Dispatcher>(
      &impl, options_.dispatch_threads, options_.dispatch_queue_capacity);
  impl.loop = std::thread([&impl] { impl.run_loop(); });
  running_.store(true, std::memory_order_release);
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  Impl& impl = *impl_;

  // 1. Stop admitting: new requests get kShuttingDown error frames, and
  //    the shut-down listener refuses new connections. The loop closes
  //    it on the hang-up the shutdown raises.
  impl.draining.store(true, std::memory_order_release);
  ::shutdown(impl.listen_fd, SHUT_RDWR);

  // 2. Drain: wait (bounded) for everything already dispatched. The
  //    dispatchers keep running, so in-flight compilations (each on its
  //    dispatcher's thread) complete rather than being abandoned
  //    mid-future.
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(options_.drain_deadline_seconds));
  while (impl.in_flight_requests.load(std::memory_order_acquire) > 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::int64_t abandoned =
      impl.in_flight_requests.load(std::memory_order_acquire);
  if (abandoned > 0) {
    std::fprintf(stderr,
                 "aapc_netd: drain deadline reached with %lld requests "
                 "still queued; failing them with kShuttingDown\n",
                 static_cast<long long>(abandoned));
  }

  // 3. Join dispatchers: executing items finish, queued items (only
  //    present when the deadline was hit) are failed with structured
  //    kShuttingDown frames instead of silent drops.
  impl.dispatcher->stop_and_join();

  // 4. Stop the event loop: it serves its connections until their
  //    output drains (new requests get kShuttingDown), closing each as
  //    it empties and the rest at the drain deadline.
  impl.stop_deadline = deadline;
  impl.stopping.store(true, std::memory_order_release);
  impl.loop.join();
}

}  // namespace aapc::netd
