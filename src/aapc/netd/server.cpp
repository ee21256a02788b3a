#include "aapc/netd/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "aapc/common/log.hpp"
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

/// Frame-size histogram bounds: 64 B .. 16 MiB in powers of four.
std::vector<double> frame_bytes_bounds() {
  std::vector<double> bounds;
  for (double b = 64; b <= 16.0 * 1024 * 1024; b *= 4) bounds.push_back(b);
  return bounds;
}

}  // namespace

class EventLoop;
class Dispatcher;

/// One accepted socket. The event loop owns reads and all socket
/// teardown; dispatchers only append encoded response bytes under
/// `mutex` and ask the loop to flush. Once `closed` flips (peer hung
/// up, write error, shutdown) appends are dropped and counted — a
/// client that disconnects mid-response costs a counter, not a crash.
/// Each DispatchItem holds a ConnectionPtr, so teardown never frees a
/// connection that a dispatched request will still answer.
struct Connection {
  int fd = -1;
  EventLoop* loop = nullptr;
  /// Loop-thread only: incremental input framing.
  FrameDecoder decoder;

  std::mutex mutex;  // guards everything below
  std::string out;
  std::size_t out_offset = 0;
  bool closed = false;
  bool close_after_flush = false;
  bool flush_queued = false;

  /// Appends a frame to `out` (mutex held). An idle connection takes
  /// the frame's buffer as is, so a megabyte response is not copied
  /// again on its way to the socket.
  void queue(std::string bytes) {
    if (out.empty()) {
      out = std::move(bytes);
    } else {
      out.append(bytes);
    }
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

  // acceptor
  void accept_loop();
  void refuse_connection(int fd, ErrorCode code, const std::string& message);

  // dispatcher side
  void handle_compile(const DispatchItem& item);
  void deliver(const ConnectionPtr& conn, std::string bytes);
  void fail_request(const ConnectionPtr& conn, std::uint64_t request_id,
                    ErrorCode code, double retry_after_seconds,
                    const std::string& message);

  // fabric churn (event-loop threads, serialized by fabric_mutex)
  void bind_elected_tree();  // fabric_mutex held
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
  obs::Histogram& request_frame_bytes;
  obs::Histogram& response_frame_bytes;
  obs::Counter& requests;
  obs::Histogram& request_seconds;

  obs::Counter& churn_events;
  obs::Counter& churn_rejects;
  obs::Counter& reelections;

  service::ScheduleService service;
  std::vector<std::unique_ptr<EventLoop>> loops;
  std::unique_ptr<Dispatcher> dispatcher;

  /// Serving-fabric state: the committed fault timeline (event times are
  /// a synthetic sequence number — churn frames carry no clock), the
  /// tree its last election produced, and the canonical hash currently
  /// bound into the service's epoch feed.
  std::mutex fabric_mutex;
  faults::FaultPlan fabric_plan;
  stp::SpanningTree fabric_tree;
  std::uint64_t fabric_hash = 0;
  std::int64_t fabric_seq = 0;

  std::thread acceptor;
  int listen_fd = -1;
  std::uint16_t bound_port = 0;
  std::atomic<bool> accept_stop{false};
  std::atomic<bool> draining{false};
  std::atomic<std::int64_t> in_flight_requests{0};
  std::atomic<std::size_t> next_loop{0};
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

  ~Dispatcher() { stop_and_join(/*abandon_remaining=*/true); }

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
  /// still queued are failed with kShuttingDown when
  /// `abandon_remaining` — the caller decides by first waiting out the
  /// drain deadline.
  void stop_and_join(bool abandon_remaining) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_ && workers_.empty()) return;
      stopping_ = true;
      abandon_ = abandon_remaining;
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
      bool abandon;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_available_.wait(lock,
                             [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping, nothing left
        item = std::move(queue_.front());
        queue_.pop_front();
        abandon = abandon_;
      }
      if (abandon) {
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
  bool abandon_ = false;
  std::vector<std::thread> workers_;
};

// ---------------------------------------------------------------------------
// Event loop

class EventLoop {
 public:
  explicit EventLoop(Server::Impl* server) : server_(server) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    AAPC_CHECK_MSG(epoll_fd_ >= 0,
                   "epoll_create1: " << std::strerror(errno));
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    AAPC_CHECK_MSG(wake_fd_ >= 0, "eventfd: " << std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    AAPC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);
  }

  ~EventLoop() {
    if (thread_.joinable()) {
      begin_stop(Clock::now());
      thread_.join();
    }
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  void start() {
    thread_ = std::thread([this] { run(); });
  }

  /// The loop keeps flushing connections that hold output, closes each
  /// once it drains, and closes the rest at `deadline`.
  void begin_stop(Clock::time_point deadline) {
    stop_deadline_ = deadline;
    stopping_.store(true, std::memory_order_release);
    wake();
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Acceptor hand-off: the loop thread registers the fd on its next
  /// iteration (epoll registration stays single-threaded per loop).
  void adopt(int fd) {
    {
      const std::lock_guard<std::mutex> lock(pending_mutex_);
      new_fds_.push_back(fd);
    }
    wake();
  }

  /// Any thread: the connection has fresh output to write. Appending
  /// bytes alone is not enough under edge-triggered epoll — a socket
  /// that has been writable all along produces no new EPOLLOUT edge,
  /// so the loop must attempt the write itself.
  void request_flush(const ConnectionPtr& conn) {
    {
      const std::lock_guard<std::mutex> conn_lock(conn->mutex);
      if (conn->closed || conn->flush_queued) return;
      conn->flush_queued = true;
    }
    {
      const std::lock_guard<std::mutex> lock(pending_mutex_);
      pending_flushes_.push_back(conn);
    }
    wake();
  }

 private:
  void wake() {
    const std::uint64_t one = 1;
    // A full eventfd counter still wakes the poller; short writes are
    // impossible for 8 bytes.
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }

  void run() {
    std::vector<epoll_event> events(128);
    while (true) {
      const int n = ::epoll_wait(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()),
                                 /*timeout ms=*/100);
      if (n < 0 && errno != EINTR) {
        AAPC_WARN("epoll_wait failed: " << std::strerror(errno));
        break;
      }
      for (int i = 0; i < std::max(n, 0); ++i) {
        const epoll_event& ev = events[static_cast<std::size_t>(i)];
        if (ev.data.fd == wake_fd_) {
          std::uint64_t drain;
          while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
          }
          continue;
        }
        const auto it = conns_.find(ev.data.fd);
        if (it == conns_.end()) continue;
        ConnectionPtr conn = it->second;  // keep alive across teardown
        if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
          close_connection(conn);
          continue;
        }
        if ((ev.events & (EPOLLIN | EPOLLRDHUP)) != 0) {
          handle_readable(conn);
        }
        if ((ev.events & EPOLLOUT) != 0) flush(conn);
      }
      process_pending();
      if (stopping_.load(std::memory_order_acquire) && close_drained()) {
        return;
      }
    }
  }

  /// Graceful exit, once per iteration after begin_stop(): a connection
  /// whose output has drained closes (EPOLLOUT keeps flushing the
  /// others). At the deadline the rest close too, each with unsent
  /// bytes counting one dropped response. True once no connection is
  /// left.
  bool close_drained() {
    const bool late = Clock::now() >= stop_deadline_;
    std::vector<ConnectionPtr> open;
    open.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) open.push_back(conn);
    for (const ConnectionPtr& conn : open) {
      bool unsent;
      {
        const std::lock_guard<std::mutex> lock(conn->mutex);
        if (conn->closed) continue;
        unsent = conn->out_offset < conn->out.size();
      }
      if (unsent && !late) continue;
      if (unsent) server_->response_drops.inc();
      close_connection(conn);
    }
    return conns_.empty();
  }

  void process_pending() {
    std::vector<int> fds;
    std::vector<ConnectionPtr> flushes;
    {
      const std::lock_guard<std::mutex> lock(pending_mutex_);
      fds.swap(new_fds_);
      flushes.swap(pending_flushes_);
    }
    for (const int fd : fds) register_connection(fd);
    for (const ConnectionPtr& conn : flushes) {
      {
        const std::lock_guard<std::mutex> lock(conn->mutex);
        conn->flush_queued = false;
      }
      flush(conn);
    }
  }

  void register_connection(int fd) {
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->loop = this;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      AAPC_WARN("epoll_ctl(ADD) failed: " << std::strerror(errno));
      ::close(fd);
      server_->admission.release_connection();
      server_->connections_active.add(-1);
      return;
    }
    conns_.emplace(fd, std::move(conn));
  }

  void handle_readable(const ConnectionPtr& conn) {
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
          closed = conn->closed || conn->close_after_flush;
        }
        if (closed) return;
      }
    } catch (const ProtocolError& e) {
      // Malformed stream: answer with a structured error, then close.
      // The decoder is poisoned, so no further frames are parsed.
      server_->reject_counter(ErrorCode::kProtocol).inc();
      ErrorFrame error;
      error.code = ErrorCode::kProtocol;
      error.message = e.what();
      send_from_loop(conn, encode_error(error), /*close_after=*/true);
      return;
    }
    if (peer_closed) {
      if (conn->decoder.buffered() > 0) {
        // Disconnect mid-frame: bytes of a frame that never completed.
        server_->midframe_disconnects.inc();
      }
      close_connection(conn);
    }
  }

  void handle_frame(const ConnectionPtr& conn, const Frame& frame) {
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
          server_->reject_counter(ErrorCode::kInvalidRequest).inc();
          reply_error(conn, frame.header.request_id,
                      ErrorCode::kInvalidRequest, 0, e.what());
          return;
        }
        if (server_->draining.load(std::memory_order_acquire)) {
          server_->reject_counter(ErrorCode::kShuttingDown).inc();
          reply_error(conn, request.request_id, ErrorCode::kShuttingDown,
                      /*retry_after_seconds=*/1.0, "server is draining");
          return;
        }
        double retry_after = 0;
        if (!server_->admission.try_admit_request(request.tenant,
                                                  &retry_after)) {
          server_->reject_counter(ErrorCode::kQuotaExceeded).inc();
          reply_error(conn, request.request_id, ErrorCode::kQuotaExceeded,
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
        if (!server_->dispatcher->try_submit(std::move(item))) {
          server_->reject_counter(ErrorCode::kOverloaded).inc();
          reply_error(conn, request.request_id, ErrorCode::kOverloaded,
                      server_->overload_retry_hint(),
                      "dispatch queue is full");
        }
        return;
      }
      case FrameType::kMetricsRequest: {
        send_from_loop(conn,
                       encode_metrics_response(
                           frame.header.request_id,
                           obs::to_json(server_->merged_snapshot())),
                       /*close_after=*/false);
        return;
      }
      case FrameType::kChurnEvent: {
        // Applied inline on the loop thread: churn is an operator feed
        // (a handful of events per incident), and applying before the
        // next read guarantees compile requests later on this
        // connection observe the bumped epoch.
        const ChurnEventFrame event = decode_churn_event(frame);
        try {
          ChurnAckFrame ack = server_->apply_churn(event);
          ack.request_id = event.request_id;
          send_from_loop(conn, encode_churn_ack(ack),
                         /*close_after=*/false);
        } catch (const InvalidArgument& e) {
          server_->churn_rejects.inc();
          server_->reject_counter(ErrorCode::kInvalidRequest).inc();
          reply_error(conn, event.request_id, ErrorCode::kInvalidRequest, 0,
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

  void reply_error(const ConnectionPtr& conn, std::uint64_t request_id,
                   ErrorCode code, double retry_after_seconds,
                   const std::string& message) {
    ErrorFrame error;
    error.request_id = request_id;
    error.code = code;
    error.retry_after_ms = to_retry_ms(retry_after_seconds);
    error.message = message;
    send_from_loop(conn, encode_error(error), /*close_after=*/false);
  }

  void send_from_loop(const ConnectionPtr& conn, std::string bytes,
                      bool close_after) {
    {
      const std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->closed) return;
      conn->queue(std::move(bytes));
      conn->close_after_flush = conn->close_after_flush || close_after;
    }
    flush(conn);
  }

  /// Writes pending output until done or EAGAIN (loop thread only).
  void flush(const ConnectionPtr& conn) {
    bool should_close = false;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->closed) return;
      while (conn->out_offset < conn->out.size()) {
        const ssize_t n =
            ::send(conn->fd, conn->out.data() + conn->out_offset,
                   conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
        if (n >= 0) {
          conn->out_offset += static_cast<std::size_t>(n);
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        // EPIPE/ECONNRESET: the peer vanished mid-response. SIGPIPE is
        // ignored process-wide, so this is a clean error path.
        server_->response_drops.inc();
        should_close = true;
        break;
      }
      if (!should_close) {
        if (conn->out_offset == conn->out.size()) {
          conn->out.clear();
          conn->out_offset = 0;
          should_close = conn->close_after_flush;
        } else if (conn->out_offset >= conn->out.size() / 2) {
          // Compacting only at half bounds the memmove by the bytes
          // sent since the last one, instead of moving a large frame's
          // tail after every partial send while dispatchers wait.
          conn->out.erase(0, conn->out_offset);
          conn->out_offset = 0;
        }
      }
    }
    if (should_close) close_connection(conn);
  }

  void close_connection(const ConnectionPtr& conn) {
    {
      const std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->closed) return;
      conn->closed = true;
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conns_.erase(conn->fd);
    server_->admission.release_connection();
    server_->connections_active.add(-1);
  }

  Server::Impl* server_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  /// Written before stopping_ is set; read by the loop after it sees it.
  Clock::time_point stop_deadline_;

  /// Loop-thread only.
  std::unordered_map<int, ConnectionPtr> conns_;

  std::mutex pending_mutex_;
  std::vector<int> new_fds_;
  std::vector<ConnectionPtr> pending_flushes_;
};

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
          "Responses dropped because the client disconnected first "
          "(EPIPE/ECONNRESET or closed before delivery) or had not read "
          "them by the shutdown drain deadline")),
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
      request_seconds(registry.histogram("aapc_netd_request_seconds",
                                         "Dispatch-to-response latency")),
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
  AAPC_REQUIRE(options.event_loops >= 1,
               "ServerOptions::event_loops must be >= 1");
  if (options.fabric != nullptr) {
    const std::lock_guard<std::mutex> lock(fabric_mutex);
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

  const std::lock_guard<std::mutex> lock(fabric_mutex);
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

Server::Impl::~Impl() = default;

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

void Server::Impl::accept_loop() {
  while (!accept_stop.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout ms=*/100);
    if (ready <= 0) continue;
    while (true) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        if (accept_stop.load(std::memory_order_acquire)) return;
        AAPC_WARN("accept4 failed: " << std::strerror(errno));
        break;
      }
      connections_total.inc();
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (!admission.try_admit_connection()) {
        refuse_connection(fd, ErrorCode::kConnectionLimit,
                          "connection limit reached");
        continue;
      }
      connections_active.add(1);
      const std::size_t loop_index =
          next_loop.fetch_add(1, std::memory_order_relaxed) % loops.size();
      loops[loop_index]->adopt(fd);
    }
  }
}

void Server::Impl::deliver(const ConnectionPtr& conn, std::string bytes) {
  bool dropped;
  {
    const std::lock_guard<std::mutex> lock(conn->mutex);
    dropped = conn->closed;
    if (!dropped) conn->queue(std::move(bytes));
  }
  if (dropped) {
    response_drops.inc();
    return;
  }
  conn->loop->request_flush(conn);
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
  requests.inc();
  try {
    // The caller-labeled JSON is written straight from the canonical
    // entry through the permutation; no relabeled schedule is built.
    service::ServedEntry served = service.lookup(
        topo, request.message_bytes, canon, request.kind, request.neighbors);
    ResponseFrame response;
    response.request_id = request.request_id;
    response.cache_hit = served.cache_hit;
    response.coalesced = served.coalesced;
    response.epoch = served.epoch;
    response.canonical_hash = canon.hash;
    response.schedule_json = core::schedule_to_json(
        served.entry->schedule, topo.machine_count(),
        core::invert_permutation(served.to_canonical));
    response.to_canonical = std::move(served.to_canonical);
    std::string bytes = encode_response(response);
    request_frame_bytes.observe(
        static_cast<double>(item.request_frame_bytes));
    response_frame_bytes.observe(static_cast<double>(bytes.size()));
    request_seconds.observe(seconds_since(item.arrival));
    deliver(item.conn, std::move(bytes));
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

std::int64_t Server::active_connections() const {
  AAPC_REQUIRE(impl_ != nullptr, "Server::active_connections() before "
                                 "start()");
  return impl_->admission.active_connections();
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

  for (std::int32_t i = 0; i < options_.event_loops; ++i) {
    impl.loops.push_back(std::make_unique<EventLoop>(&impl));
  }
  for (const std::unique_ptr<EventLoop>& loop : impl.loops) loop->start();
  impl.dispatcher = std::make_unique<Dispatcher>(
      &impl, options_.dispatch_threads, options_.dispatch_queue_capacity);
  impl.acceptor = std::thread([this] { impl_->accept_loop(); });
  running_.store(true, std::memory_order_release);
  AAPC_INFO("aapc_netd listening on " << options_.host << ":"
                                      << impl.bound_port << " ("
                                      << options_.event_loops
                                      << " event loops)");
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  Impl& impl = *impl_;

  // 1. Stop admitting: no new connections, new requests get
  //    kShuttingDown error frames.
  impl.draining.store(true, std::memory_order_release);
  impl.accept_stop.store(true, std::memory_order_release);
  if (impl.acceptor.joinable()) impl.acceptor.join();
  ::close(impl.listen_fd);
  impl.listen_fd = -1;

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
    AAPC_WARN("drain deadline reached with " << abandoned
                                             << " requests still queued; "
                                                "failing them with "
                                                "kShuttingDown");
  }

  // 3. Join dispatchers: executing items finish, queued items (only
  //    present when the deadline was hit) are failed with structured
  //    kShuttingDown frames instead of silent drops.
  impl.dispatcher->stop_and_join(/*abandon_remaining=*/true);

  // 4. Stop event loops: each serves its connections until their
  //    output drains (new requests get kShuttingDown), closing each as
  //    it empties and the rest at the drain deadline.
  for (const std::unique_ptr<EventLoop>& loop : impl.loops) {
    loop->begin_stop(deadline);
  }
  for (const std::unique_ptr<EventLoop>& loop : impl.loops) loop->join();
}

}  // namespace aapc::netd
