#include "aapc/netd/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "aapc/topology/io.hpp"

namespace aapc::netd {

namespace {

/// Cap of the reconnect backoff, which doubles per attempt.
constexpr double kMaxBackoffSeconds = 1.0;

}  // namespace

Client::Client(const std::string& host, std::uint16_t port,
               const ClientOptions& options)
    : host_(host), port_(port), options_(options) {
  dial();
}

Client::~Client() { close(); }

void Client::dial() {
  close();
  // A fresh connection starts a fresh frame stream; bytes of a response
  // the old server never finished must not prefix the new one.
  decoder_ = FrameDecoder();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  AAPC_CHECK_MSG(fd_ >= 0, "socket: " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  AAPC_REQUIRE(::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) == 1,
               "invalid address '" << host_ << "'");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw Error("connect " + host_ + ":" + std::to_string(port_) + ": " +
                std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

template <typename Fn>
auto Client::with_retry(Fn&& op) -> decltype(op()) {
  double backoff = options_.initial_backoff_seconds;
  std::int32_t attempts = 0;
  const auto sleep_and_advance = [&](double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(0.0, seconds)));
    backoff = std::min(backoff * 2, kMaxBackoffSeconds);
  };
  while (true) {
    try {
      if (fd_ < 0) dial();  // the previous attempt tore the socket down
      return op();
    } catch (const ProtocolError&) {
      throw;  // malformed stream: resynchronization is impossible
    } catch (const RemoteError& e) {
      // The connection is healthy — the server said no. Only the
      // transient codes are retryable, and only when asked.
      const bool transient = e.code() == ErrorCode::kOverloaded ||
                             e.code() == ErrorCode::kShuttingDown;
      if (!options_.retry_on_overload || !transient ||
          attempts >= options_.max_reconnects) {
        throw;
      }
      ++attempts;
      sleep_and_advance(std::max(e.retry_after_seconds(), backoff));
    } catch (const Error&) {
      // Transport failure: connection refused, server closed the
      // connection (possibly mid-frame), ECONNRESET on read/write.
      if (attempts >= options_.max_reconnects) throw;
      ++attempts;
      ++reconnects_;
      close();
      sleep_and_advance(backoff);
    }
  }
}

void Client::send_raw(std::string_view bytes) {
  AAPC_REQUIRE(fd_ >= 0, "client is not connected");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

Frame Client::read_frame() {
  AAPC_REQUIRE(fd_ >= 0, "client is not connected");
  while (true) {
    if (std::optional<Frame> frame = decoder_.next()) {
      return std::move(*frame);
    }
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw Error(std::string("recv: ") + std::strerror(errno));
    throw Error("server closed the connection" +
                std::string(decoder_.buffered() > 0 ? " mid-frame" : ""));
  }
}

ResponseFrame Client::roundtrip(const std::string& frame_bytes,
                                std::uint64_t request_id) {
  send_raw(frame_bytes);
  const Frame frame = read_frame();
  if (frame.header.type == FrameType::kError) {
    throw RemoteError(decode_error(frame));
  }
  ResponseFrame response = decode_response(frame);
  if (response.request_id != request_id) {
    throw ProtocolError("response for request " +
                        std::to_string(response.request_id) +
                        " while waiting on " + std::to_string(request_id));
  }
  return response;
}

ResponseFrame Client::compile(const topology::Topology& topo,
                              Bytes message_bytes, const std::string& tenant,
                              core::CollectiveKind kind,
                              const core::SparseNeighbors& neighbors) {
  return compile_serialized(topology::serialize_topology(topo), message_bytes,
                            tenant, kind, neighbors);
}

ResponseFrame Client::compile_serialized(const std::string& topology_text,
                                         Bytes message_bytes,
                                         const std::string& tenant,
                                         core::CollectiveKind kind,
                                         const core::SparseNeighbors& neighbors) {
  return with_retry([&] {
    RequestFrame request;
    request.request_id = next_request_id_++;
    request.message_bytes = message_bytes;
    request.tenant = tenant;
    request.topology_text = topology_text;
    request.kind = kind;
    request.neighbors = neighbors;
    return roundtrip(encode_request(request), request.request_id);
  });
}

std::string Client::fetch_metrics_json() {
  return with_retry([&]() -> std::string {
    const std::uint64_t request_id = next_request_id_++;
    send_raw(encode_metrics_request(request_id));
    const Frame frame = read_frame();
    if (frame.header.type == FrameType::kError) {
      throw RemoteError(decode_error(frame));
    }
    return decode_metrics_response(frame);
  });
}

ChurnAckFrame Client::churn(ChurnKind kind, std::int32_t link,
                            double factor) {
  ChurnEventFrame event;
  event.request_id = next_request_id_++;
  event.kind = kind;
  event.link = link;
  event.factor = kind == ChurnKind::kLinkDegrade ? factor
                 : kind == ChurnKind::kLinkDown  ? 0.0
                                                 : 1.0;
  send_raw(encode_churn_event(event));
  const Frame frame = read_frame();
  if (frame.header.type == FrameType::kError) {
    throw RemoteError(decode_error(frame));
  }
  ChurnAckFrame ack = decode_churn_ack(frame);
  if (ack.request_id != event.request_id) {
    throw ProtocolError("churn ack for request " +
                        std::to_string(ack.request_id) +
                        " while waiting on " +
                        std::to_string(event.request_id));
  }
  return ack;
}

}  // namespace aapc::netd
