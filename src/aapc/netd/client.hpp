// Blocking client for the aapc_netd wire protocol (netd/wire.hpp,
// docs/NETD.md): one TCP connection, synchronous request/response.
// Used by examples/aapc_loadgen.cpp, aapc_serviced --connect, and the
// loopback tests. Error frames from the server surface as RemoteError
// carrying the structured code and retry-after hint, so callers can
// implement the documented backoff contract.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "aapc/common/error.hpp"
#include "aapc/common/units.hpp"
#include "aapc/netd/wire.hpp"
#include "aapc/topology/topology.hpp"

namespace aapc::netd {

/// The server answered with an error frame.
class RemoteError : public Error {
 public:
  explicit RemoteError(ErrorFrame frame)
      : Error(std::string(error_code_name(frame.code)) + ": " +
              frame.message),
        frame_(std::move(frame)) {}

  ErrorCode code() const { return frame_.code; }
  double retry_after_seconds() const { return frame_.retry_after_ms / 1e3; }
  const ErrorFrame& frame() const { return frame_; }

 private:
  ErrorFrame frame_;
};

struct ClientOptions {
  /// Transparent reconnect attempts per request when the transport
  /// fails (connection refused, server closed the connection, reset
  /// mid-frame). 0 disables reconnection — every transport error
  /// surfaces immediately, the pre-churn behavior.
  std::int32_t max_reconnects = 5;
  /// Backoff before the first reconnect attempt; doubles per attempt,
  /// up to 1 s.
  double initial_backoff_seconds = 0.05;
  /// Also retry kOverloaded / kShuttingDown error frames (sleeping the
  /// server's retry-after hint, floored by the backoff schedule).
  /// Off by default: load generators usually want to *count* rejects.
  bool retry_on_overload = false;
};

class Client {
 public:
  /// Connects immediately; throws aapc::Error on failure.
  Client(const std::string& host, std::uint16_t port,
         const ClientOptions& options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Requests the routine for `topo` at `message_bytes` under `tenant`
  /// and blocks for the response. Transport failures (server closed
  /// the connection, reset mid-frame) trigger transparent
  /// reconnect-and-resend with capped exponential backoff, up to
  /// ClientOptions::max_reconnects; past that the aapc::Error
  /// surfaces. Throws RemoteError on an error frame (unless
  /// retry_on_overload covers it), ProtocolError on a malformed
  /// response.
  ResponseFrame compile(const topology::Topology& topo, Bytes message_bytes,
                        const std::string& tenant = "default",
                        core::CollectiveKind kind =
                            core::CollectiveKind::kAlltoall,
                        const core::SparseNeighbors& neighbors = {});

  /// Same with a pre-serialized docs/FORMATS.md §1 topology (loadgen
  /// serializes each pool entry once instead of per request).
  ResponseFrame compile_serialized(const std::string& topology_text,
                                   Bytes message_bytes,
                                   const std::string& tenant = "default",
                                   core::CollectiveKind kind =
                                       core::CollectiveKind::kAlltoall,
                                   const core::SparseNeighbors& neighbors = {});

  /// Fetches the server's merged obs registry snapshot as JSON.
  /// Reconnects on transport failure like compile().
  std::string fetch_metrics_json();

  /// Feeds one fabric link event to the server and blocks for the
  /// accounting ack. Throws RemoteError (kInvalidRequest) when the
  /// server has no fabric, the link index is bad, or the event would
  /// disconnect the bridge graph. Not retried: churn is not
  /// idempotent (a replayed event double-bumps the epoch).
  ChurnAckFrame churn(ChurnKind kind, std::int32_t link, double factor = 1.0);

  /// Raw frame I/O for protocol tests: sends arbitrary bytes, reads
  /// the next frame (or throws when the server closes first).
  void send_raw(std::string_view bytes);
  Frame read_frame();

  void close();

  /// Reconnect attempts taken over the client's lifetime (tests assert
  /// the transparent-retry path actually exercised).
  std::int64_t reconnects() const { return reconnects_; }

 private:
  void dial();
  /// Runs `op` with the reconnect/backoff policy: transport errors
  /// redial and retry, overload error frames optionally sleep the hint
  /// and retry, everything else surfaces.
  template <typename Fn>
  auto with_retry(Fn&& op) -> decltype(op());
  ResponseFrame roundtrip(const std::string& frame_bytes,
                          std::uint64_t request_id);

  std::string host_;
  std::uint16_t port_ = 0;
  ClientOptions options_;
  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  std::int64_t reconnects_ = 0;
  FrameDecoder decoder_;
};

}  // namespace aapc::netd
