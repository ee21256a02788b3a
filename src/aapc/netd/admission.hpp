// Admission control for the netd front-end: per-tenant token-bucket
// request quotas and a global connection cap, enforced *before* a
// request reaches the dispatch queue or the schedule service. These are
// the outer two of the three pressure valves (connection cap -> tenant
// quota -> dispatch queue bound); each rejects with a structured error
// frame carrying a retry-after hint rather than dropping the
// connection. The server's one event loop runs both: the cap when it
// accepts a connection, the quota when it decodes a request. Semantics
// are documented in docs/NETD.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace aapc::netd {

/// Classic token bucket: `rate` tokens accrue per second up to `burst`;
/// each admitted request spends one token. Time is passed in by the
/// caller (monotonic seconds) so tests can drive it deterministically.
class TokenBucket {
 public:
  TokenBucket(double rate, double burst)
      : rate_(rate), burst_(burst), tokens_(burst) {}

  /// Tries to spend one token at time `now_seconds`. On refusal,
  /// `retry_after_seconds` is set to the time until a full token has
  /// accrued.
  bool try_acquire(double now_seconds, double* retry_after_seconds);

  double tokens_at(double now_seconds) const;

 private:
  void refill(double now_seconds);

  double rate_;
  double burst_;
  double tokens_;
  double last_refill_seconds_ = 0;
};

struct AdmissionOptions {
  /// Concurrent connections admitted; further accepts receive a
  /// kConnectionLimit error frame and are closed. <= 0 disables.
  std::int64_t max_connections = 4096;
  /// Per-tenant steady-state requests per second. <= 0 disables
  /// tenant quotas entirely (no buckets are kept).
  double tenant_rate = 0;
  /// Per-tenant burst allowance (bucket capacity), floored at 1 token
  /// when quotas are enabled.
  double tenant_burst = 64;
};

/// Thread-safe admission state; the server's event loop is its caller.
class AdmissionControl {
 public:
  explicit AdmissionControl(const AdmissionOptions& options);

  /// Connection accounting. try_admit_connection() returns false when
  /// the cap is reached (the caller sends kConnectionLimit and closes).
  bool try_admit_connection();
  void release_connection();

  /// Tenant quota check at request admission; `retry_after_seconds`
  /// is set on refusal. Unknown tenants get a fresh full bucket.
  bool try_admit_request(const std::string& tenant,
                         double* retry_after_seconds);

  const AdmissionOptions& options() const { return options_; }

 private:
  double now_seconds() const;

  AdmissionOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mutex_;
  std::int64_t active_connections_ = 0;
  std::unordered_map<std::string, TokenBucket> buckets_;
};

}  // namespace aapc::netd
