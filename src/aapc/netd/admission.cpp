#include "aapc/netd/admission.hpp"

#include <algorithm>

#include "aapc/common/error.hpp"

namespace aapc::netd {

void TokenBucket::refill(double now_seconds) {
  if (now_seconds <= last_refill_seconds_) return;
  tokens_ = std::min(burst_,
                     tokens_ + rate_ * (now_seconds - last_refill_seconds_));
  last_refill_seconds_ = now_seconds;
}

bool TokenBucket::try_acquire(double now_seconds,
                              double* retry_after_seconds) {
  refill(now_seconds);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  if (retry_after_seconds != nullptr) {
    *retry_after_seconds =
        rate_ > 0 ? (1.0 - tokens_) / rate_ : 1.0;
  }
  return false;
}

double TokenBucket::tokens_at(double now_seconds) const {
  TokenBucket copy = *this;
  copy.refill(now_seconds);
  return copy.tokens_;
}

AdmissionControl::AdmissionControl(const AdmissionOptions& options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  AAPC_REQUIRE(options.tenant_rate <= 0 || options.tenant_burst >= 0,
               "tenant_burst must be non-negative");
}

double AdmissionControl::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

bool AdmissionControl::try_admit_connection() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (options_.max_connections > 0 &&
      active_connections_ >= options_.max_connections) {
    return false;
  }
  ++active_connections_;
  return true;
}

void AdmissionControl::release_connection() {
  const std::lock_guard<std::mutex> lock(mutex_);
  --active_connections_;
  AAPC_CHECK(active_connections_ >= 0);
}

bool AdmissionControl::try_admit_request(const std::string& tenant,
                                         double* retry_after_seconds) {
  if (options_.tenant_rate <= 0) return true;
  const double now = now_seconds();
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    it = buckets_
             .emplace(tenant,
                      TokenBucket(options_.tenant_rate,
                                  std::max(1.0, options_.tenant_burst)))
             .first;
  }
  return it->second.try_acquire(now, retry_after_seconds);
}

}  // namespace aapc::netd
