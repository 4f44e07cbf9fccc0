#include "qos/admission.h"

#include <algorithm>

#include "common/retry_hint.h"

namespace arkfs::qos {

AdmissionController::Bucket& AdmissionController::BucketFor(TenantId tenant,
                                                            TimePoint now) {
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    Bucket b;
    auto rate_it = config_.tenants.find(tenant);
    b.rate = rate_it != config_.tenants.end() ? rate_it->second
                                              : TenantRate{};
    if (b.rate.burst <= 0) b.rate.burst = b.rate.rate_per_sec;
    b.tokens = b.rate.burst;  // a new tenant starts with a full burst
    b.refilled = now;
    it = buckets_.emplace(tenant, b).first;
  }
  return it->second;
}

Status AdmissionController::Admit(TenantId tenant, double cost) {
  if (!config_.enabled) return Status::Ok();
  std::lock_guard lock(mu_);
  const TimePoint now = Now();
  Bucket& b = BucketFor(tenant, now);
  if (b.rate.rate_per_sec <= 0) {
    // Unlimited tenant: admitted without bucket bookkeeping.
    if (metrics_) metrics_->For(tenant).admitted.Add();
    return Status::Ok();
  }
  const double elapsed_s =
      std::chrono::duration<double>(now - b.refilled).count();
  b.tokens = std::min(b.rate.burst,
                      b.tokens + elapsed_s * b.rate.rate_per_sec);
  b.refilled = now;
  if (b.tokens >= cost) {
    b.tokens -= cost;
    if (metrics_) metrics_->For(tenant).admitted.Add();
    return Status::Ok();
  }
  // The bucket itself knows when retrying will succeed: when the missing
  // tokens have accrued. That is the hint — pure client-side jitter would
  // either hammer too early or overshoot.
  const double missing = cost - b.tokens;
  const auto wait_ns = static_cast<std::int64_t>(
      missing / b.rate.rate_per_sec * 1e9);
  if (metrics_) metrics_->For(tenant).shed.Add();
  return ErrStatus(
      Errc::kAgain,
      FormatRetryAfterHint(Nanos(std::max<std::int64_t>(wait_ns, 1)),
                           "tenant " + std::to_string(tenant) +
                               " over admission rate"));
}

}  // namespace arkfs::qos
