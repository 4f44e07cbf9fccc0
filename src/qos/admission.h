// Per-tenant token-bucket admission control.
//
// The first QoS gate on the request path: one bucket per tenant, refilled
// continuously on the monotonic clock, spent once per admitted operation.
// Enforced where a tenant's burst first touches shared capacity — a lease
// Acquire that grants or renews at the manager, and RunDirOp on the serving
// leader — so an aggressor's mdtest storm is turned away at the door
// instead of filling the queues every other tenant shares. An Acquire the
// manager answers with a redirect is not charged: the op it belongs to is
// charged once, by the leader that serves it.
//
// Rejections are graceful, never silent: kAgain whose detail carries a
// "retry-after-ns=<n>" hint computed from the bucket (when the next token
// lands). The hint composes with the existing retry machinery — RetryCall
// and RunDirOp sleep the hinted time instead of decorrelated jitter, and
// the lease path carries the same hint in-band as AcquireResponse
// .retry_after_ns next to a kWait outcome — so a throttled tenant converges
// onto its configured rate instead of hammering.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "qos/tenant.h"

namespace arkfs::qos {

// 0 rate = unlimited (that tenant is never throttled).
struct TenantRate {
  double rate_per_sec = 0;
  double burst = 0;  // bucket capacity; 0 = one second of rate
};

struct AdmissionConfig {
  bool enabled = false;
  // Per-tenant rates; a tenant without an entry is unlimited.
  std::map<TenantId, TenantRate> tenants;
};

class AdmissionController {
 public:
  // `metrics` may be null (no per-tenant accounting); must outlive this.
  AdmissionController(AdmissionConfig config, TenantMetrics* metrics)
      : config_(std::move(config)), metrics_(metrics) {}

  // kOk when admitted (one token spent); kAgain + retry-after hint when the
  // tenant's bucket is empty. Disabled controllers admit everything free.
  Status Admit(TenantId tenant, double cost = 1.0);

  bool enabled() const { return config_.enabled; }

 private:
  struct Bucket {
    TenantRate rate;
    double tokens = 0;
    TimePoint refilled{};
  };
  Bucket& BucketFor(TenantId tenant, TimePoint now);  // mu_ held

  const AdmissionConfig config_;
  TenantMetrics* metrics_;
  mutable std::mutex mu_;
  std::map<TenantId, Bucket> buckets_;
};

}  // namespace arkfs::qos
