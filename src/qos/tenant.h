// Tenant identity + per-tenant metric bundles for the QoS plane.
//
// A tenant is a u32 carried next to the trace context (obs::TraceContext)
// and as a field of every lease and dir-op request frame. 0 is
// the default/untenanted id — QoS components treat it like any other tenant
// (it can be rate-limited too), but an unconfigured deployment never sees a
// non-zero id and pays nothing.
//
// Per-tenant observability comes free through the metrics plane's dotted
// names: every tenant that shows up gets a lazily-created bundle of counter
// cells attached as "tenant.<id>.admitted/shed/queued/quota_rejects", so
// `arkfs_cli introspect` and test registries see per-tenant traffic without
// any bespoke export path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.h"

namespace arkfs::qos {

using TenantId = std::uint32_t;

// "tenant.<id>.<leaf>"
std::string TenantMetricName(TenantId tenant, const char* leaf);

// Lazily-populated per-tenant counter bundles. The registry must outlive
// this object (same contract as every other cell owner); the bundles are
// heap-allocated so references handed out by For() stay valid for the
// lifetime of the TenantMetrics.
class TenantMetrics {
 public:
  struct Cells {
    obs::Counter admitted;       // ops past admission control
    obs::Counter shed;           // ops rejected: bucket empty, queue overflow
                                 // or queue-wait bound hit — never silent
    obs::Counter queued;         // ops that parked in a fair-queue sub-queue
    obs::Counter quota_rejects;  // creates/writes bounced kNoSpc
  };

  // null registry = process default (MetricsRegistry::Default()).
  explicit TenantMetrics(obs::MetricsRegistry* registry = nullptr)
      : registry_(registry) {}

  Cells& For(TenantId tenant);

 private:
  obs::MetricsRegistry* registry_;
  std::mutex mu_;
  std::map<TenantId, std::unique_ptr<Cells>> cells_;
};

}  // namespace arkfs::qos
