// Per-tenant namespace quotas: inode and byte budgets.
//
// Admission control and fair queueing bound a tenant's RATE; quotas bound
// its FOOTPRINT — how much of the shared namespace it may occupy. Usage is
// charged at the directory leader on the mutation path (create/mkdir/symlink
// charge an inode, unlink/rmdir credit one back, size-changing commits
// charge the byte delta) and a charge that would exceed the tenant's limit
// bounces with kNoSpc, exactly what a full filesystem returns — existing
// callers need no new error handling.
//
// Accounting is cheap and crash-consistent to the same degree as the rest
// of the metadata plane: counters live in memory on the charging node and
// ride the existing checkpoint path — after every successful journal
// checkpoint the serialized usage map (magic + CRC) is written to a
// well-known object, and a restarted cluster reloads it. Between
// checkpoints usage can under-count (same bounded-loss window as the
// group-commit journal); it is deliberately never enforced so strictly that
// replayable operations could double-bounce.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "qos/tenant.h"

namespace arkfs::qos {

// Object key the serialized usage map is checkpointed under.
inline constexpr char kQuotaUsageKey[] = "sys.qos-usage";

// 0 = unlimited.
struct QuotaLimits {
  std::uint64_t max_inodes = 0;
  std::uint64_t max_bytes = 0;
};

struct QuotaConfig {
  bool enabled = false;
  // Per-tenant limits; a tenant without an entry is unlimited.
  std::map<TenantId, QuotaLimits> tenants;
};

class QuotaManager {
 public:
  struct Usage {
    std::uint64_t inodes = 0;
    std::uint64_t bytes = 0;
  };

  // `metrics` may be null; must outlive this.
  QuotaManager(QuotaConfig config, TenantMetrics* metrics)
      : config_(std::move(config)), metrics_(metrics) {}

  // Positive deltas that would push usage past the tenant's limit return
  // kNoSpc and charge nothing. Negative deltas (deletes) always apply,
  // floored at zero — a credit must never be refused or the namespace
  // could never shrink back under quota.
  Status ChargeInodes(TenantId tenant, std::int64_t delta);
  Status ChargeBytes(TenantId tenant, std::int64_t delta);

  Usage UsageFor(TenantId tenant) const;

  // Persistence: the full usage map as a checksummed blob, and its inverse.
  // LoadUsage replaces all in-memory counters; a corrupt blob is rejected
  // (kIo) and leaves state untouched.
  Bytes EncodeUsage() const;
  Status LoadUsage(ByteSpan data);

  // True once per mutation batch: set by any successful charge/credit,
  // cleared by the caller that persists. Lets the checkpoint hook skip the
  // object write when nothing changed.
  bool ConsumeDirty();
  // Re-arms the dirty flag — the persist hook calls this when its store
  // write failed so the next checkpoint retries instead of losing the
  // update until the next charge.
  void MarkDirty();

  bool enabled() const { return config_.enabled; }

 private:
  QuotaLimits LimitsFor(TenantId tenant) const;
  Status Charge(TenantId tenant, std::int64_t delta, bool inodes);

  const QuotaConfig config_;
  TenantMetrics* metrics_;
  mutable std::mutex mu_;
  std::map<TenantId, Usage> usage_;
  bool dirty_ = false;
};

}  // namespace arkfs::qos
