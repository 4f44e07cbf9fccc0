// Weighted fair queueing for shared service capacity.
//
// The second QoS gate: admission control caps each tenant's long-run rate,
// but inside that budget a burst can still monopolize a storage node's
// service queue. This class shapes the queue itself: callers Acquire() a
// service slot before doing work and Release() it after; when all slots are
// busy, waiters park in per-tenant sub-queues drained by deficit
// round-robin, so a tenant with weight 2 gets twice the drain rate of a
// tenant with weight 1 regardless of how many requests each has parked.
//
// Overflow is bounded and loud. When total queued depth would exceed
// max_depth, the OLDEST waiter of the HEAVIEST tenant (the one with the
// most parked requests — by construction the overload source) is shed with
// kAgain + a retry-after hint, and counted in that tenant's shed cell.
// Waiters that sit longer than max_wait shed themselves the same way.
// Nothing is ever dropped silently: every shed surfaces as a retryable
// error the caller's retry loop converts into backoff, never lost work.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>

#include "common/clock.h"
#include "common/status.h"
#include "qos/tenant.h"

namespace arkfs::qos {

struct FairQueueConfig {
  bool enabled = false;
  // Requests serviced concurrently before others must queue.
  std::size_t service_slots = 1;
  // Total parked waiters (across all tenants) before shedding starts.
  std::size_t max_depth = 64;
  // A tenant drains `weight` requests per pass over the active tenants.
  std::map<TenantId, double> weights;  // default weight 1.0
  // Waiters parked longer than this shed themselves (0 = wait forever).
  Nanos max_wait = Millis(2000);
  // Retry-after hint attached to shed rejections.
  Nanos shed_retry_after = Millis(5);
};

class WeightedFairQueue {
 public:
  // `metrics` may be null; must outlive this.
  WeightedFairQueue(FairQueueConfig config, TenantMetrics* metrics)
      : config_(std::move(config)), metrics_(metrics) {}

  // Blocks until a service slot is granted (kOk — caller MUST Release()
  // exactly once) or the request is shed (kAgain + retry-after hint — the
  // slot was never held, do not Release). Disabled queues grant instantly.
  Status Acquire(TenantId tenant);
  void Release();

  std::size_t QueuedDepth() const;  // parked waiters right now

 private:
  struct Waiter {
    TenantId tenant = 0;
    enum class State { kWaiting, kGranted, kShed } state = State::kWaiting;
  };
  struct SubQueue {
    std::deque<Waiter*> waiters;
    double deficit = 0;
  };

  double WeightFor(TenantId tenant) const;
  void GrantLocked();           // DRR drain into free slots
  bool ShedForOverflowLocked();  // oldest waiter of heaviest tenant
  void RemoveLocked(Waiter* w);
  Status ShedStatus(TenantId tenant) const;

  const FairQueueConfig config_;
  TenantMetrics* metrics_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::size_t slots_in_use_ = 0;
  std::size_t depth_ = 0;
  std::map<TenantId, SubQueue> queues_;
  // Round-robin rotation over tenants that currently have waiters.
  std::deque<TenantId> rotation_;
};

}  // namespace arkfs::qos
