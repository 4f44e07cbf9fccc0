#include "qos/fair_queue.h"

#include <algorithm>
#include <string>

#include "common/retry_hint.h"

namespace arkfs::qos {

double WeightedFairQueue::WeightFor(TenantId tenant) const {
  auto it = config_.weights.find(tenant);
  const double w = it != config_.weights.end() ? it->second : 1.0;
  // Weight <= 0 would starve the DRR loop forever; clamp to the default.
  return w > 0 ? w : 1.0;
}

Status WeightedFairQueue::ShedStatus(TenantId tenant) const {
  return ErrStatus(Errc::kAgain,
                   FormatRetryAfterHint(config_.shed_retry_after,
                                        "tenant " + std::to_string(tenant) +
                                            " shed from fair queue"));
}

void WeightedFairQueue::GrantLocked() {
  bool granted = false;
  while (slots_in_use_ < config_.service_slots && depth_ > 0) {
    const TenantId t = rotation_.front();
    rotation_.pop_front();
    auto it = queues_.find(t);
    SubQueue& sq = it->second;
    // The quantum (one request per unit of weight) is credited once per
    // rotation visit: a tenant parked at the head because the slots filled
    // (below) resumes with its BANKED credit, it does not accrue more just
    // because Release called us again.
    if (sq.deficit < 1.0) sq.deficit += WeightFor(t);
    while (sq.deficit >= 1.0 && !sq.waiters.empty() &&
           slots_in_use_ < config_.service_slots) {
      Waiter* w = sq.waiters.front();
      sq.waiters.pop_front();
      --depth_;
      sq.deficit -= 1.0;
      w->state = Waiter::State::kGranted;
      ++slots_in_use_;
      granted = true;
    }
    if (sq.waiters.empty()) {
      // Emptied (or was drained to empty): deficit resets with the queue so
      // an idle tenant cannot bank credit, per classic DRR.
      queues_.erase(it);
    } else if (sq.deficit >= 1.0 &&
               slots_in_use_ >= config_.service_slots) {
      // Stopped by slot capacity, not by an exhausted deficit: stay at the
      // head with the remaining credit. Rotating here would turn weighted
      // drain into plain round-robin whenever slots free one at a time.
      rotation_.push_front(t);
    } else {
      rotation_.push_back(t);
    }
  }
  if (granted) cv_.notify_all();
}

bool WeightedFairQueue::ShedForOverflowLocked() {
  // The heaviest tenant — most parked waiters — is by construction the
  // overload source; its oldest waiter is the one that has been clogging
  // the queue longest.
  TenantId heaviest = 0;
  std::size_t most = 0;
  for (const auto& [t, sq] : queues_) {
    if (sq.waiters.size() > most) {
      most = sq.waiters.size();
      heaviest = t;
    }
  }
  if (most == 0) return false;
  auto it = queues_.find(heaviest);
  Waiter* victim = it->second.waiters.front();
  it->second.waiters.pop_front();
  --depth_;
  victim->state = Waiter::State::kShed;
  if (it->second.waiters.empty()) {
    queues_.erase(it);
    rotation_.erase(std::find(rotation_.begin(), rotation_.end(), heaviest));
  }
  if (metrics_) metrics_->For(heaviest).shed.Add();
  cv_.notify_all();
  return true;
}

void WeightedFairQueue::RemoveLocked(Waiter* w) {
  auto it = queues_.find(w->tenant);
  if (it == queues_.end()) return;
  auto& waiters = it->second.waiters;
  auto pos = std::find(waiters.begin(), waiters.end(), w);
  if (pos == waiters.end()) return;
  waiters.erase(pos);
  --depth_;
  if (waiters.empty()) {
    queues_.erase(it);
    rotation_.erase(std::find(rotation_.begin(), rotation_.end(), w->tenant));
  }
}

Status WeightedFairQueue::Acquire(TenantId tenant) {
  if (!config_.enabled) return Status::Ok();
  std::unique_lock lock(mu_);
  if (depth_ == 0 && slots_in_use_ < config_.service_slots) {
    ++slots_in_use_;
    return Status::Ok();
  }
  if (depth_ >= config_.max_depth) {
    if (!ShedForOverflowLocked()) {
      // No waiter to evict (max_depth == 0): shed the newcomer itself.
      if (metrics_) metrics_->For(tenant).shed.Add();
      return ShedStatus(tenant);
    }
  }
  Waiter self;
  self.tenant = tenant;
  SubQueue& sq = queues_[tenant];
  if (sq.waiters.empty()) rotation_.push_back(tenant);
  sq.waiters.push_back(&self);
  ++depth_;
  if (metrics_) metrics_->For(tenant).queued.Add();
  GrantLocked();  // a slot may already be free when service_slots > 1

  const auto parked = [&self] {
    return self.state != Waiter::State::kWaiting;
  };
  if (config_.max_wait.count() > 0) {
    if (!cv_.wait_for(lock, config_.max_wait, parked)) {
      // Timed out still waiting: bounded queueing delay is part of the
      // contract — shed ourselves rather than hold the caller hostage.
      RemoveLocked(&self);
      if (metrics_) metrics_->For(tenant).shed.Add();
      return ShedStatus(tenant);
    }
  } else {
    cv_.wait(lock, parked);
  }
  if (self.state == Waiter::State::kShed) return ShedStatus(tenant);
  return Status::Ok();  // granted — GrantLocked already took the slot
}

void WeightedFairQueue::Release() {
  if (!config_.enabled) return;
  std::lock_guard lock(mu_);
  if (slots_in_use_ > 0) --slots_in_use_;
  GrantLocked();
}

std::size_t WeightedFairQueue::QueuedDepth() const {
  std::lock_guard lock(mu_);
  return depth_;
}

}  // namespace arkfs::qos
