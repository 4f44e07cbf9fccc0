// Shared retry/backoff engine for object-store operations.
//
// One policy type and one call helper, used by RetryingStore (every store
// call, blocking or batched through AsyncObjectIo, rides on it) and the
// lease client's RPCs, so "what is retryable and how hard do we try" is
// defined exactly once:
//
//  * Only transient codes are retried: kIo, kTimedOut, kAgain. Everything
//    else (kNoEnt, kNotSup, kInval, ...) is a semantic answer, not a fault.
//  * Only idempotent operations may be routed through this helper. Every
//    ObjectStore primitive qualifies under this repo's REST contract:
//    Get/GetRange/Head/List are pure reads, Put is a full-object replace,
//    PutRange writes at an absolute offset, and Delete of a gone key just
//    reports kNoEnt (which is not retried). Compound read-modify-write
//    closures are NOT idempotent and must not be retried blindly; their
//    primitives are retried one by one underneath them.
//  * Backoff is exponential with decorrelated jitter (sleep ~ uniform in
//    [base, 3*prev], capped) so a fleet of clients hammering a recovering
//    node spreads out instead of retrying in lockstep. When the failed
//    status carries a server retry-after hint (admission/fair-queue shed),
//    the hint replaces the jitter draw for that sleep, still capped.
//  * A deadline bounds the total time burned on one op; an attempt cap
//    bounds the count. Whichever trips first ends the retries
//    and the last error surfaces unchanged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/clock.h"
#include "common/retry_hint.h"
#include "common/rng.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace arkfs {

struct RetryPolicy {
  // Total tries including the first. 1 disables retries entirely.
  int max_attempts = 1;
  Nanos initial_backoff{Millis(2)};
  Nanos max_backoff{Millis(100)};
  // Budget for one op. 0 = unbounded.
  Nanos deadline{0};

  bool enabled() const { return max_attempts > 1; }

  static bool Retryable(Errc e) {
    return e == Errc::kIo || e == Errc::kTimedOut || e == Errc::kAgain;
  }

  // Aggressive-but-bounded profile used across the test suites.
  static RetryPolicy ForTests() {
    RetryPolicy p;
    p.max_attempts = 8;
    p.initial_backoff = Micros(200);
    p.max_backoff = Millis(20);
    p.deadline = Seconds(5);
    return p;
  }
};

// Retry accounting shared by every caller of RetryCall on one layer: four
// metric cells a layer attaches under its own registry prefix
// ("objstore.retry").
struct RetryCounters {
  obs::Counter attempts;       // every execution, incl. first
  obs::Counter retries;        // executions beyond the first
  obs::Counter giveups;        // attempt cap exhausted
  obs::Counter deadline_hits;  // deadline ended the retries

  void Attach(obs::MetricsRegistry* registry, const std::string& prefix) {
    attempts.Attach(registry, prefix + ".attempts");
    retries.Attach(registry, prefix + ".retries");
    giveups.Attach(registry, prefix + ".giveups");
    deadline_hits.Attach(registry, prefix + ".deadline_hits");
  }
};

inline TimePoint RetryDeadlineFor(const RetryPolicy& policy) {
  return policy.deadline.count() > 0 ? Now() + policy.deadline
                                     : TimePoint::max();
}

namespace retry_internal {
inline const std::string& DetailOf(const Status& s) { return s.detail(); }
template <typename T>
std::string DetailOf(const Result<T>& r) {
  return r.status().detail();
}
}  // namespace retry_internal

// Runs fn() under the policy. fn must return Status or Result<T>; the final
// (successful or last-failed) value is returned unchanged. `salt`
// decorrelates this call's jitter stream from concurrent callers'.
template <typename Fn>
auto RetryCall(const RetryPolicy& policy, std::uint64_t salt,
               RetryCounters* counters, TimePoint deadline, Fn&& fn)
    -> decltype(fn()) {
  if (counters) counters->attempts.Add();
  auto result = fn();
  if (result.ok() || !policy.enabled() ||
      !RetryPolicy::Retryable(result.code())) {
    return result;
  }
  // The jitter stream's seed is mixed with a per-call salt so concurrent
  // retriers do not share a backoff sequence.
  constexpr std::uint64_t kJitterSeed = 0x5bd1e995u;
  Rng rng(kJitterSeed ^ salt);
  Nanos prev = policy.initial_backoff;
  for (int attempt = 2; attempt <= policy.max_attempts; ++attempt) {
    const std::int64_t lo = policy.initial_backoff.count();
    const std::int64_t hi = std::max<std::int64_t>(lo + 1, 3 * prev.count());
    Nanos sleep{rng.Range(lo, hi)};
    if (sleep > policy.max_backoff) sleep = policy.max_backoff;
    // A server that shed this op may name the exact wait it wants
    // ("retry-after-ns=..." in the status detail). Trust it over the jitter
    // draw — the server knows its drain rate — but keep the cap so a bogus
    // hint cannot stall the caller.
    if (Nanos hint{}; ParseRetryAfterHint(retry_internal::DetailOf(result), &hint)) {
      sleep = std::min(hint, policy.max_backoff);
    }
    if (Now() + sleep >= deadline) {
      if (counters) counters->deadline_hits.Add();
      return result;
    }
    SleepFor(sleep);
    prev = sleep;
    if (counters) {
      counters->attempts.Add();
      counters->retries.Add();
    }
    result = fn();
    if (result.ok() || !RetryPolicy::Retryable(result.code())) return result;
  }
  if (counters) counters->giveups.Add();
  return result;
}

}  // namespace arkfs
