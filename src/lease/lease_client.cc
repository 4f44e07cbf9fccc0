#include "lease/lease_client.h"

#include <algorithm>
#include <functional>

#include "obs/trace.h"

namespace arkfs::lease {

// One pass over the replica list, starting at the last replica that
// answered. A standby answers with kAgain + the active replica's address;
// the sweep follows that hint immediately (one extra hop) before moving on.
// Returns the last transport error if nobody answers, or kAgain if only
// standbys answered (no active replica right now — retryable, a takeover is
// likely in flight).
Result<Bytes> LeaseClient::SweepManagers(const std::string& method,
                                         const Bytes& payload) {
  const auto& addrs = options_.managers;
  const std::size_t n = addrs.size();
  const std::size_t start = preferred_.load(std::memory_order_relaxed) % n;
  Result<Bytes> last = ErrStatus(Errc::kTimedOut, "no lease manager reachable");

  auto try_one = [&](const std::string& target) -> Result<Bytes> {
    return fabric_->CallFrom(self_, target, method, payload);
  };
  auto remember = [&](const std::string& target) {
    const auto it = std::find(addrs.begin(), addrs.end(), target);
    if (it != addrs.end()) {
      preferred_.store(static_cast<std::size_t>(it - addrs.begin()),
                       std::memory_order_relaxed);
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const std::string& target = addrs[(start + i) % n];
    Result<Bytes> r = try_one(target);
    if (r.ok()) {
      remember(target);
      return r;
    }
    if (r.status().code() == Errc::kAgain) {
      // Standby redirect. Follow the hint once; a stale or empty hint just
      // continues the sweep.
      const std::string hint = r.status().detail();
      if (!hint.empty() && hint != target) {
        Result<Bytes> hop = try_one(hint);
        if (hop.ok()) {
          remember(hint);
          return hop;
        }
      }
      last = ErrStatus(Errc::kAgain, "no active lease manager");
      continue;
    }
    last = std::move(r);
  }
  return last;
}

Result<Bytes> LeaseClient::CallManager(const std::string& method,
                                       const Bytes& payload) {
  const std::uint64_t salt =
      std::hash<std::string>{}(self_) ^
      call_salt_.fetch_add(1, std::memory_order_relaxed);
  Result<Bytes> r = RetryCall(
      options_.rpc_retry, salt, nullptr, RetryDeadlineFor(options_.rpc_retry),
      [&] { return SweepManagers(method, payload); });
  if (!r.ok() && r.status().code() == Errc::kAgain) {
    // Never leak a manager-side kAgain to callers: it only means no active
    // replica answered, which is a timeout from their point of view.
    return ErrStatus(Errc::kTimedOut, "no active lease manager");
  }
  return r;
}

Result<LeaseClient::Answer> LeaseClient::Acquire(const Uuid& dir_ino,
                                                 const AcquireOptions& opts) {
  obs::Span span("lease.acquire");
  AcquireRequest req{dir_ino, self_};
  req.want_delegation = opts.want_delegation;
  req.watermark = opts.watermark;
  // QoS identity rides with the trace context.
  req.tenant = obs::CurrentContext().tenant;
  const Bytes payload = req.Encode();
  Nanos backoff = options_.initial_backoff;
  const TimePoint deadline = Now() + options_.wait_budget;

  while (true) {
    ARKFS_ASSIGN_OR_RETURN(Bytes raw, CallManager(kMethodAcquire, payload));
    ARKFS_ASSIGN_OR_RETURN(auto resp, AcquireResponse::Decode(raw));
    switch (resp.outcome) {
      case AcquireOutcome::kGranted: {
        Grant grant;
        grant.fresh = resp.fresh;
        grant.until = TimePoint(Nanos(resp.lease_until_ns));
        grant.prev_leader = resp.prev_leader;
        grant.token = resp.token;
        grant.watermark = resp.watermark;
        return Answer(std::move(grant));
      }
      case AcquireOutcome::kRedirect: {
        Redirect redirect;
        redirect.leader = std::move(resp.leader);
        redirect.token = resp.token;
        redirect.until = TimePoint(Nanos(resp.lease_until_ns));
        if (resp.deleg) {
          redirect.deleg = Delegation{resp.watermark,
                                      TimePoint(Nanos(resp.deleg_until_ns))};
        }
        return Answer(std::move(redirect));
      }
      case AcquireOutcome::kNotActive:
        // In-process standby answer (the RPC path converts this to a
        // status-level redirect inside CallManager). Treat like kWait: the
        // group is mid-failover; a new active will emerge within a probe
        // cycle or two.
        [[fallthrough]];
      case AcquireOutcome::kWait: {
        // An admission-throttled kWait carries the manager's retry-after:
        // the bucket knows when the next token lands, so sleep exactly that
        // long (capped like the doubling backoff) instead of guessing.
        Nanos wait = backoff;
        if (resp.retry_after_ns > 0) {
          wait = std::min<Nanos>(Nanos(resp.retry_after_ns), Millis(500));
        }
        if (Now() + wait > deadline) {
          return ErrStatus(Errc::kBusy, "lease wait budget exhausted");
        }
        SleepFor(wait);
        backoff = std::min<Nanos>(backoff * 2, Millis(500));
        break;
      }
    }
  }
}

Status LeaseClient::Release(const Uuid& dir_ino, const FenceToken& token) {
  obs::Span span("lease.release");
  ReleaseRequest req{dir_ino, self_, token};
  return CallManager(kMethodRelease, req.Encode()).status();
}

Status LeaseClient::BeginRecovery(const Uuid& dir_ino) {
  obs::Span span("lease.recovery.begin");
  RecoveryRequest req{dir_ino, self_, RecoveryPhase::kBegin};
  return CallManager(kMethodRecovery, req.Encode()).status();
}

Status LeaseClient::EndRecovery(const Uuid& dir_ino) {
  obs::Span span("lease.recovery.end");
  RecoveryRequest req{dir_ino, self_, RecoveryPhase::kEnd};
  return CallManager(kMethodRecovery, req.Encode()).status();
}

}  // namespace arkfs::lease
