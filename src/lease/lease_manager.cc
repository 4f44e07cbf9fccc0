#include "lease/lease_manager.h"

#include <algorithm>
#include <optional>

#include "common/log.h"
#include "common/retry_hint.h"

namespace arkfs::lease {

namespace {

// Missed heartbeats before the rank-0 standby attempts a takeover.
constexpr int kFailoverProbes = 3;

}  // namespace

LeaseManager::LeaseManager(rpc::FabricPtr fabric, ObjectStorePtr store,
                           LeaseManagerConfig config)
    : config_(std::move(config)),
      fabric_(std::move(fabric)),
      store_(std::move(store)) {
  grants_.Attach(config_.metrics, "lease.grants");
  extensions_.Attach(config_.metrics, "lease.extensions");
  redirects_.Attach(config_.metrics, "lease.redirects");
  waits_.Attach(config_.metrics, "lease.waits");
  releases_.Attach(config_.metrics, "lease.releases");
  recoveries_.Attach(config_.metrics, "lease.recoveries");
  takeovers_.Attach(config_.metrics, "lease.failover.takeovers");
  depositions_.Attach(config_.metrics, "lease.failover.depositions");
  delegations_.Attach(config_.metrics, "lease.delegations");
  quiet_ms_.Attach(config_.metrics, "lease.failover.quiet_ms");
}

LeaseManager::~LeaseManager() { Stop(); }

Status LeaseManager::RedirectIfStandby() const {
  std::lock_guard lock(mu_);
  if (active_) return Status::Ok();
  return ErrStatus(Errc::kAgain, active_hint_);
}

int LeaseManager::Rank() const {
  const auto it = std::find(config_.group.begin(), config_.group.end(),
                            config_.self_address);
  if (it == config_.group.end()) return 0;
  return static_cast<int>(it - config_.group.begin());
}

void LeaseManager::SettleRole(bool takeover) {
  const bool promotion = takeover;
  for (int pass = 0; pass < 2; ++pass) {
    Result<Bytes> raw = store_->Get(kEpochRecordKey);
    std::optional<EpochRecord> rec;
    if (raw.ok()) {
      Result<EpochRecord> decoded = EpochRecord::Decode(*raw);
      if (!decoded.ok()) {
        // A guarded claim never tears the record, so this is outside damage,
        // and no replica could say which epoch a claim over it supersedes.
        ARKFS_WLOG << "lease replica " << config_.self_address
                   << ": undecodable epoch record ("
                   << decoded.status().detail() << "); staying standby";
        return;
      }
      rec = std::move(*decoded);
    } else if (raw.status().code() != Errc::kNoEnt) {
      ARKFS_WLOG << "lease replica " << config_.self_address
                 << ": epoch record unreadable (" << raw.status().detail()
                 << "); staying standby";
      return;
    }
    {
      std::lock_guard lock(mu_);
      if (!started_) return;
      if (rec && rec->active != config_.self_address &&
          !(takeover && rec->epoch <= epoch_)) {
        // Another replica holds (or has just claimed) the role: follow it.
        epoch_ = std::max(epoch_, rec->epoch);
        active_hint_ = rec->active;
        return;
      }
    }
    const Status st =
        ClaimEpoch(rec ? &*raw : nullptr, rec ? rec->epoch : 0, promotion);
    if (st.code() != Errc::kStale) return;
    // Another claim landed first: re-read and follow it. A record naming
    // this replica is claimed again — it is this replica's own claim, landed
    // behind an error that a retry then saw as a miss.
    takeover = false;
  }
}

Status LeaseManager::ClaimEpoch(const Bytes* read, std::uint64_t read_epoch,
                                bool takeover) {
  const EpochRecord claim{read_epoch + 1, config_.self_address};
  const WriteGuard guard =
      read ? WriteGuard{0, *read, /*whole=*/true} : WriteGuard::Absent();
  if (Status st = store_->PutIf(kEpochRecordKey, claim.Encode(), guard);
      !st.ok()) {
    ARKFS_WLOG << "lease replica " << config_.self_address
               << ": claim of epoch " << claim.epoch << " did not land ("
               << st.detail() << "); standby";
    return st;
  }
  {
    std::lock_guard lock(mu_);
    leases_.clear();
    epoch_ = claim.epoch;
    fence_seq_ = 0;
    active_ = true;
    active_hint_ = config_.self_address;
    if (read) {
      // One full lease term of quiet: any lease granted under the record
      // this claim superseded may still be live, and this replica has no
      // record of it. No grant predates the first epoch, so the first claim
      // serves at once.
      quiet_until_ = Now() + config_.lease_period;
      quiet_ms_.Set(static_cast<std::uint64_t>(config_.lease_period.count() /
                                               1'000'000));
    }
  }
  if (takeover) takeovers_.Add();
  ARKFS_ILOG << "lease replica " << config_.self_address << " active at epoch "
             << claim.epoch
             << (read ? ", after a quiet period of one lease term" : "");
  if (read) AnnounceEpoch(claim.epoch);
  return Status::Ok();
}

Status LeaseManager::Start() {
  endpoint_ = std::make_shared<rpc::Endpoint>();
  // Standby replicas answer every client-facing method with a status-level
  // kAgain whose detail hints the active replica's address; LeaseClient's
  // manager sweep consumes those hints and they never reach callers.
  endpoint_->RegisterMethod(kMethodAcquire, [this](ByteSpan req) -> Result<Bytes> {
    ARKFS_ASSIGN_OR_RETURN(auto request, AcquireRequest::Decode(req));
    ARKFS_RETURN_IF_ERROR(RedirectIfStandby());
    return Acquire(request).Encode();
  });
  endpoint_->RegisterMethod(kMethodRelease, [this](ByteSpan req) -> Result<Bytes> {
    ARKFS_ASSIGN_OR_RETURN(auto request, ReleaseRequest::Decode(req));
    ARKFS_RETURN_IF_ERROR(RedirectIfStandby());
    Release(request);
    return Bytes{};
  });
  endpoint_->RegisterMethod(kMethodRecovery, [this](ByteSpan req) -> Result<Bytes> {
    ARKFS_ASSIGN_OR_RETURN(auto request, RecoveryRequest::Decode(req));
    ARKFS_RETURN_IF_ERROR(Recovery(request));
    return Bytes{};
  });
  endpoint_->RegisterMethod(kMethodPing, [this](ByteSpan req) -> Result<Bytes> {
    ARKFS_ASSIGN_OR_RETURN(auto request, PingRequest::Decode(req));
    return Ping(request).Encode();
  });
  {
    // Standby until a claim lands: a restarted replica must not serve with
    // its previous life's role while it reads the record.
    std::lock_guard lock(mu_);
    active_ = false;
    active_hint_.clear();
  }
  ARKFS_RETURN_IF_ERROR(fabric_->Bind(config_.self_address, endpoint_));
  {
    std::lock_guard lock(mu_);
    started_ = true;
    heartbeat_stop_ = false;
  }
  SettleRole(/*takeover=*/false);
  if (config_.group.size() > 1) {
    heartbeat_thread_ = std::thread([this] { HeartbeatMain(); });
  }
  return Status::Ok();
}

void LeaseManager::Stop() {
  {
    std::lock_guard lock(mu_);
    if (!started_) return;
    fabric_->Unbind(config_.self_address);
    started_ = false;
    heartbeat_stop_ = true;
  }
  heartbeat_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
}

void LeaseManager::HeartbeatMain() {
  int misses = 0;
  const int rank = Rank();
  for (;;) {
    {
      std::unique_lock lock(mu_);
      heartbeat_cv_.wait_for(lock, config_.heartbeat_interval,
                             [this] { return heartbeat_stop_; });
      if (heartbeat_stop_) return;
      if (active_) {
        misses = 0;
        lock.unlock();
        // Audit the epoch record: a partitioned active never receives the
        // successor's announce ping, so it must notice its own deposition
        // from the record (the store is the one channel failover is
        // guaranteed to share).
        AuditEpochRecord();
        continue;
      }
    }
    // Standby: probe whoever we believe is active.
    std::string target;
    std::uint64_t epoch;
    {
      std::lock_guard lock(mu_);
      target = active_hint_;
      epoch = epoch_;
    }
    bool probed_ok = false;
    if (!target.empty() && target != config_.self_address) {
      const PingRequest ping{epoch, config_.self_address};
      Result<Bytes> raw = fabric_->CallFrom(config_.self_address, target,
                                            kMethodPing, ping.Encode());
      if (raw.ok()) {
        if (Result<PingResponse> resp = PingResponse::Decode(*raw); resp.ok()) {
          probed_ok = resp->active;
          std::lock_guard lock(mu_);
          epoch_ = std::max(epoch_, resp->epoch);
          if (!resp->active && !resp->active_hint.empty() &&
              resp->active_hint != target) {
            active_hint_ = resp->active_hint;  // follow the hint chain
          }
        }
      }
    }
    if (probed_ok) {
      misses = 0;
      continue;
    }
    // Stagger takeover by rank so the lowest-ranked live standby claims
    // first: rank r waits r extra missed probes.
    if (++misses >= kFailoverProbes + rank) {
      misses = 0;
      SettleRole(/*takeover=*/true);
    }
  }
}

void LeaseManager::AuditEpochRecord() {
  Result<Bytes> raw = store_->Get(kEpochRecordKey);
  if (!raw.ok()) return;
  Result<EpochRecord> rec = EpochRecord::Decode(*raw);
  if (!rec.ok()) return;
  std::lock_guard lock(mu_);
  if (!active_) return;
  if (rec->active == config_.self_address) {
    if (rec->epoch > epoch_) epoch_ = rec->epoch;
    return;
  }
  // The record names another replica: a successor's claim landed over this
  // replica's record (or an outside writer replaced it). Abdicate.
  ARKFS_ILOG << "lease replica " << config_.self_address
             << " observed the record naming " << rec->active << " at epoch "
             << rec->epoch << " (own epoch " << epoch_ << "); abdicating";
  depositions_.Add();
  leases_.clear();
  active_ = false;
  epoch_ = std::max(epoch_, rec->epoch);
  active_hint_ = rec->active;
}

void LeaseManager::AnnounceEpoch(std::uint64_t epoch) {
  const PingRequest ping{epoch, config_.self_address};
  const Bytes payload = ping.Encode();
  for (const std::string& peer : config_.group) {
    if (peer == config_.self_address) continue;
    // Best effort: a dead or partitioned peer learns the epoch when it
    // rejoins (epoch record) or from a later ping.
    (void)fabric_->CallFrom(config_.self_address, peer, kMethodPing, payload);
  }
}

PingResponse LeaseManager::Ping(const PingRequest& req) {
  std::lock_guard lock(mu_);
  if (req.epoch > epoch_) {
    // A higher epoch exists: if this replica believed it was active it has
    // been deposed — abdicate immediately rather than waiting to observe the
    // epoch record. Its outstanding grants are fenced at the journal layer.
    if (active_) {
      ARKFS_ILOG << "lease replica " << config_.self_address
                 << " deposed by epoch " << req.epoch << " (was " << epoch_
                 << ")";
      depositions_.Add();
      leases_.clear();
    }
    active_ = false;
    epoch_ = req.epoch;
    active_hint_ = req.from;
  }
  PingResponse resp;
  resp.epoch = epoch_;
  resp.active = active_;
  resp.active_hint = active_ ? config_.self_address : active_hint_;
  return resp;
}

AcquireResponse LeaseManager::Acquire(const AcquireRequest& req) {
  // The handler span nests under the caller's ambient trace: the fabric
  // dispatches on the caller's thread.
  obs::Span span("lease.manager.acquire");

  std::lock_guard lock(mu_);
  const TimePoint now = Now();
  AcquireResponse resp;

  if (!active_) {
    resp.outcome = AcquireOutcome::kNotActive;
    resp.leader = active_hint_;
    return resp;
  }

  if (now < quiet_until_) {
    waits_.Add();
    resp.outcome = AcquireOutcome::kWait;
    return resp;
  }

  DirLease& l = leases_[req.dir_ino];
  if (l.recovering) {
    // The recoverer itself renews through Recovery(kEnd), not Acquire.
    waits_.Add();
    resp.outcome = AcquireOutcome::kWait;
    return resp;
  }

  const bool live = !Expired(l, now);
  if (live && l.leader != req.client) {
    redirects_.Add();
    resp.outcome = AcquireOutcome::kRedirect;
    resp.leader = l.leader;
    // The live lease's tenure and expiry: the requester may route to the
    // leader directly until then without asking again.
    resp.lease_until_ns = l.expires.time_since_epoch().count();
    resp.token = l.token;
    resp.watermark = l.watermark;
    if (req.want_delegation && l.token.valid()) {
      // Read delegation against the live lease: the delegate may serve
      // reads from a slice fetched under this token until the watermark
      // report it is based on turns one lease term old. The token pins the
      // tenure — leases_ is cleared on every epoch change, so a failover
      // invalidates every outstanding delegation by construction.
      delegations_.Add();
      resp.deleg = true;
      const TimePoint based_on =
          l.watermark_at == TimePoint{} ? now : l.watermark_at;
      resp.deleg_until_ns =
          (based_on + config_.lease_period).time_since_epoch().count();
    }
    return resp;
  }

  // Admission control charges the acquires that grant or extend a lease.
  // A redirect is free: the op behind it is charged once, by the leader
  // that serves it (Client::ServeDirOp). The rejection is in-band (kWait +
  // the bucket's retry-after), NOT a status-level kAgain: the client
  // reserves that for standby-redirect hints.
  if (config_.admission) {
    const Status admitted = config_.admission->Admit(req.tenant);
    if (!admitted.ok()) {
      waits_.Add();
      resp.outcome = AcquireOutcome::kWait;
      Nanos hint{};
      if (ParseRetryAfterHint(admitted.detail(), &hint)) {
        resp.retry_after_ns = hint.count();
      }
      return resp;
    }
  }

  if (live) {
    // Extension by the current leader: same tenure, same fencing token.
    extensions_.Add();
    l.expires = now + config_.lease_period;
    // Renewals carry the leader's current journal watermark; remember it
    // (with its report time) so delegations hand out a bound no staler
    // than one lease term.
    if (req.watermark >= l.watermark) {
      l.watermark = req.watermark;
      l.watermark_at = now;
    }
    resp.outcome = AcquireOutcome::kGranted;
    resp.fresh = true;
    resp.lease_until_ns = l.expires.time_since_epoch().count();
    resp.token = l.token;
    resp.watermark = l.watermark;
    return resp;
  }

  // Lease is free (never issued, expired, or released). Every new tenure —
  // even a fresh re-grant to the same client — gets a new fencing token, so
  // anything still running under the old grant is deniable at the store.
  grants_.Add();
  resp.outcome = AcquireOutcome::kGranted;
  resp.fresh = (l.last_leader == req.client);
  if (!resp.fresh && !l.last_leader.empty()) {
    resp.prev_leader = l.last_leader;
  }
  l.leader = req.client;
  l.last_leader = req.client;
  l.expires = now + config_.lease_period;
  l.token = FenceToken{epoch_, ++fence_seq_};
  // New tenure, new watermark history: the journal layer resets its per-dir
  // watermark whenever tenure bookkeeping is dropped, so a stale count from
  // the previous tenure must not leak into this one's delegations.
  l.watermark = req.watermark;
  l.watermark_at = now;
  resp.lease_until_ns = l.expires.time_since_epoch().count();
  resp.token = l.token;
  resp.watermark = l.watermark;
  return resp;
}

void LeaseManager::Release(const ReleaseRequest& req) {
  obs::Span span("lease.manager.release");

  std::lock_guard lock(mu_);
  if (!active_) return;
  auto it = leases_.find(req.dir_ino);
  if (it == leases_.end()) return;
  DirLease& l = it->second;
  // A late Release from a deposed leader must not evict the successor: the
  // request's token must match the live grant exactly.
  if (req.token != l.token) return;
  if (l.leader == req.client) {
    releases_.Add();
    l.leader.clear();
    l.expires = TimePoint{};
    // last_leader stays: a clean release means the store is fully
    // synchronized, and if the same client comes back it may reuse its
    // metatable only if nobody else led meanwhile — which last_leader tracks.
  }
}

Status LeaseManager::Recovery(const RecoveryRequest& req) {
  obs::Span span("lease.manager.recovery");

  if (req.phase == RecoveryPhase::kBegin) {
    {
      std::lock_guard lock(mu_);
      if (!active_) {
        return ErrStatus(Errc::kAgain, active_hint_);
      }
      DirLease& l = leases_[req.dir_ino];
      if (l.recovering && l.recoverer != req.client) {
        return ErrStatus(Errc::kBusy, "recovery already in progress");
      }
      if (!Expired(l, Now()) && l.leader != req.client) {
        return ErrStatus(Errc::kBusy, "directory has a live leader");
      }
      recoveries_.Add();
      l.recovering = true;
      l.recoverer = req.client;
      l.leader.clear();
    }
    // Wait out any read/write leases the dead leader issued to other
    // clients (paper: "waits at least the lease period"). Done outside the
    // lock: unrelated directories keep working during a recovery.
    SleepFor(config_.recovery_wait);
    return Status::Ok();
  }

  // kEnd: recovery finished; renew the lease on the recoverer.
  std::lock_guard lock(mu_);
  if (!active_) {
    return ErrStatus(Errc::kAgain, active_hint_);
  }
  DirLease& l = leases_[req.dir_ino];
  if (!l.recovering || l.recoverer != req.client) {
    return ErrStatus(Errc::kInval, "not the recovering client");
  }
  l.recovering = false;
  l.recoverer.clear();
  l.leader = req.client;
  l.last_leader = req.client;
  l.expires = Now() + config_.lease_period;
  // The recovery ran under the token granted at Acquire time; keep it.
  return Status::Ok();
}

std::size_t LeaseManager::ActiveLeaseCount() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  const TimePoint now = Now();
  for (const auto& [_, l] : leases_) {
    if (!Expired(l, now)) ++n;
  }
  return n;
}

std::uint64_t LeaseManager::epoch() const {
  std::lock_guard lock(mu_);
  return epoch_;
}

bool LeaseManager::is_active() const {
  std::lock_guard lock(mu_);
  return started_ && active_;
}

}  // namespace arkfs::lease
