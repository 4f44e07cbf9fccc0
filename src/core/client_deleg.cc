// Read delegations (hot-directory read scale-out).
//
// A non-leader that keeps touching a directory someone else leads asks the
// lease manager for a read delegation alongside the redirect. The grant
// names the live lease's fencing token and the leader's last-reported
// journal watermark; the delegate pulls one versioned metatable slice from
// the leader (kDelegateFetch) as a read-only Metatable and serves
// stat/lookup/readdir from it through the very read body (ServeRead) the
// leader answers those ops with — permission checks included. The
// delegation lives in the same per-directory record as the leader hint, so
// while the hint is live a hit costs zero fabric round trips: no forward and
// no lease-manager call.
//
// Invalidation is watermark-driven, never broadcast:
//  * every leader-served reply and every delegation grant carries the
//    current {fence, watermark}; a slice whose stamp falls behind is
//    stranded and the next delegated op refetches;
//  * a changed fence token (leadership moved, manager failed over) voids
//    the delegation outright — and since the lease-HA manager clears all
//    lease state on every epoch change, no delegation survives a tenure;
//  * the grant expires one lease term after the watermark report it rests
//    on, so a delegate cut off from the manager can never serve metadata
//    older than one lease term behind an acked mutation (DESIGN.md §4.5).
//
// Negative lookups are NOT served from the slice: a name absent from the
// slice may have been created a moment ago, so the op falls through to
// forwarding and gets the authoritative answer.
#include <algorithm>

#include "common/log.h"
#include "core/client.h"

namespace arkfs {
namespace {

// Refetch pacing. Each slice fetch holds the leader's dir lock and copies
// the whole slice, so refetching against an actively mutating directory
// would slow the very writes invalidating the slices. A stale slice is
// refetched no sooner than kRefetchBackoff after the previous fetch; the
// window doubles (up to kMaxBackoffFactor times) every time a fetch surfaces
// mutations the delegate had not yet observed, and resets once a fetch
// confirms the directory went quiet.
constexpr Nanos kRefetchBackoff = Millis(25);
constexpr int kMaxBackoffFactor = 16;
// Quiet override: a stale slice may be refetched immediately — ignoring the
// backoff — once the watermark reported by forwarded replies has held still
// this long. This is what makes a read burst right after a write burst
// recover in milliseconds instead of a full backoff window.
constexpr Nanos kQuietBeforeRefetch = Millis(5);

}  // namespace

bool Client::IsDelegable(wire::DirOp op) {
  switch (op) {
    case wire::DirOp::kLookup:
    case wire::DirOp::kGetAttrDir:
    case wire::DirOp::kGetAttrChild:
    case wire::DirOp::kReadDir:
      return true;
    default:
      return false;
  }
}

bool Client::IsStatFamily(wire::DirOp op) {
  switch (op) {
    case wire::DirOp::kLookup:
    case wire::DirOp::kGetAttrDir:
    case wire::DirOp::kGetAttrChild:
      return true;
    default:
      return false;
  }
}

void Client::AdoptRedirect(const Uuid& dir_ino,
                           const lease::LeaseClient::Redirect& redirect) {
  const auto& deleg = redirect.deleg;
  std::lock_guard lock(deleg_mu_);
  DirDelegation& d = delegations_[dir_ino];
  if (d.token != redirect.token) {
    if (d.slice) deleg_invalidations_.Add();
    d.slice.reset();
    d.token = redirect.token;
    d.watermark = deleg ? deleg->watermark : 0;
  } else if (deleg && deleg->watermark > d.watermark) {
    d.watermark = deleg->watermark;
    if (deleg->watermark != d.last_seen_wm) {
      d.last_seen_wm = deleg->watermark;
      d.first_seen_at = Now();  // renewal reported fresh movement
    }
    d.last_obs_at = Now();
  }
  d.leader = redirect.leader;
  d.delegated = deleg.has_value();
  // Manager-authoritative: the lease's expiry, and the delegation's
  // (watermark report + term) when one rode along.
  d.until = deleg ? std::min(redirect.until, deleg->until) : redirect.until;
}

std::string Client::LeaderHint(const Uuid& dir_ino) {
  std::lock_guard lock(deleg_mu_);
  auto it = delegations_.find(dir_ino);
  if (it == delegations_.end() || Now() >= it->second.until) return {};
  return it->second.leader;
}

void Client::DropLeaderHint(const Uuid& dir_ino, const std::string& leader) {
  std::lock_guard lock(deleg_mu_);
  auto it = delegations_.find(dir_ino);
  if (it == delegations_.end() || it->second.leader != leader) return;
  leader_hint_stale_.Add();
  if (it->second.slice) deleg_invalidations_.Add();
  delegations_.erase(it);
}

void Client::ForgetRemoteDir(const Uuid& dir_ino) {
  std::lock_guard lock(deleg_mu_);
  auto it = delegations_.find(dir_ino);
  if (it == delegations_.end()) return;
  if (it->second.slice) deleg_invalidations_.Add();
  delegations_.erase(it);
}

void Client::DelegObserve(const Uuid& dir_ino, const FenceToken& fence,
                          std::uint64_t watermark) {
  if (fence == FenceToken{}) return;  // unstamped: not served by a leader
  std::lock_guard lock(deleg_mu_);
  auto it = delegations_.find(dir_ino);
  if (it == delegations_.end()) return;
  if (it->second.token != fence) {
    // The tenure moved under us; the delegation (and any slice) is void.
    if (it->second.slice) deleg_invalidations_.Add();
    delegations_.erase(it);
    return;
  }
  DirDelegation& d = it->second;
  const TimePoint now = Now();
  if (watermark != d.last_seen_wm) {
    d.last_seen_wm = watermark;
    d.first_seen_at = now;  // new value: restart the stability window
  }
  d.last_obs_at = now;
  if (watermark > d.watermark) d.watermark = watermark;
}

void Client::DelegDropAll() {
  std::lock_guard lock(deleg_mu_);
  delegations_.clear();
}

Client::DelegSlicePtr Client::DelegFetchSlice(const Uuid& dir_ino,
                                              const std::string& leader) {
  obs::Span span("client.deleg_fetch");
  wire::DirOpRequest req;
  req.op = wire::DirOp::kDelegateFetch;
  req.dir_ino = dir_ino;
  req.client = config_.address;
  const obs::TraceContext ctx = obs::CurrentContext();
  req.trace_id = ctx.trace_id;
  req.parent_span = ctx.parent_span;
  auto raw = fabric_->Call(leader, wire::kMethodDirOp, req.Encode());
  if (!raw.ok()) return nullptr;
  auto resp = wire::DirOpResponse::Decode(*raw);
  if (!resp.ok() || resp->code != Errc::kOk || !resp->has_inode) {
    return nullptr;
  }
  auto slice = std::make_shared<const DelegSlice>(DelegSlice{
      Metatable(std::move(resp->inode), std::move(resp->entries),
                std::move(resp->child_inodes)),
      resp->fence, resp->watermark});
  deleg_refetches_.Add();

  std::lock_guard lock(deleg_mu_);
  auto it = delegations_.find(dir_ino);
  if (it == delegations_.end()) return nullptr;  // invalidated mid-fetch
  if (it->second.token != slice->fence) {
    // Leadership changed between grant and fetch. The slice belongs to a
    // tenure we hold no delegation for; drop everything and forward.
    if (it->second.slice) deleg_invalidations_.Add();
    delegations_.erase(it);
    return nullptr;
  }
  // Adapt the refetch pacing: a fetch that surfaces mutations we had not
  // observed means other clients are churning this directory — double the
  // window (they will invalidate this slice too). A fetch confirming what
  // we already knew means the churn ended — reset to the base.
  if (slice->watermark > it->second.watermark) {
    const Nanos cur =
        it->second.backoff > Nanos(0) ? it->second.backoff : kRefetchBackoff;
    it->second.backoff =
        std::min(cur * 2, kRefetchBackoff * kMaxBackoffFactor);
    it->second.watermark = slice->watermark;
  } else {
    it->second.backoff = kRefetchBackoff;
  }
  it->second.slice = slice;
  return slice;
}

bool Client::DelegatedServe(const Uuid& dir_ino, const std::string& leader,
                            const wire::DirOpRequest& req,
                            wire::DirOpResponse* out) {
  const TimePoint now = Now();
  DelegSlicePtr slice;
  {
    std::lock_guard lock(deleg_mu_);
    auto it = delegations_.find(dir_ino);
    if (it == delegations_.end()) {
      deleg_misses_.Add();
      return false;
    }
    DirDelegation& d = it->second;
    if (!d.delegated) {
      deleg_misses_.Add();
      return false;
    }
    if (now >= d.until) {
      // The watermark report the grant rests on is a full lease term old:
      // beyond this point the staleness bound no longer holds. Expire.
      if (d.slice) deleg_invalidations_.Add();
      delegations_.erase(it);
      deleg_misses_.Add();
      return false;
    }
    if (d.slice && d.slice->fence == d.token &&
        d.slice->watermark >= d.watermark) {
      slice = d.slice;
    } else {
      // No slice yet, or the leader's journal moved past it: pull a fresh
      // one below (one forwarded round trip amortized over every hit that
      // follows). Pacing: inside the adaptive backoff window, forward
      // instead of thrashing fetches against a mutating leader — UNLESS the
      // watermark reported by forwarded replies has held still for the
      // quiet window, which means the write burst ended and one fetch makes
      // us current.
      const Nanos backoff = d.backoff > Nanos(0) ? d.backoff : kRefetchBackoff;
      const bool quiet =
          d.last_seen_wm == d.watermark &&
          d.last_obs_at - d.first_seen_at >= kQuietBeforeRefetch;
      if (!quiet && now - d.last_fetch < backoff) {
        deleg_misses_.Add();
        return false;
      }
      d.last_fetch = now;
    }
  }
  if (!slice) {
    slice = DelegFetchSlice(dir_ino, leader);
    if (!slice) {
      deleg_misses_.Add();
      return false;
    }
  }

  // Child-file inode: from the slice if the leader had it loaded, else from
  // the store — exactly the lazy load the leader itself would perform (any
  // journaled change to the inode would have put it in the slice). Nothing
  // is cached: the slice is shared and immutable.
  const Metatable& table = slice->table;
  Status st = ServeRead(
      table, req, req.cred.ToCred(),
      [&](const Uuid& ino) -> Result<Inode> {
        if (const Inode* child = table.FindChildInode(ino)) return *child;
        return prt_->LoadInode(ino);
      },
      out);
  // kOk and kAccess are answers; anything else forwards — a name absent
  // from the slice may be brand new, and a failed child load is the
  // leader's to retry.
  if (!st.ok() && st.code() != Errc::kAccess) return false;
  out->code = st.code();
  out->detail = st.detail();
  deleg_hits_.Add();
  return true;
}

Status Client::LeaderDelegateFetch(DirHandle& dir, wire::DirOpResponse* out) {
  Metatable& mt = *dir.metatable;
  const Inode& dir_inode = mt.dir_inode();
  out->has_inode = true;
  out->inode = dir_inode;
  out->dir_meta = {true, dir_inode.mode, dir_inode.uid, dir_inode.gid,
                   dir_inode.acl};
  out->entries = mt.ListEntries();
  const auto children = mt.ChildInodes();
  out->child_inodes.reserve(children.size());
  for (const Inode* ino : children) out->child_inodes.push_back(*ino);
  // ServeDirOp stamps {fence, watermark} on the way out, under the same
  // handle lock mutations run under — the slice version is consistent.
  return Status::Ok();
}

std::vector<Vfs::DelegationEntry> Client::DelegEntries() {
  std::lock_guard lock(deleg_mu_);
  std::vector<DelegationEntry> out;
  out.reserve(delegations_.size());
  for (const auto& [ino, d] : delegations_) {
    if (!d.delegated) continue;  // a bare leader hint
    DelegationEntry e{ino, d.leader, d.token, d.watermark, std::nullopt, 0,
                      d.until};
    if (d.slice) {
      e.slice_watermark = d.slice->watermark;
      e.slice_entries = d.slice->table.entry_count();
    }
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace arkfs
