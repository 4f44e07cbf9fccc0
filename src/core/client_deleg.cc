// Read delegations (hot-directory read scale-out).
//
// A non-leader that keeps touching a directory someone else leads asks the
// lease manager for a read delegation alongside the redirect. The grant
// names the live lease's fencing token and the leader's last-reported
// journal watermark; the delegate pulls one versioned metatable slice from
// the leader (kDelegateFetch) and serves stat/lookup/readdir from it with
// zero fabric round trips, enforcing per-user permission checks against the
// slice's directory inode exactly as the leader would.
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
#include <sstream>

#include "common/log.h"
#include "core/client.h"

namespace arkfs {

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

void Client::DelegAdopt(const Uuid& dir_ino, const std::string& leader,
                        const lease::LeaseClient::Delegation& deleg) {
  std::lock_guard lock(deleg_mu_);
  DirDelegation& d = delegations_[dir_ino];
  if (d.token != deleg.token) {
    if (d.slice) deleg_invalidations_.Add();
    d.slice.reset();
    d.token = deleg.token;
    d.watermark = deleg.watermark;
  } else if (deleg.watermark > d.watermark) {
    d.watermark = deleg.watermark;
    if (deleg.watermark != d.last_seen_wm) {
      d.last_seen_wm = deleg.watermark;
      d.first_seen_at = Now();  // renewal reported fresh movement
    }
    d.last_obs_at = Now();
  }
  d.until = deleg.until;  // manager-authoritative: watermark report + term
  d.leader = leader;
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
  auto slice = std::make_shared<DelegSlice>();
  slice->dir_inode = std::move(resp->inode);
  slice->entries = std::move(resp->entries);
  for (auto& ino : resp->child_inodes) {
    const Uuid key = ino.ino;
    slice->child_inodes.emplace(key, std::move(ino));
  }
  slice->fence = resp->fence;
  slice->watermark = resp->watermark;
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
  const Nanos base = config_.deleg_refetch_backoff;
  if (slice->watermark > it->second.watermark) {
    const Nanos cur = it->second.backoff > Nanos(0) ? it->second.backoff : base;
    it->second.backoff = std::min(cur * 2, base * 16);
    it->second.watermark = slice->watermark;
  } else {
    it->second.backoff = base;
  }
  it->second.slice = slice;
  return slice;
}

bool Client::DelegatedServe(const Uuid& dir_ino, const std::string& leader,
                            const wire::DirOpRequest& req,
                            wire::DirOpResponse* out) {
  const TimePoint now = Now();
  DirDelegation d;
  {
    std::lock_guard lock(deleg_mu_);
    auto it = delegations_.find(dir_ino);
    if (it == delegations_.end()) {
      deleg_misses_.Add();
      return false;
    }
    if (now >= it->second.until) {
      // The watermark report the grant rests on is a full lease term old:
      // beyond this point the staleness bound no longer holds. Expire.
      if (it->second.slice) deleg_invalidations_.Add();
      delegations_.erase(it);
      deleg_misses_.Add();
      return false;
    }
    d = it->second;  // copies the shared slice pointer
  }

  DelegSlicePtr slice = d.slice;
  if (!slice || slice->fence != d.token || slice->watermark < d.watermark) {
    // No slice yet, or the leader's journal moved past it: pull a fresh one
    // (one forwarded round trip amortized over every hit that follows).
    // Pacing: inside the adaptive backoff window, forward instead of
    // thrashing fetches against a mutating leader — UNLESS the watermark
    // reported by forwarded replies has held still for the quiet window,
    // which means the write burst ended and one fetch makes us current.
    {
      std::lock_guard lock(deleg_mu_);
      auto it = delegations_.find(dir_ino);
      if (it == delegations_.end()) {
        deleg_misses_.Add();
        return false;
      }
      DirDelegation& dd = it->second;
      const Nanos backoff = dd.backoff > Nanos(0)
                                ? dd.backoff
                                : config_.deleg_refetch_backoff;
      const bool quiet = dd.last_seen_wm == dd.watermark &&
                         dd.last_obs_at - dd.first_seen_at >=
                             config_.deleg_quiet_before_refetch;
      if (!quiet && now - dd.last_fetch < backoff) {
        deleg_misses_.Add();
        return false;
      }
      dd.last_fetch = now;
    }
    slice = DelegFetchSlice(dir_ino, leader);
    if (!slice) {
      deleg_misses_.Add();
      return false;
    }
  }

  const UserCred cred = req.cred.ToCred();
  const Inode& dir_inode = slice->dir_inode;
  auto fill_meta = [&] {
    out->dir_meta = {true, dir_inode.mode, dir_inode.uid, dir_inode.gid,
                     dir_inode.acl};
  };
  auto finish = [&](const Status& st) {
    out->code = st.code();
    out->detail = st.detail();
    deleg_hits_.Add();
    return true;
  };
  auto find_entry = [&](const std::string& name) -> const Dentry* {
    auto it = std::lower_bound(
        slice->entries.begin(), slice->entries.end(), name,
        [](const Dentry& e, const std::string& n) { return e.name < n; });
    if (it == slice->entries.end() || it->name != name) return nullptr;
    return &*it;
  };
  // Child-file inode: from the slice if the leader had it loaded, else from
  // the store — exactly the lazy load the leader itself would perform (any
  // journaled change to the inode would have put it in the slice).
  auto load_child = [&](const Uuid& ino, Inode* child) {
    if (auto it = slice->child_inodes.find(ino);
        it != slice->child_inodes.end()) {
      *child = it->second;
      return true;
    }
    auto loaded = prt_->LoadInode(ino);
    if (!loaded.ok()) return false;
    *child = std::move(*loaded);
    return true;
  };

  switch (req.op) {
    case wire::DirOp::kGetAttrDir:
      out->has_inode = true;
      out->inode = dir_inode;
      fill_meta();
      return finish(Status::Ok());

    case wire::DirOp::kLookup: {
      if (Status st = CheckAccess(dir_inode, cred, kPermExec); !st.ok()) {
        return finish(st);
      }
      fill_meta();
      const Dentry* dent = find_entry(req.name);
      if (!dent) return false;  // negative: forward, the name may be brand new
      out->has_dentry = true;
      out->dentry = *dent;
      if (dent->type != FileType::kDirectory) {
        Inode child;
        if (!load_child(dent->ino, &child)) return false;
        out->has_inode = true;
        out->inode = std::move(child);
      }
      return finish(Status::Ok());
    }

    case wire::DirOp::kGetAttrChild: {
      if (Status st = CheckAccess(dir_inode, cred, kPermExec); !st.ok()) {
        return finish(st);
      }
      fill_meta();
      Uuid ino = req.child_ino;
      if (!req.name.empty()) {
        const Dentry* dent = find_entry(req.name);
        if (!dent) return false;
        out->has_dentry = true;
        out->dentry = *dent;
        if (dent->type == FileType::kDirectory) {
          // Best-effort store copy, mirroring the leader; authoritative
          // directory stats go through the child's own leader anyway.
          auto child = prt_->LoadInode(dent->ino);
          if (!child.ok()) return false;
          out->has_inode = true;
          out->inode = std::move(*child);
          return finish(Status::Ok());
        }
        ino = dent->ino;
      }
      Inode child;
      if (!load_child(ino, &child)) return false;
      out->has_inode = true;
      out->inode = std::move(child);
      return finish(Status::Ok());
    }

    case wire::DirOp::kReadDir: {
      if (Status st = CheckAccess(dir_inode, cred, kPermRead); !st.ok()) {
        return finish(st);
      }
      out->entries = slice->entries;
      fill_meta();
      return finish(Status::Ok());
    }

    default:
      return false;  // not delegable; caller forwards
  }
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

std::string Client::DelegDumpText() {
  std::ostringstream os;
  const TimePoint now = Now();
  {
    std::lock_guard lock(deleg_mu_);
    os << "delegations held: " << delegations_.size() << "\n";
    for (const auto& [ino, d] : delegations_) {
      const auto ttl_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(d.until - now)
              .count();
      os << "  dir " << ino.ToString() << " leader=" << d.leader << " token={"
         << d.token.epoch << "," << d.token.seq << "}"
         << " leader_watermark=" << d.watermark << " slice=";
      if (d.slice) {
        os << "seq " << d.slice->watermark << " (" << d.slice->entries.size()
           << " entries, "
           << (d.slice->watermark >= d.watermark ? "current" : "behind")
           << ")";
      } else {
        os << "none";
      }
      os << " ttl_ms=" << ttl_ms << "\n";
    }
  }
  os << "deleg hits=" << deleg_hits_.value()
     << " misses=" << deleg_misses_.value()
     << " refetches=" << deleg_refetches_.value()
     << " invalidations=" << deleg_invalidations_.value() << "\n";
  os << "stat local=" << stat_local_.value()
     << " forwarded=" << stat_forwarded_.value()
     << " delegated=" << stat_delegated_.value() << "\n";
  return os.str();
}

}  // namespace arkfs
