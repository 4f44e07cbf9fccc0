// Operation bodies of arkfs::Client: path resolution with the permission
// cache, forwarding to directory leaders, the Vfs implementation, and the
// leader-local metadata operations that mutate metatables + journals.
#include <algorithm>

#include "common/log.h"
#include "common/retry_hint.h"
#include "core/client.h"

namespace arkfs {
namespace {

// Applies a SetAttr request to an inode with POSIX ownership rules.
Status ApplySetAttr(Inode& inode, const SetAttrRequest& req,
                    const UserCred& cred) {
  if (req.mask & kSetMode) {
    if (!IsOwnerOrRoot(inode, cred)) return ErrStatus(Errc::kPerm);
    inode.mode = req.mode & 07777;
  }
  if (req.mask & kSetUid) {
    if (cred.uid != 0 && req.uid != inode.uid) return ErrStatus(Errc::kPerm);
    inode.uid = req.uid;
  }
  if (req.mask & kSetGid) {
    if (cred.uid != 0 && !(cred.uid == inode.uid && cred.InGroup(req.gid))) {
      return ErrStatus(Errc::kPerm);
    }
    inode.gid = req.gid;
  }
  if (req.mask & kSetSize) {
    if (inode.IsDir()) return ErrStatus(Errc::kIsDir);
    ARKFS_RETURN_IF_ERROR(CheckAccess(inode, cred, kPermWrite));
    inode.size = req.size;
    inode.mtime_sec = WallClockSeconds();
  }
  if (req.mask & kSetAtime) inode.atime_sec = req.atime_sec;
  if (req.mask & kSetMtime) inode.mtime_sec = req.mtime_sec;
  inode.ctime_sec = WallClockSeconds();
  ++inode.version;
  return Status::Ok();
}

constexpr int kMaxSymlinkDepth = 40;

// Forwarding attempts per op (leader crash / lease churn), and the pause
// between them.
constexpr int kOpRetries = 50;
constexpr Nanos kOpRetryBackoff = Millis(20);

}  // namespace

// ---------------------------------------------------------------------------
// Forwarding machinery
// ---------------------------------------------------------------------------

Result<wire::DirOpResponse> Client::RunDirOp(const Uuid& dir_ino,
                                             wire::DirOpRequest req) {
  obs::Span span("client.run_dir_op");
  req.dir_ino = dir_ino;
  req.cred.groups.shrink_to_fit();
  req.client = config_.address;
  // Carry the active trace to the serving leader (ourselves or a remote
  // client) so the whole op stays one trace across the forward hop.
  const obs::TraceContext ctx = obs::CurrentContext();
  req.trace_id = ctx.trace_id;
  req.parent_span = ctx.parent_span;
  // QoS identity: the ambient tenant when set (ops initiated through a Vfs
  // entry point), else this client's configured tenant.
  req.tenant = ctx.tenant != 0 ? ctx.tenant : config_.tenant;
  Status last = ErrStatus(Errc::kAgain, "no attempts made");
  // A throttled leader's kAgain carries a retry-after hint; when present it
  // replaces the fixed backoff for the next attempt (capped so a bogus hint
  // cannot stall the loop). A stale leader hint retries at once.
  Nanos retry_sleep = kOpRetryBackoff;
  for (int attempt = 0; attempt < kOpRetries; ++attempt) {
    if (attempt > 0 && retry_sleep > Nanos(0)) SleepFor(retry_sleep);
    retry_sleep = kOpRetryBackoff;
    // A live leader hint (the manager's last redirect) routes straight to
    // the leader; only without one is the lease manager asked.
    std::string remote = LeaderHint(dir_ino);
    const bool hinted = !remote.empty();
    if (!hinted) {
      auto ref = EnsureDirAccess(dir_ino);
      if (!ref.ok()) {
        last = ref.status();
        if (last.code() == Errc::kBusy || last.code() == Errc::kTimedOut ||
            last.code() == Errc::kStale) {
          // kBusy/kTimedOut: recovery fence / manager failover; wait it
          // out. kStale: our grant's epoch was deposed before we could
          // fence the directory — reacquire under the new epoch.
          continue;
        }
        return last;
      }
      if (ref->local) {
        local_meta_ops_.Add();
        if (IsStatFamily(req.op)) stat_local_.Add();
        wire::DirOpResponse resp = ServeDirOp(req);
        if (resp.code == Errc::kAgain) {
          last = resp.ToStatus();
          Nanos hint{};
          if (ParseRetryAfterHint(resp.detail, &hint)) {
            retry_sleep = std::min<Nanos>(hint, Millis(500));
          }
          continue;  // lost the lease between acquire and serve, or throttled
        }
        return resp;
      }
      remote = std::move(ref->remote);
    }
    // Someone else leads. Delegable reads first try the delegation cache —
    // with a live hint a hit is zero fabric round trips: no forward and no
    // lease-manager call (the slice was paid for once and is invalidated by
    // watermark/tenure, so this never serves metadata older than one lease
    // term).
    if (config_.read_delegations && IsDelegable(req.op)) {
      wire::DirOpResponse dresp;
      if (DelegatedServe(dir_ino, remote, req, &dresp)) {
        if (IsStatFamily(req.op)) stat_delegated_.Add();
        return dresp;
      }
    }
    forwarded_ops_.Add();
    if (IsStatFamily(req.op)) stat_forwarded_.Add();
    if (wire::IsMutation(req.op)) {
      // The leader journals it: SyncAll must commit there too.
      std::lock_guard lock(forwarded_mu_);
      forwarded_dirs_.insert(dir_ino);
    }
    auto raw = fabric_->Call(remote, wire::kMethodDirOp, req.Encode());
    if (!raw.ok()) {
      // Leader unreachable (crash): forget it and wait for its lease to
      // expire; an attempt after that takes over and recovers.
      DropLeaderHint(dir_ino, remote);
      last = raw.status();
      continue;
    }
    auto resp = wire::DirOpResponse::Decode(*raw);
    if (!resp.ok()) return resp.status();
    // Fold the reply's {fence, watermark} stamp into the delegation cache
    // so a delegate that just forwarded a mutation reads its own write.
    DelegObserve(dir_ino, resp->fence, resp->watermark);
    if (resp->code == Errc::kAgain) {
      last = resp->ToStatus();
      Nanos hint{};
      if (ParseRetryAfterHint(resp->detail, &hint)) {
        // A live leader throttled us: keep the hint, sleep the retry-after.
        retry_sleep = std::min<Nanos>(hint, Millis(500));
      } else {
        // Not the leader (any more), or its lease lapsed mid-flight. A
        // cached hint was stale: ask the manager at once. A redirect just
        // now named it: back off before asking again.
        DropLeaderHint(dir_ino, remote);
        if (hinted) retry_sleep = Nanos(0);
      }
      continue;
    }
    return *resp;
  }
  return last;
}

// ---------------------------------------------------------------------------
// Permission/dentry cache (pcache)
// ---------------------------------------------------------------------------

void Client::CachePermEntry(const Uuid& dir, const wire::DirMetaOut& meta) {
  if (!config_.permission_cache || !meta.valid) return;
  std::lock_guard lock(pcache_mu_);
  perm_cache_[dir] = CachedDirMeta{meta.mode, meta.uid, meta.gid, meta.acl,
                                   Now() + config_.perm_cache_ttl};
}

void Client::CacheDentryEntry(const Uuid& dir, const Dentry& dentry) {
  if (!config_.permission_cache) return;
  std::lock_guard lock(pcache_mu_);
  dentry_cache_[{dir, dentry.name}] =
      CachedDentry{dentry, Now() + config_.perm_cache_ttl};
}

bool Client::PcacheLookup(const Uuid& dir, const std::string& name,
                          const UserCred& cred, Dentry* out, Status* perm) {
  if (!config_.permission_cache) return false;
  std::lock_guard lock(pcache_mu_);
  const TimePoint now = Now();
  auto pit = perm_cache_.find(dir);
  if (pit == perm_cache_.end() || pit->second.expires <= now) return false;
  auto dit = dentry_cache_.find({dir, name});
  if (dit == dentry_cache_.end() || dit->second.expires <= now) return false;
  // Rebuild a minimal inode for the permission check.
  Inode fake;
  fake.type = FileType::kDirectory;
  fake.mode = pit->second.mode;
  fake.uid = pit->second.uid;
  fake.gid = pit->second.gid;
  fake.acl = pit->second.acl;
  *perm = CheckAccess(fake, cred, kPermExec);
  *out = dit->second.dentry;
  return true;
}

void Client::PcacheInvalidate(const Uuid& dir, const std::string& name) {
  std::lock_guard lock(pcache_mu_);
  dentry_cache_.erase({dir, name});
}

// ---------------------------------------------------------------------------
// Path resolution
// ---------------------------------------------------------------------------

Result<Dentry> Client::LookupStep(const Uuid& dir, const std::string& name,
                                  const UserCred& cred) {
  Dentry cached;
  Status perm;
  if (PcacheLookup(dir, name, cred, &cached, &perm)) {
    perm_cache_hits_.Add();
    ARKFS_RETURN_IF_ERROR(perm);
    return cached;
  }
  wire::DirOpRequest req;
  req.op = wire::DirOp::kLookup;
  req.name = name;
  req.cred = wire::WireCred::From(cred);
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(dir, std::move(req)));
  ARKFS_RETURN_IF_ERROR(resp.ToStatus());
  CachePermEntry(dir, resp.dir_meta);
  if (resp.has_dentry) CacheDentryEntry(dir, resp.dentry);
  return resp.dentry;
}

Result<Uuid> Client::ResolveDir(const std::string& path,
                                const UserCred& cred) {
  ARKFS_ASSIGN_OR_RETURN(auto comps, SplitPath(path));
  Uuid cur = kRootIno;
  int depth_budget = kMaxSymlinkDepth;
  for (std::size_t i = 0; i < comps.size(); ++i) {
    ARKFS_ASSIGN_OR_RETURN(Dentry d, LookupStep(cur, comps[i], cred));
    if (d.type == FileType::kSymlink) {
      if (--depth_budget <= 0) return ErrStatus(Errc::kLoop, path);
      // Fetch the link target from the parent leader.
      wire::DirOpRequest req;
      req.op = wire::DirOp::kGetAttrChild;
      req.name = comps[i];
      req.cred = wire::WireCred::From(cred);
      ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(cur, std::move(req)));
      ARKFS_RETURN_IF_ERROR(resp.ToStatus());
      const std::string& target = resp.inode.symlink_target;
      std::string rebuilt;
      if (!target.empty() && target[0] == '/') {
        rebuilt = target;
      } else {
        std::vector<std::string> prefix(comps.begin(), comps.begin() + i);
        rebuilt = JoinPath(prefix);
        if (rebuilt.back() != '/') rebuilt += '/';
        rebuilt += target;
      }
      for (std::size_t j = i + 1; j < comps.size(); ++j) {
        rebuilt += '/';
        rebuilt += comps[j];
      }
      ARKFS_ASSIGN_OR_RETURN(comps, SplitPath(rebuilt));
      cur = kRootIno;
      i = static_cast<std::size_t>(-1);  // restart (incremented by loop)
      continue;
    }
    if (d.type != FileType::kDirectory) return ErrStatus(Errc::kNotDir, path);
    cur = d.ino;
  }
  return cur;
}

Result<Client::ResolvedParent> Client::ResolveParent(const std::string& path,
                                                     const UserCred& cred) {
  ARKFS_ASSIGN_OR_RETURN(auto split, SplitParentOf(path));
  ARKFS_ASSIGN_OR_RETURN(Uuid parent, ResolveDir(split.parent, cred));
  return ResolvedParent{parent, std::move(split.name)};
}

Status Client::Probe(const std::string& path, const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.probe");
  if (path == "/") return Status::Ok();
  ARKFS_ASSIGN_OR_RETURN(auto rp, ResolveParent(path, cred));
  return LookupStep(rp.parent, rp.name, cred).status();
}

// ---------------------------------------------------------------------------
// Vfs implementation
// ---------------------------------------------------------------------------

Result<Fd> Client::Open(const std::string& path, const OpenOptions& options,
                        const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.open");
  ARKFS_ASSIGN_OR_RETURN(auto rp, ResolveParent(path, cred));

  Inode inode;
  bool created = false;
  if (options.create) {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kCreate;
    req.name = rp.name;
    req.mode = options.mode;
    req.exclusive = options.exclusive;
    req.cred = wire::WireCred::From(cred);
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
    ARKFS_RETURN_IF_ERROR(resp.ToStatus());
    inode = resp.inode;
    created = resp.has_inode && inode.size == 0 && inode.version == 0;
  } else {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kGetAttrChild;
    req.name = rp.name;
    req.cred = wire::WireCred::From(cred);
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
    ARKFS_RETURN_IF_ERROR(resp.ToStatus());
    inode = resp.inode;
  }

  if (inode.IsDir()) return ErrStatus(Errc::kIsDir, path);
  if (inode.IsSymlink()) {
    // Follow the final symlink.
    const std::string& target = inode.symlink_target;
    std::string resolved = target;
    if (target.empty() || target[0] != '/') {
      ARKFS_ASSIGN_OR_RETURN(auto split, SplitParentOf(path));
      resolved = split.parent == "/" ? "/" + target
                                     : split.parent + "/" + target;
    }
    OpenOptions follow = options;
    follow.create = false;
    return Open(resolved, follow, cred);
  }

  if (options.read) {
    ARKFS_RETURN_IF_ERROR(CheckAccess(inode, cred, kPermRead));
  }
  if (options.write) {
    ARKFS_RETURN_IF_ERROR(CheckAccess(inode, cred, kPermWrite));
  }

  OpenFile of;
  of.ino = inode.ino;
  of.parent = rp.parent;
  of.options = options;
  of.cred = cred;
  of.size = inode.size;
  of.chunk_size = inode.chunk_size ? inode.chunk_size : prt_->chunk_size();

  // Acquire a read lease from the directory leader so we may cache data
  // (paper §III-D: every client gets a read lease at OPEN/CREATE).
  {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kLeaseOpen;
    req.child_ino = inode.ino;
    req.cred = wire::WireCred::From(cred);
    auto resp = RunDirOp(rp.parent, std::move(req));
    if (resp.ok() && resp->code == Errc::kOk && resp->lease_granted) {
      of.cache_read = true;
    } else {
      of.direct_io = true;
    }
    // The leader may have just flushed a concurrent writer; adopt the
    // freshest size it knows.
    if (resp.ok() && resp->has_inode) {
      of.size = std::max(of.size, resp->inode.size);
    }
  }

  if (options.truncate && options.write && !created && inode.size > 0) {
    cache_->TruncateFile(inode.ino, 0);
    ARKFS_RETURN_IF_ERROR(prt_->TruncateData(inode.ino, inode.size, 0));
    wire::DirOpRequest req;
    req.op = wire::DirOp::kCommitSize;
    req.child_ino = inode.ino;
    req.size = 0;
    req.mtime_sec = WallClockSeconds();
    req.cred = wire::WireCred::From(cred);
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
    ARKFS_RETURN_IF_ERROR(resp.ToStatus());
    of.size = 0;
  }

  std::lock_guard lock(fd_mu_);
  const Fd fd = next_fd_++;
  open_files_.emplace(fd, std::move(of));
  return fd;
}

Status Client::Close(Fd fd) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.close");
  OpenFile of;
  {
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) return ErrStatus(Errc::kBadF);
    of = it->second;
    open_files_.erase(it);
  }
  // Write-back semantics: close does NOT flush data (only fsync does). The
  // size/mtime update is pushed so the namespace is correct immediately.
  Status st = Status::Ok();
  if (of.size_dirty) {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kCommitSize;
    req.child_ino = of.ino;
    req.size = of.size;
    req.mtime_sec = WallClockSeconds();
    req.cred = wire::WireCred::From(of.cred);
    auto resp = RunDirOp(of.parent, std::move(req));
    st = resp.ok() ? resp->ToStatus() : resp.status();
  }
  // Keep the file lease while dirty entries remain cached: the leader will
  // flush-broadcast us if another client opens the file, preserving
  // cross-client visibility of the cached bytes.
  if (!cache_->HasDirty(of.ino)) {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kLeaseRelease;
    req.child_ino = of.ino;
    req.cred = wire::WireCred::From(of.cred);
    auto resp = RunDirOp(of.parent, std::move(req));
    if (st.ok()) st = resp.ok() ? resp->ToStatus() : resp.status();
  }
  return st;
}

Result<Bytes> Client::Read(Fd fd, std::uint64_t offset, std::uint64_t length) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.read");
  OpenFile of;
  {
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) return ErrStatus(Errc::kBadF);
    if (!it->second.options.read) return ErrStatus(Errc::kBadF, "not open for read");
    of = it->second;
  }
  if (of.direct_io || !of.cache_read) {
    return prt_->ReadData(of.ino, offset, length, of.size);
  }
  return cache_->Read(of.ino, of.size, offset, length);
}

Result<std::uint64_t> Client::Write(Fd fd, std::uint64_t offset,
                                    ByteSpan data) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.write");
  Uuid ino, parent;
  std::uint64_t size;
  bool direct, cache_write;
  UserCred cred;
  {
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) return ErrStatus(Errc::kBadF);
    OpenFile& of = it->second;
    if (!of.options.write) return ErrStatus(Errc::kBadF, "not open for write");
    if (of.options.append) offset = of.size;
    ino = of.ino;
    parent = of.parent;
    size = of.size;
    direct = of.direct_io;
    cache_write = of.cache_write;
    cred = of.cred;
  }

  if (!direct && !cache_write) {
    // First write on this handle: try to upgrade the read lease to a write
    // lease (paper §III-D). Denial means other clients hold leases — the
    // leader has broadcast cache flushes and we must do direct I/O.
    wire::DirOpRequest req;
    req.op = wire::DirOp::kLeaseUpgrade;
    req.child_ino = ino;
    req.cred = wire::WireCred::From(cred);
    auto resp = RunDirOp(parent, std::move(req));
    const bool granted =
        resp.ok() && resp->code == Errc::kOk && resp->lease_granted;
    {
      std::lock_guard lock(fd_mu_);
      auto it = open_files_.find(fd);
      if (it == open_files_.end()) return ErrStatus(Errc::kBadF);
      if (granted) {
        it->second.cache_write = true;
        cache_write = true;
      } else {
        it->second.direct_io = true;
        it->second.cache_read = false;
        direct = true;
      }
    }
    if (!granted) (void)cache_->DropFile(ino, /*flush_dirty=*/true);
  }

  Status st = direct ? prt_->WriteData(ino, offset, data)
                     : cache_->Write(ino, size, offset, data);
  ARKFS_RETURN_IF_ERROR(st);

  {
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it != open_files_.end()) {
      OpenFile& of = it->second;
      of.size = std::max(of.size, offset + data.size());
      of.size_dirty = true;
      ++of.writes;
    }
  }
  return data.size();
}

Status Client::FlushOpenFile(OpenFile& of) {
  if (!of.direct_io) {
    ARKFS_RETURN_IF_ERROR(cache_->FlushFile(of.ino));
  }
  if (of.size_dirty) {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kCommitSize;
    req.child_ino = of.ino;
    req.size = of.size;
    req.mtime_sec = WallClockSeconds();
    req.cred = wire::WireCred::From(of.cred);
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(of.parent, std::move(req)));
    ARKFS_RETURN_IF_ERROR(resp.ToStatus());
    of.size_dirty = false;
  }
  return Status::Ok();
}

Status Client::Fsync(Fd fd) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.fsync");
  OpenFile snapshot;
  {
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) return ErrStatus(Errc::kBadF);
    snapshot = it->second;
  }
  ARKFS_RETURN_IF_ERROR(FlushOpenFile(snapshot));
  {
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it != open_files_.end() && it->second.writes == snapshot.writes) {
      it->second.size_dirty = false;
    }
  }
  // The create and size/mtime updates sit in the running transaction of the
  // parent's LEADER, which may be another client: commit there.
  return CommitAtLeader(snapshot.parent);
}

Status Client::CommitAtLeader(const Uuid& dir_ino) {
  wire::DirOpRequest req;
  req.op = wire::DirOp::kCommitDir;
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(dir_ino, std::move(req)));
  return resp.ToStatus();
}

Result<StatResult> Client::Stat(const std::string& path,
                                const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.stat");
  if (path == "/") {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kGetAttrDir;
    req.cred = wire::WireCred::From(cred);
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(kRootIno, std::move(req)));
    ARKFS_RETURN_IF_ERROR(resp.ToStatus());
    CachePermEntry(kRootIno, resp.dir_meta);
    return StatResult::FromInode(resp.inode);
  }
  ARKFS_ASSIGN_OR_RETURN(auto rp, ResolveParent(path, cred));
  ARKFS_ASSIGN_OR_RETURN(Dentry d, LookupStep(rp.parent, rp.name, cred));
  if (d.type == FileType::kDirectory) {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kGetAttrDir;
    req.cred = wire::WireCred::From(cred);
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(d.ino, std::move(req)));
    ARKFS_RETURN_IF_ERROR(resp.ToStatus());
    CachePermEntry(d.ino, resp.dir_meta);
    return StatResult::FromInode(resp.inode);
  }
  wire::DirOpRequest req;
  req.op = wire::DirOp::kGetAttrChild;
  req.name = rp.name;
  req.cred = wire::WireCred::From(cred);
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
  ARKFS_RETURN_IF_ERROR(resp.ToStatus());
  return StatResult::FromInode(resp.inode);
}

Status Client::Mkdir(const std::string& path, std::uint32_t mode,
                     const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.mkdir");
  ARKFS_ASSIGN_OR_RETURN(auto rp, ResolveParent(path, cred));
  wire::DirOpRequest req;
  req.op = wire::DirOp::kMkdir;
  req.name = rp.name;
  req.mode = mode;
  req.cred = wire::WireCred::From(cred);
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
  return resp.ToStatus();
}

Status Client::Rmdir(const std::string& path, const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.rmdir");
  ARKFS_ASSIGN_OR_RETURN(auto rp, ResolveParent(path, cred));
  PcacheInvalidate(rp.parent, rp.name);
  wire::DirOpRequest req;
  req.op = wire::DirOp::kRmdir;
  req.name = rp.name;
  req.cred = wire::WireCred::From(cred);
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
  return resp.ToStatus();
}

Status Client::Unlink(const std::string& path, const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.unlink");
  ARKFS_ASSIGN_OR_RETURN(auto rp, ResolveParent(path, cred));
  PcacheInvalidate(rp.parent, rp.name);
  wire::DirOpRequest req;
  req.op = wire::DirOp::kUnlink;
  req.name = rp.name;
  req.cred = wire::WireCred::From(cred);
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
  ARKFS_RETURN_IF_ERROR(resp.ToStatus());
  if (resp.has_dentry) {
    // Discard our cached data for the dead file without writing it back.
    (void)cache_->DropFile(resp.dentry.ino, /*flush_dirty=*/false);
  }
  return Status::Ok();
}

Status Client::Rename(const std::string& from, const std::string& to,
                      const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.rename");
  ARKFS_ASSIGN_OR_RETURN(auto src, ResolveParent(from, cred));
  ARKFS_ASSIGN_OR_RETURN(auto dst, ResolveParent(to, cred));
  PcacheInvalidate(src.parent, src.name);
  PcacheInvalidate(dst.parent, dst.name);

  if (src.parent == dst.parent) {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kRenameLocal;
    req.name = src.name;
    req.name2 = dst.name;
    req.cred = wire::WireCred::From(cred);
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(src.parent, std::move(req)));
    return resp.ToStatus();
  }

  // Cross-directory rename: this client must lead both directories (the
  // controlled-environment assumption; EBUSY if another client holds one).
  DirHandlePtr src_handle, dst_handle;
  for (int attempt = 0; attempt < kOpRetries; ++attempt) {
    if (attempt > 0) SleepFor(kOpRetryBackoff);
    auto sref = EnsureDirAccess(src.parent);
    if (!sref.ok()) return sref.status();
    auto dref = EnsureDirAccess(dst.parent);
    if (!dref.ok()) return dref.status();
    if (sref->local && dref->local) {
      src_handle = sref->local;
      dst_handle = dref->local;
      break;
    }
  }
  if (!src_handle || !dst_handle) {
    return ErrStatus(Errc::kBusy, "cross-dir rename: cannot obtain both leases");
  }

  // Lock both handles in canonical order.
  DirHandle* first = src_handle.get();
  DirHandle* second = dst_handle.get();
  if (dst.parent < src.parent) std::swap(first, second);
  std::unique_lock lock1(first->mu);
  std::unique_lock lock2(second->mu);
  ARKFS_RETURN_IF_ERROR(ValidateLeaseLocked(*src_handle));
  ARKFS_RETURN_IF_ERROR(ValidateLeaseLocked(*dst_handle));

  Metatable& smt = *src_handle->metatable;
  Metatable& dmt = *dst_handle->metatable;
  ARKFS_RETURN_IF_ERROR(CheckAccess(smt.dir_inode(), cred,
                                    kPermWrite | kPermExec));
  ARKFS_RETURN_IF_ERROR(CheckAccess(dmt.dir_inode(), cred,
                                    kPermWrite | kPermExec));

  ARKFS_ASSIGN_OR_RETURN(Dentry moving, smt.Lookup(src.name));

  std::vector<journal::Record> src_records;
  std::vector<journal::Record> dst_records;

  // Replace semantics on the destination.
  if (auto existing = dmt.Lookup(dst.name); existing.ok()) {
    if (existing->type == FileType::kDirectory) {
      return ErrStatus(Errc::kIsDir, "rename onto directory unsupported");
    }
    ARKFS_ASSIGN_OR_RETURN(Inode * victim,
                           LoadChildInodeLocked(*dst_handle, existing->ino));
    dst_records.push_back(journal::Record::DentryRemove(dst.name));
    dst_records.push_back(journal::Record::InodeRemove(
        victim->ino, victim->size,
        victim->chunk_size ? victim->chunk_size : prt_->chunk_size()));
  }

  Inode moved_inode;
  if (moving.type == FileType::kDirectory) {
    ARKFS_ASSIGN_OR_RETURN(moved_inode, prt_->LoadInode(moving.ino));
  } else {
    ARKFS_ASSIGN_OR_RETURN(Inode * child,
                           LoadChildInodeLocked(*src_handle, moving.ino));
    moved_inode = *child;
  }
  moved_inode.parent = dst.parent;
  moved_inode.ctime_sec = WallClockSeconds();
  ++moved_inode.version;

  src_records.push_back(journal::Record::DentryRemove(src.name));
  Inode src_dir = smt.dir_inode();
  src_dir.mtime_sec = src_dir.ctime_sec = WallClockSeconds();
  ++src_dir.version;
  src_records.push_back(journal::Record::InodeUpsert(src_dir));

  Dentry new_dentry{dst.name, moving.ino, moving.type};
  dst_records.push_back(journal::Record::DentryAdd(new_dentry));
  dst_records.push_back(journal::Record::InodeUpsert(moved_inode));
  Inode dst_dir = dmt.dir_inode();
  dst_dir.mtime_sec = dst_dir.ctime_sec = WallClockSeconds();
  ++dst_dir.version;
  dst_records.push_back(journal::Record::InodeUpsert(dst_dir));

  ARKFS_RETURN_IF_ERROR(journal_->CommitCrossDir(
      src.parent, std::move(src_records), dst.parent, std::move(dst_records)));

  // 2PC succeeded; update in-memory state.
  (void)smt.Erase(src.name);
  smt.mutable_dir_inode() = src_dir;
  (void)dmt.Erase(dst.name);
  if (moving.type == FileType::kDirectory) {
    ARKFS_RETURN_IF_ERROR(prt_->StoreInode(moved_inode));
    ARKFS_RETURN_IF_ERROR(dmt.Insert(new_dentry, std::nullopt));
  } else {
    ARKFS_RETURN_IF_ERROR(dmt.Insert(new_dentry, moved_inode));
  }
  dmt.mutable_dir_inode() = dst_dir;
  return Status::Ok();
}

Result<std::vector<Dentry>> Client::ReadDir(const std::string& path,
                                            const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.readdir");
  ARKFS_ASSIGN_OR_RETURN(Uuid dir, ResolveDir(path, cred));
  wire::DirOpRequest req;
  req.op = wire::DirOp::kReadDir;
  req.cred = wire::WireCred::From(cred);
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(dir, std::move(req)));
  ARKFS_RETURN_IF_ERROR(resp.ToStatus());
  return resp.entries;
}

Status Client::SetAttr(const std::string& path, const SetAttrRequest& attr,
                       const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.setattr");
  if (path == "/") {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kSetAttrDir;
    req.attr = attr;
    req.cred = wire::WireCred::From(cred);
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(kRootIno, std::move(req)));
    return resp.ToStatus();
  }
  ARKFS_ASSIGN_OR_RETURN(auto rp, ResolveParent(path, cred));
  ARKFS_ASSIGN_OR_RETURN(Dentry d, LookupStep(rp.parent, rp.name, cred));
  if (d.type == FileType::kDirectory) {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kSetAttrDir;
    req.attr = attr;
    req.cred = wire::WireCred::From(cred);
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(d.ino, std::move(req)));
    return resp.ToStatus();
  }
  wire::DirOpRequest req;
  req.op = wire::DirOp::kSetAttrChild;
  req.name = rp.name;
  req.attr = attr;
  req.cred = wire::WireCred::From(cred);
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
  ARKFS_RETURN_IF_ERROR(resp.ToStatus());
  if ((attr.mask & kSetSize) && resp.has_inode) {
    // Shrink our cached data and the store-side chunks.
    cache_->TruncateFile(d.ino, attr.size);
    std::lock_guard lock(fd_mu_);
    for (auto& [_, of] : open_files_) {
      if (of.ino == d.ino) of.size = attr.size;
    }
  }
  return Status::Ok();
}

Status Client::Symlink(const std::string& target, const std::string& path,
                       const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.symlink");
  ARKFS_ASSIGN_OR_RETURN(auto rp, ResolveParent(path, cred));
  wire::DirOpRequest req;
  req.op = wire::DirOp::kSymlink;
  req.name = rp.name;
  req.name2 = target;
  req.cred = wire::WireCred::From(cred);
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
  return resp.ToStatus();
}

Result<std::string> Client::ReadLink(const std::string& path,
                                     const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.readlink");
  ARKFS_ASSIGN_OR_RETURN(auto rp, ResolveParent(path, cred));
  wire::DirOpRequest req;
  req.op = wire::DirOp::kGetAttrChild;
  req.name = rp.name;
  req.cred = wire::WireCred::From(cred);
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
  ARKFS_RETURN_IF_ERROR(resp.ToStatus());
  if (!resp.inode.IsSymlink()) return ErrStatus(Errc::kInval, "not a symlink");
  return resp.inode.symlink_target;
}

Status Client::SetAcl(const std::string& path, const Acl& acl,
                      const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.setacl");
  ARKFS_RETURN_IF_ERROR(acl.Validate());
  if (path == "/") {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kSetAclDir;
    req.acl = acl;
    req.cred = wire::WireCred::From(cred);
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(kRootIno, std::move(req)));
    return resp.ToStatus();
  }
  ARKFS_ASSIGN_OR_RETURN(auto rp, ResolveParent(path, cred));
  ARKFS_ASSIGN_OR_RETURN(Dentry d, LookupStep(rp.parent, rp.name, cred));
  wire::DirOpRequest req;
  req.acl = acl;
  req.cred = wire::WireCred::From(cred);
  if (d.type == FileType::kDirectory) {
    req.op = wire::DirOp::kSetAclDir;
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(d.ino, std::move(req)));
    return resp.ToStatus();
  }
  req.op = wire::DirOp::kSetAclChild;
  req.name = rp.name;
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
  return resp.ToStatus();
}

Result<Acl> Client::GetAcl(const std::string& path, const UserCred& cred) {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.getacl");
  if (path == "/") {
    wire::DirOpRequest req;
    req.op = wire::DirOp::kGetAttrDir;
    req.cred = wire::WireCred::From(cred);
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(kRootIno, std::move(req)));
    ARKFS_RETURN_IF_ERROR(resp.ToStatus());
    return resp.inode.acl;
  }
  ARKFS_ASSIGN_OR_RETURN(auto rp, ResolveParent(path, cred));
  ARKFS_ASSIGN_OR_RETURN(Dentry d, LookupStep(rp.parent, rp.name, cred));
  wire::DirOpRequest req;
  req.cred = wire::WireCred::From(cred);
  if (d.type == FileType::kDirectory) {
    req.op = wire::DirOp::kGetAttrDir;
    ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(d.ino, std::move(req)));
    ARKFS_RETURN_IF_ERROR(resp.ToStatus());
    return resp.inode.acl;
  }
  req.op = wire::DirOp::kGetAttrChild;
  req.name = rp.name;
  ARKFS_ASSIGN_OR_RETURN(auto resp, RunDirOp(rp.parent, std::move(req)));
  ARKFS_RETURN_IF_ERROR(resp.ToStatus());
  return resp.inode.acl;
}

Status Client::SyncAll() {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.syncall");
  ARKFS_RETURN_IF_ERROR(cache_->FlushAll());
  // Commit size updates of every dirty open file. Only the files committed
  // here, unwritten since, are clean afterwards.
  std::vector<std::pair<Fd, OpenFile>> dirty;
  {
    std::lock_guard lock(fd_mu_);
    for (auto& [fd, of] : open_files_) {
      if (of.size_dirty) dirty.emplace_back(fd, of);
    }
  }
  for (auto& [_, of] : dirty) {
    ARKFS_RETURN_IF_ERROR(FlushOpenFile(of));
  }
  {
    std::lock_guard lock(fd_mu_);
    for (const auto& [fd, snapshot] : dirty) {
      auto it = open_files_.find(fd);
      if (it != open_files_.end() && it->second.writes == snapshot.writes) {
        it->second.size_dirty = false;
      }
    }
  }
  // fsync durability = journaled; checkpointing stays in the background.
  ARKFS_RETURN_IF_ERROR(journal_->CommitAll());
  // Mutations this client forwarded sit in other leaders' journals.
  std::set<Uuid> forwarded;
  {
    std::lock_guard lock(forwarded_mu_);
    forwarded.swap(forwarded_dirs_);
  }
  Status first = Status::Ok();
  for (const Uuid& dir : forwarded) {
    Status st = CommitAtLeader(dir);
    if (st.ok()) continue;
    if (first.ok()) first = st;
    std::lock_guard lock(forwarded_mu_);
    forwarded_dirs_.insert(dir);  // the next SyncAll tries again
  }
  return first;
}

Status Client::DropCaches() {
  obs::TenantScope tenant_scope(config_.tenant);
  obs::RootSpan root(&tracer_, "vfs.drop_caches");
  ARKFS_RETURN_IF_ERROR(SyncAll());
  DelegDropAll();
  return cache_->DropAll();
}

// ---------------------------------------------------------------------------
// Delegable reads: one body for a leader's metatable and a delegate's slice
// ---------------------------------------------------------------------------

Status Client::ServeRead(const Metatable& mt, const wire::DirOpRequest& req,
                         const UserCred& cred,
                         const ChildInodeLoader& child_loader,
                         wire::DirOpResponse* out) {
  const Inode& dir_inode = mt.dir_inode();
  auto fill_meta = [&] {
    out->dir_meta = {true, dir_inode.mode, dir_inode.uid, dir_inode.gid,
                     dir_inode.acl};
  };
  switch (req.op) {
    case wire::DirOp::kGetAttrDir:
      out->has_inode = true;
      out->inode = dir_inode;
      fill_meta();
      return Status::Ok();

    case wire::DirOp::kReadDir:
      ARKFS_RETURN_IF_ERROR(CheckAccess(dir_inode, cred, kPermRead));
      out->entries = mt.ListEntries();
      fill_meta();
      return Status::Ok();

    case wire::DirOp::kLookup:
    case wire::DirOp::kGetAttrChild:
      break;

    default:
      return ErrStatus(Errc::kInval, "not a delegable read");
  }

  // kLookup / kGetAttrChild: resolve the child under exec permission.
  ARKFS_RETURN_IF_ERROR(CheckAccess(dir_inode, cred, kPermExec));
  fill_meta();
  const bool lookup = req.op == wire::DirOp::kLookup;
  Uuid ino = req.child_ino;
  if (lookup || !req.name.empty()) {
    ARKFS_ASSIGN_OR_RETURN(Dentry d, mt.Lookup(req.name));
    out->has_dentry = true;
    out->dentry = d;
    if (d.type == FileType::kDirectory) {
      // A lookup stops at the dentry. A getattr serves a best-effort inode
      // from the store; authoritative stat of a directory goes through its
      // own leader (the caller does that).
      if (lookup) return Status::Ok();
      ARKFS_ASSIGN_OR_RETURN(out->inode, prt_->LoadInode(d.ino));
      out->has_inode = true;
      return Status::Ok();
    }
    ino = d.ino;
  }
  ARKFS_ASSIGN_OR_RETURN(out->inode, child_loader(ino));
  out->has_inode = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Leader-local operation bodies (handle.mu held by ServeDirOp)
// ---------------------------------------------------------------------------

Result<Inode*> Client::LoadChildInodeLocked(DirHandle& dir, const Uuid& ino) {
  Metatable& mt = *dir.metatable;
  if (Inode* found = mt.FindMutableChildInode(ino)) return found;
  ARKFS_ASSIGN_OR_RETURN(Inode loaded, prt_->LoadInode(ino));
  mt.PutChildInode(std::move(loaded));
  return mt.FindMutableChildInode(ino);
}

Status Client::LeaderCreate(DirHandle& dir, const std::string& name,
                            std::uint32_t mode, bool exclusive, FileType type,
                            const std::string& symlink_target,
                            const UserCred& cred, wire::DirOpResponse* out) {
  Metatable& mt = *dir.metatable;
  ARKFS_RETURN_IF_ERROR(
      CheckAccess(mt.dir_inode(), cred, kPermWrite | kPermExec));
  if (auto existing = mt.Lookup(name); existing.ok()) {
    if (exclusive) return ErrStatus(Errc::kExist, name);
    if (existing->type == FileType::kDirectory) {
      return ErrStatus(Errc::kIsDir, name);
    }
    ARKFS_ASSIGN_OR_RETURN(Inode * child,
                           LoadChildInodeLocked(dir, existing->ino));
    out->has_inode = true;
    out->inode = *child;
    return Status::Ok();
  }
  ARKFS_RETURN_IF_ERROR(ValidateName(name));
  // Namespace quota: one inode, charged to the REQUESTING tenant (ambient =
  // the tenant carried in the wire frame) before any state is touched.
  // kNoSpc here is indistinguishable from a full filesystem to the caller.
  if (config_.quota) {
    ARKFS_RETURN_IF_ERROR(config_.quota->ChargeInodes(obs::CurrentTenant(), 1));
  }

  Inode child = MakeInode(NewUuid(), type, mode & 07777, cred.uid, cred.gid,
                          mt.dir_inode().ino);
  child.chunk_size = prt_->chunk_size();
  child.symlink_target = symlink_target;
  if (type == FileType::kSymlink) child.size = symlink_target.size();

  Dentry d{name, child.ino, type};
  ARKFS_RETURN_IF_ERROR(mt.Insert(d, child));
  Inode& dir_inode = mt.mutable_dir_inode();
  dir_inode.mtime_sec = dir_inode.ctime_sec = WallClockSeconds();
  ++dir_inode.version;

  std::vector<journal::Record> records;
  records.push_back(journal::Record::InodeUpsert(child));
  records.push_back(journal::Record::DentryAdd(d));
  records.push_back(journal::Record::InodeUpsert(dir_inode));
  ARKFS_RETURN_IF_ERROR(journal_->Append(dir.ino, std::move(records)));

  out->has_inode = true;
  out->inode = child;
  return Status::Ok();
}

Status Client::LeaderMkdir(DirHandle& dir, const std::string& name,
                           std::uint32_t mode, const UserCred& cred,
                           wire::DirOpResponse* out) {
  Metatable& mt = *dir.metatable;
  ARKFS_RETURN_IF_ERROR(
      CheckAccess(mt.dir_inode(), cred, kPermWrite | kPermExec));
  if (mt.Contains(name)) return ErrStatus(Errc::kExist, name);
  ARKFS_RETURN_IF_ERROR(ValidateName(name));
  if (config_.quota) {  // one inode, charged to the requesting tenant
    ARKFS_RETURN_IF_ERROR(config_.quota->ChargeInodes(obs::CurrentTenant(), 1));
  }

  Inode child = MakeInode(NewUuid(), FileType::kDirectory, mode & 07777,
                          cred.uid, cred.gid, mt.dir_inode().ino);
  // The child directory's inode object is written eagerly so that any
  // client acquiring its lease can build a metatable immediately, without
  // waiting for the parent's checkpoint.
  ARKFS_RETURN_IF_ERROR(prt_->StoreInode(child));

  Dentry d{name, child.ino, FileType::kDirectory};
  ARKFS_RETURN_IF_ERROR(mt.Insert(d, std::nullopt));
  Inode& dir_inode = mt.mutable_dir_inode();
  dir_inode.mtime_sec = dir_inode.ctime_sec = WallClockSeconds();
  ++dir_inode.nlink;
  ++dir_inode.version;

  std::vector<journal::Record> records;
  records.push_back(journal::Record::InodeUpsert(child));
  records.push_back(journal::Record::DentryAdd(d));
  records.push_back(journal::Record::InodeUpsert(dir_inode));
  ARKFS_RETURN_IF_ERROR(journal_->Append(dir.ino, std::move(records)));

  out->has_inode = true;
  out->inode = child;
  return Status::Ok();
}

Status Client::LeaderUnlink(DirHandle& dir, const std::string& name,
                            const UserCred& cred, wire::DirOpResponse* out) {
  Metatable& mt = *dir.metatable;
  ARKFS_RETURN_IF_ERROR(
      CheckAccess(mt.dir_inode(), cred, kPermWrite | kPermExec));
  ARKFS_ASSIGN_OR_RETURN(Dentry d, mt.Lookup(name));
  if (d.type == FileType::kDirectory) return ErrStatus(Errc::kIsDir, name);
  ARKFS_ASSIGN_OR_RETURN(Inode * child, LoadChildInodeLocked(dir, d.ino));
  const std::uint64_t size = child->size;
  const std::uint64_t chunk =
      child->chunk_size ? child->chunk_size : prt_->chunk_size();

  std::vector<journal::Record> records;
  records.push_back(journal::Record::DentryRemove(name));
  records.push_back(journal::Record::InodeRemove(d.ino, size, chunk));
  Inode& dir_inode = mt.mutable_dir_inode();
  dir_inode.mtime_sec = dir_inode.ctime_sec = WallClockSeconds();
  ++dir_inode.version;
  records.push_back(journal::Record::InodeUpsert(dir_inode));
  // Memory BEFORE journal, like every other op: once Append has sequenced
  // the records, a transient sync-mode commit failure leaves them on the
  // running queue and the journal flusher redrives them durable — so the
  // metatable must already reflect the op, or the journal would
  // record an unlink the live leader never applied. The caller still sees
  // the error (at-least-once ambiguity, never a silent divergence).
  ARKFS_RETURN_IF_ERROR(mt.Erase(name));
  dir.file_leases.erase(d.ino);
  ARKFS_RETURN_IF_ERROR(journal_->Append(dir.ino, std::move(records)));
  if (config_.quota) {
    // Credit the requesting tenant for the freed inode and bytes. Credits
    // never fail (floored at zero), so a cross-tenant delete at worst
    // under-counts — it can never wedge a delete.
    (void)config_.quota->ChargeInodes(obs::CurrentTenant(), -1);
    (void)config_.quota->ChargeBytes(obs::CurrentTenant(),
                                     -static_cast<std::int64_t>(size));
  }

  if (out) {
    out->has_dentry = true;
    out->dentry = d;  // callers use the ino to invalidate their caches
  }
  return Status::Ok();
}

Status Client::LeaderRmdir(DirHandle& dir, const std::string& name,
                           const UserCred& cred) {
  Metatable& mt = *dir.metatable;
  ARKFS_RETURN_IF_ERROR(
      CheckAccess(mt.dir_inode(), cred, kPermWrite | kPermExec));
  ARKFS_ASSIGN_OR_RETURN(Dentry d, mt.Lookup(name));
  if (d.type != FileType::kDirectory) return ErrStatus(Errc::kNotDir, name);

  // Emptiness check. If this client also leads the child we check the live
  // metatable; otherwise the caller performed a pre-check against the
  // child's leader and the dentry block in the store is our backstop.
  bool empty = false;
  {
    DirHandlePtr child = HandleFor(d.ino);
    // try_lock: a concurrent cross-directory rename locks two directories in
    // UUID order, which could be child-before-parent; trying (rather than
    // blocking) while the parent lock is held breaks the potential cycle.
    std::shared_lock child_lock(child->mu, std::try_to_lock);
    if (!child_lock.owns_lock()) return ErrStatus(Errc::kBusy, name);
    if (child->leader && child->metatable) {
      empty = child->metatable->empty();
    } else {
      auto entries = prt_->LoadDentries(d.ino);  // manifest, then all shards
      empty = entries.ok() && entries->empty() &&
              !journal_->HasSurvivingJournal(d.ino);
    }
  }
  if (!empty) return ErrStatus(Errc::kNotEmpty, name);

  std::vector<journal::Record> records;
  records.push_back(journal::Record::DentryRemove(name));
  records.push_back(journal::Record::InodeRemove(d.ino, 0, 0));
  records.push_back(journal::Record::DirRemove(d.ino));
  Inode& dir_inode = mt.mutable_dir_inode();
  dir_inode.mtime_sec = dir_inode.ctime_sec = WallClockSeconds();
  if (dir_inode.nlink > 2) --dir_inode.nlink;
  ++dir_inode.version;
  records.push_back(journal::Record::InodeUpsert(dir_inode));
  // Memory before journal (see LeaderUnlink): sequenced records may still
  // be redriven durable after a transient Append failure.
  ARKFS_RETURN_IF_ERROR(mt.Erase(name));
  ARKFS_RETURN_IF_ERROR(journal_->Append(dir.ino, std::move(records)));
  if (config_.quota) {  // freed directory inode (credits never fail)
    (void)config_.quota->ChargeInodes(obs::CurrentTenant(), -1);
  }
  return Status::Ok();
}

Status Client::LeaderRenameLocal(DirHandle& dir, const std::string& from,
                                 const std::string& to, const UserCred& cred) {
  Metatable& mt = *dir.metatable;
  ARKFS_RETURN_IF_ERROR(
      CheckAccess(mt.dir_inode(), cred, kPermWrite | kPermExec));
  ARKFS_ASSIGN_OR_RETURN(Dentry moving, mt.Lookup(from));
  if (from == to) return Status::Ok();
  ARKFS_RETURN_IF_ERROR(ValidateName(to));

  std::vector<journal::Record> records;
  if (auto existing = mt.Lookup(to); existing.ok()) {
    if (existing->type == FileType::kDirectory) {
      return ErrStatus(Errc::kIsDir, to);
    }
    ARKFS_ASSIGN_OR_RETURN(Inode * victim,
                           LoadChildInodeLocked(dir, existing->ino));
    records.push_back(journal::Record::DentryRemove(to));
    records.push_back(journal::Record::InodeRemove(
        victim->ino, victim->size,
        victim->chunk_size ? victim->chunk_size : prt_->chunk_size()));
    ARKFS_RETURN_IF_ERROR(mt.Erase(to));
  }

  Dentry renamed{to, moving.ino, moving.type};
  records.push_back(journal::Record::DentryRemove(from));
  records.push_back(journal::Record::DentryAdd(renamed));
  Inode& dir_inode = mt.mutable_dir_inode();
  dir_inode.mtime_sec = dir_inode.ctime_sec = WallClockSeconds();
  ++dir_inode.version;
  records.push_back(journal::Record::InodeUpsert(dir_inode));

  // Memory before journal (see LeaderUnlink) — and all of it: the victim
  // erase above already mutated mt, so a failed Append after a partial
  // memory update would diverge from the redriven records.
  std::optional<Inode> child_inode;
  if (moving.type != FileType::kDirectory) {
    if (Inode* child = mt.FindMutableChildInode(moving.ino)) {
      child_inode = *child;
    }
  }
  ARKFS_RETURN_IF_ERROR(mt.Erase(from));
  ARKFS_RETURN_IF_ERROR(mt.Insert(renamed, child_inode));
  ARKFS_RETURN_IF_ERROR(journal_->Append(dir.ino, std::move(records)));
  return Status::Ok();
}

Status Client::LeaderSetAttrChild(DirHandle& dir, const std::string& name,
                                  const SetAttrRequest& req,
                                  const UserCred& cred,
                                  wire::DirOpResponse* out) {
  Metatable& mt = *dir.metatable;
  ARKFS_RETURN_IF_ERROR(CheckAccess(mt.dir_inode(), cred, kPermExec));
  ARKFS_ASSIGN_OR_RETURN(Dentry d, mt.Lookup(name));
  if (d.type == FileType::kDirectory) {
    return ErrStatus(Errc::kIsDir, "directory attrs via its own leader");
  }
  ARKFS_ASSIGN_OR_RETURN(Inode * child, LoadChildInodeLocked(dir, d.ino));
  const std::uint64_t old_size = child->size;
  ARKFS_RETURN_IF_ERROR(ApplySetAttr(*child, req, cred));
  if ((req.mask & kSetSize) && req.size < old_size) {
    ARKFS_RETURN_IF_ERROR(prt_->TruncateData(d.ino, old_size, req.size));
    cache_->TruncateFile(d.ino, req.size);
    BroadcastFlush(dir, d.ino, config_.address);
  }
  ARKFS_RETURN_IF_ERROR(
      journal_->Append(dir.ino, {journal::Record::InodeUpsert(*child)}));
  out->has_inode = true;
  out->inode = *child;
  return Status::Ok();
}

Status Client::LeaderSetAttrDir(DirHandle& dir, const SetAttrRequest& req,
                                const UserCred& cred,
                                wire::DirOpResponse* out) {
  Metatable& mt = *dir.metatable;
  Inode& dir_inode = mt.mutable_dir_inode();
  if (req.mask & kSetSize) return ErrStatus(Errc::kIsDir);
  ARKFS_RETURN_IF_ERROR(ApplySetAttr(dir_inode, req, cred));
  ARKFS_RETURN_IF_ERROR(
      journal_->Append(dir.ino, {journal::Record::InodeUpsert(dir_inode)}));
  out->has_inode = true;
  out->inode = dir_inode;
  out->dir_meta = {true, dir_inode.mode, dir_inode.uid, dir_inode.gid,
                   dir_inode.acl};
  return Status::Ok();
}

Status Client::LeaderSetAclChild(DirHandle& dir, const std::string& name,
                                 const Acl& acl, const UserCred& cred) {
  Metatable& mt = *dir.metatable;
  ARKFS_RETURN_IF_ERROR(CheckAccess(mt.dir_inode(), cred, kPermExec));
  ARKFS_ASSIGN_OR_RETURN(Dentry d, mt.Lookup(name));
  if (d.type == FileType::kDirectory) return ErrStatus(Errc::kIsDir);
  ARKFS_ASSIGN_OR_RETURN(Inode * child, LoadChildInodeLocked(dir, d.ino));
  if (!IsOwnerOrRoot(*child, cred)) return ErrStatus(Errc::kPerm);
  child->acl = acl;
  child->ctime_sec = WallClockSeconds();
  ++child->version;
  ARKFS_RETURN_IF_ERROR(
      journal_->Append(dir.ino, {journal::Record::InodeUpsert(*child)}));
  return Status::Ok();
}

Status Client::LeaderSetAclDir(DirHandle& dir, const Acl& acl,
                               const UserCred& cred) {
  Inode& dir_inode = dir.metatable->mutable_dir_inode();
  if (!IsOwnerOrRoot(dir_inode, cred)) return ErrStatus(Errc::kPerm);
  dir_inode.acl = acl;
  dir_inode.ctime_sec = WallClockSeconds();
  ++dir_inode.version;
  ARKFS_RETURN_IF_ERROR(
      journal_->Append(dir.ino, {journal::Record::InodeUpsert(dir_inode)}));
  return Status::Ok();
}

Status Client::LeaderLeaseOpen(DirHandle& dir, const Uuid& ino,
                               const std::string& client, bool* granted,
                               wire::DirOpResponse* out) {
  FileLeaseInfo& info = dir.file_leases[ino];
  if (info.direct_io) {
    *granted = false;
  } else if (!info.writer.empty() && info.writer != client) {
    // A writer exists: flush it and force everyone to direct I/O.
    BroadcastFlush(dir, ino, client);
    info.writer.clear();
    info.readers.clear();
    info.direct_io = true;
    *granted = false;
  } else {
    info.readers.insert(client);
    *granted = true;
  }
  // Return the (possibly just-synced) inode so the opener sees the freshest
  // size the leader knows.
  if (out) {
    if (auto child = LoadChildInodeLocked(dir, ino); child.ok()) {
      out->has_inode = true;
      out->inode = **child;
    }
  }
  return Status::Ok();
}

Status Client::LeaderLeaseUpgrade(DirHandle& dir, const Uuid& ino,
                                  const std::string& client, bool* granted) {
  FileLeaseInfo& info = dir.file_leases[ino];
  if (info.direct_io) {
    *granted = false;
    return Status::Ok();
  }
  const bool sole_reader =
      info.readers.empty() ||
      (info.readers.size() == 1 && info.readers.count(client) == 1);
  if (sole_reader && (info.writer.empty() || info.writer == client)) {
    info.writer = client;
    info.readers.insert(client);
    *granted = true;
    return Status::Ok();
  }
  // Contended: revoke caching everywhere (paper: broadcast cache flushing
  // requests and let clients perform I/O directly on object storage).
  BroadcastFlush(dir, ino, client);
  info.readers.clear();
  info.writer.clear();
  info.direct_io = true;
  *granted = false;
  return Status::Ok();
}

Status Client::LeaderLeaseRelease(DirHandle& dir, const Uuid& ino,
                                  const std::string& client) {
  auto it = dir.file_leases.find(ino);
  if (it == dir.file_leases.end()) return Status::Ok();
  it->second.readers.erase(client);
  if (it->second.writer == client) it->second.writer.clear();
  if (it->second.readers.empty() && it->second.writer.empty()) {
    // Last holder gone: future opens may cache again.
    dir.file_leases.erase(it);
  }
  return Status::Ok();
}

Status Client::LeaderCommitSize(DirHandle& dir, const Uuid& ino,
                                std::uint64_t size, std::int64_t mtime_sec) {
  ARKFS_ASSIGN_OR_RETURN(Inode * child, LoadChildInodeLocked(dir, ino));
  // Byte quota: the commit knows both sizes, so charge/credit the delta to
  // the requesting tenant. Growth past the limit bounces kNoSpc before the
  // inode is touched; shrinks always credit.
  const std::int64_t delta = static_cast<std::int64_t>(size) -
                             static_cast<std::int64_t>(child->size);
  if (config_.quota) {
    ARKFS_RETURN_IF_ERROR(
        config_.quota->ChargeBytes(obs::CurrentTenant(), delta));
  }
  child->size = size;
  child->mtime_sec = mtime_sec;
  child->ctime_sec = WallClockSeconds();
  ++child->version;
  ARKFS_RETURN_IF_ERROR(
      journal_->Append(dir.ino, {journal::Record::InodeUpsert(*child)}));
  return Status::Ok();
}

void Client::BroadcastFlush(DirHandle& dir, const Uuid& ino,
                            const std::string& except) {
  auto it = dir.file_leases.find(ino);
  if (it == dir.file_leases.end()) return;
  std::set<std::string> targets = it->second.readers;
  if (!it->second.writer.empty()) targets.insert(it->second.writer);
  targets.erase(except);
  const wire::FlushFileRequest req{ino};
  const Bytes payload = req.Encode();
  for (const auto& addr : targets) {
    if (addr == config_.address) {
      // This client is both leader and holder: flush our own cache, revoke
      // caching on our open handles, and fold our buffered size into the
      // metatable (dir.mu is held; fd_mu nests under it).
      (void)cache_->DropFile(ino, /*flush_dirty=*/true);
      std::uint64_t max_size = 0;
      std::int64_t mtime = 0;
      bool any_dirty = false;
      {
        std::lock_guard fd_lock(fd_mu_);
        for (auto& [_, of] : open_files_) {
          if (of.ino != ino) continue;
          of.direct_io = true;
          of.cache_read = false;
          of.cache_write = false;
          if (of.size_dirty) {
            any_dirty = true;
            max_size = std::max(max_size, of.size);
            mtime = WallClockSeconds();
            of.size_dirty = false;
          }
        }
      }
      if (any_dirty) {
        if (auto child = LoadChildInodeLocked(dir, ino); child.ok()) {
          (*child)->size = std::max((*child)->size, max_size);
          (*child)->mtime_sec = mtime;
          ++(*child)->version;
          // Best-effort: on a sync-mode commit failure the records stay on
          // the running queue and the journal flusher redrives them; the
          // broadcast itself is already fire-and-forget.
          (void)journal_->Append(dir.ino,
                                 {journal::Record::InodeUpsert(**child)});
        }
      }
      continue;
    }
    auto resp = fabric_->Call(addr, wire::kMethodFlushFile, payload);
    if (!resp.ok()) {
      ARKFS_WLOG << "flush broadcast to " << addr
                 << " failed: " << resp.status().ToString();
    }
  }
}

}  // namespace arkfs
