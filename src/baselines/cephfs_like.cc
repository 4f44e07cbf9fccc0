#include "baselines/cephfs_like.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

namespace arkfs::baselines {

CephLikeVfs::CephLikeVfs(MdsClusterPtr mds, ObjectStorePtr store,
                         const CephLikeConfig& config)
    : mds_(std::move(mds)) {
  // Read-ahead loads on the PRT's workers: size them to the mount's window
  // (kernel 8 MiB: 8, FUSE 128 KiB: 1).
  AsyncIoConfig async;
  async.workers = config.cache.ReadAheadWorkers();
  prt_ = std::make_shared<Prt>(std::move(store), config.chunk_size, async);
  cache_ = std::make_unique<ObjectCache>(prt_, config.cache);
}

Result<Fd> CephLikeVfs::Open(const std::string& path,
                             const OpenOptions& options,
                             const UserCred& cred) {
  mds_->ChargeRequest(path);
  Inode inode;
  if (options.create) {
    ARKFS_ASSIGN_OR_RETURN(
        inode, mds_->Create(path, options.mode, options.exclusive,
                            FileType::kRegular, "", cred));
  } else {
    ARKFS_ASSIGN_OR_RETURN(inode, mds_->Lookup(path, cred));
  }
  if (inode.IsDir()) return ErrStatus(Errc::kIsDir, path);
  if (inode.IsSymlink()) {
    OpenOptions follow = options;
    follow.create = false;
    return Open(inode.symlink_target, follow, cred);
  }
  if (options.read) ARKFS_RETURN_IF_ERROR(CheckAccess(inode, cred, kPermRead));
  if (options.write) ARKFS_RETURN_IF_ERROR(CheckAccess(inode, cred, kPermWrite));

  OpenFile of;
  of.path = path;
  of.inode = inode;
  of.options = options;
  of.cred = cred;
  of.size = inode.size;

  if (options.truncate && options.write && inode.size > 0) {
    cache_->TruncateFile(inode.ino, 0);
    ARKFS_RETURN_IF_ERROR(prt_->TruncateData(inode.ino, inode.size, 0));
    mds_->ChargeRequest(path);
    ARKFS_RETURN_IF_ERROR(
        mds_->CommitSize(path, 0, WallClockSeconds(), cred));
    of.size = 0;
  }

  std::lock_guard lock(fd_mu_);
  const Fd fd = next_fd_++;
  open_files_.emplace(fd, std::move(of));
  return fd;
}

Status CephLikeVfs::Close(Fd fd) {
  OpenFile of;
  {
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) return ErrStatus(Errc::kBadF);
    of = it->second;
    open_files_.erase(it);
  }
  // Write-back: dirty data stays cached past close (kernel page-cache
  // behaviour); only fsync/SyncAll force it out.
  if (of.size_dirty) {
    mds_->ChargeRequest(of.path);
    ARKFS_RETURN_IF_ERROR(
        mds_->CommitSize(of.path, of.size, WallClockSeconds(), of.cred));
  }
  return Status::Ok();
}

Result<Bytes> CephLikeVfs::Read(Fd fd, std::uint64_t offset,
                                std::uint64_t length) {
  OpenFile of;
  {
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) return ErrStatus(Errc::kBadF);
    if (!it->second.options.read) return ErrStatus(Errc::kBadF);
    of = it->second;
  }
  return cache_->Read(of.inode.ino, of.size, offset, length);
}

Result<std::uint64_t> CephLikeVfs::Write(Fd fd, std::uint64_t offset,
                                         ByteSpan data) {
  Uuid ino;
  std::uint64_t size;
  {
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) return ErrStatus(Errc::kBadF);
    OpenFile& of = it->second;
    if (!of.options.write) return ErrStatus(Errc::kBadF);
    if (of.options.append) offset = of.size;
    ino = of.inode.ino;
    size = of.size;
  }
  ARKFS_RETURN_IF_ERROR(cache_->Write(ino, size, offset, data));
  {
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it != open_files_.end()) {
      it->second.size = std::max(it->second.size, offset + data.size());
      it->second.size_dirty = true;
    }
  }
  return data.size();
}

Status CephLikeVfs::Fsync(Fd fd) {
  OpenFile of;
  {
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it == open_files_.end()) return ErrStatus(Errc::kBadF);
    of = it->second;
  }
  ARKFS_RETURN_IF_ERROR(cache_->FlushFile(of.inode.ino));
  if (of.size_dirty) {
    mds_->ChargeRequest(of.path);
    ARKFS_RETURN_IF_ERROR(
        mds_->CommitSize(of.path, of.size, WallClockSeconds(), of.cred));
    std::lock_guard lock(fd_mu_);
    auto it = open_files_.find(fd);
    if (it != open_files_.end()) it->second.size_dirty = false;
  }
  return Status::Ok();
}

Result<StatResult> CephLikeVfs::Stat(const std::string& path,
                                     const UserCred& cred) {
  mds_->ChargeRequest(path);
  ARKFS_ASSIGN_OR_RETURN(Inode inode, mds_->Lookup(path, cred));
  return StatResult::FromInode(inode);
}

Status CephLikeVfs::Mkdir(const std::string& path, std::uint32_t mode,
                          const UserCred& cred) {
  mds_->ChargeRequest(path);
  return mds_->Mkdir(path, mode, cred).status();
}

Status CephLikeVfs::Rmdir(const std::string& path, const UserCred& cred) {
  mds_->ChargeRequest(path);
  return mds_->Rmdir(path, cred);
}

Status CephLikeVfs::Unlink(const std::string& path, const UserCred& cred) {
  mds_->ChargeRequest(path);
  Inode removed;
  ARKFS_RETURN_IF_ERROR(mds_->Unlink(path, cred, &removed));
  if (removed.size > 0) {
    (void)cache_->DropFile(removed.ino, /*flush_dirty=*/false);
    ARKFS_RETURN_IF_ERROR(prt_->DeleteData(removed.ino, removed.size));
  }
  return Status::Ok();
}

Status CephLikeVfs::Rename(const std::string& from, const std::string& to,
                           const UserCred& cred) {
  mds_->ChargeRequest(from);
  mds_->ChargeRequest(to);
  Inode replaced;
  ARKFS_RETURN_IF_ERROR(mds_->Rename(from, to, cred, &replaced));
  if (replaced.size > 0) {
    ARKFS_RETURN_IF_ERROR(prt_->DeleteData(replaced.ino, replaced.size));
  }
  return Status::Ok();
}

Result<std::vector<Dentry>> CephLikeVfs::ReadDir(const std::string& path,
                                                 const UserCred& cred) {
  mds_->ChargeRequest(path);
  return mds_->ReadDir(path, cred);
}

Status CephLikeVfs::SetAttr(const std::string& path, const SetAttrRequest& req,
                            const UserCred& cred) {
  mds_->ChargeRequest(path);
  ARKFS_ASSIGN_OR_RETURN(Inode inode, mds_->SetAttr(path, req, cred));
  if (req.mask & kSetSize) {
    cache_->TruncateFile(inode.ino, req.size);
  }
  return Status::Ok();
}

Status CephLikeVfs::Symlink(const std::string& target, const std::string& path,
                            const UserCred& cred) {
  mds_->ChargeRequest(path);
  return mds_
      ->Create(path, 0777, /*exclusive=*/true, FileType::kSymlink, target,
               cred)
      .status();
}

Result<std::string> CephLikeVfs::ReadLink(const std::string& path,
                                          const UserCred& cred) {
  mds_->ChargeRequest(path);
  ARKFS_ASSIGN_OR_RETURN(Inode inode, mds_->Lookup(path, cred));
  if (!inode.IsSymlink()) return ErrStatus(Errc::kInval, path);
  return inode.symlink_target;
}

Status CephLikeVfs::SetAcl(const std::string& path, const Acl& acl,
                           const UserCred& cred) {
  ARKFS_RETURN_IF_ERROR(acl.Validate());
  mds_->ChargeRequest(path);
  return mds_->SetAcl(path, acl, cred);
}

Result<Acl> CephLikeVfs::GetAcl(const std::string& path,
                                const UserCred& cred) {
  mds_->ChargeRequest(path);
  ARKFS_ASSIGN_OR_RETURN(Inode inode, mds_->Lookup(path, cred));
  return inode.acl;
}

Status CephLikeVfs::SyncAll() {
  ARKFS_RETURN_IF_ERROR(cache_->FlushAll());
  std::vector<std::pair<Fd, OpenFile>> dirty;
  {
    std::lock_guard lock(fd_mu_);
    for (auto& [fd, of] : open_files_) {
      if (of.size_dirty) dirty.emplace_back(fd, of);
    }
  }
  for (auto& [fd, of] : dirty) {
    mds_->ChargeRequest(of.path);
    ARKFS_RETURN_IF_ERROR(
        mds_->CommitSize(of.path, of.size, WallClockSeconds(), of.cred));
  }
  std::lock_guard lock(fd_mu_);
  for (auto& [_, of] : open_files_) of.size_dirty = false;
  return Status::Ok();
}

Status CephLikeVfs::DropCaches() {
  ARKFS_RETURN_IF_ERROR(SyncAll());
  return cache_->DropAll();
}

VfsPtr CephLikeDeployment::KernelMount() const {
  return std::make_shared<CephLikeVfs>(mds, store,
                                       CephLikeConfig::KernelLike());
}

VfsPtr CephLikeDeployment::FuseMount(FuseSimConfig fuse) const {
  auto inner = std::make_shared<CephLikeVfs>(mds, store,
                                             CephLikeConfig::FuseLike());
  // libfuse caches positive directory lookups (entry_timeout, 1 s default),
  // so ancestor LOOKUPs mostly hit the client; only final-component lookups
  // reach the MDS. The probe reproduces that.
  struct DentryCache {
    std::mutex mu;
    std::unordered_map<std::string, TimePoint> dirs;
  };
  auto cache = std::make_shared<DentryCache>();
  auto probe = [inner, cache](const std::string& path,
                              const UserCred& cred) -> Status {
    constexpr Nanos kEntryTimeout = Seconds(1);
    {
      std::lock_guard lock(cache->mu);
      auto it = cache->dirs.find(path);
      if (it != cache->dirs.end() && it->second > Now()) return Status::Ok();
    }
    auto st = inner->Stat(path, cred);
    if (st.ok() && st->type == FileType::kDirectory) {
      std::lock_guard lock(cache->mu);
      cache->dirs[path] = Now() + kEntryTimeout;
    }
    return st.status();
  };
  return std::make_shared<FuseSim>(inner, fuse, probe);
}

}  // namespace arkfs::baselines
