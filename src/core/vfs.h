// Vfs: the near-POSIX file-system interface.
//
// ArkFS and every baseline (CephFS-like, MarFS-like, S3FS-like, goofys-like)
// implement this interface, so workloads (mdtest, fio, tar) run unchanged on
// all of them — exactly how the paper's benchmarks treat the mounted file
// systems.
//
// Calls take an explicit UserCred (the FUSE daemon would extract this from
// the request context) and paths are absolute and normalized.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/fence.h"
#include "common/status.h"
#include "common/uuid.h"
#include "journal/group_commit.h"
#include "meta/acl.h"
#include "meta/dentry.h"
#include "meta/inode.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace arkfs {

struct StatResult {
  Uuid ino;
  FileType type = FileType::kRegular;
  std::uint32_t mode = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint32_t nlink = 0;
  std::uint64_t size = 0;
  std::int64_t atime_sec = 0;
  std::int64_t mtime_sec = 0;
  std::int64_t ctime_sec = 0;

  static StatResult FromInode(const Inode& inode);
};

struct OpenOptions {
  bool read = true;
  bool write = false;
  bool create = false;
  bool exclusive = false;  // O_EXCL (with create)
  bool truncate = false;
  bool append = false;
  std::uint32_t mode = 0644;  // for create
};

using Fd = int;

// Fields selectable in SetAttr.
enum SetAttrMask : std::uint32_t {
  kSetMode = 1u << 0,
  kSetUid = 1u << 1,
  kSetGid = 1u << 2,
  kSetSize = 1u << 3,
  kSetAtime = 1u << 4,
  kSetMtime = 1u << 5,
};

struct SetAttrRequest {
  std::uint32_t mask = 0;
  std::uint32_t mode = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t size = 0;
  std::int64_t atime_sec = 0;
  std::int64_t mtime_sec = 0;
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  virtual Result<Fd> Open(const std::string& path, const OpenOptions& options,
                          const UserCred& cred) = 0;
  virtual Status Close(Fd fd) = 0;

  virtual Result<Bytes> Read(Fd fd, std::uint64_t offset,
                             std::uint64_t length) = 0;
  virtual Result<std::uint64_t> Write(Fd fd, std::uint64_t offset,
                                      ByteSpan data) = 0;
  virtual Status Fsync(Fd fd) = 0;

  virtual Result<StatResult> Stat(const std::string& path,
                                  const UserCred& cred) = 0;
  virtual Status Mkdir(const std::string& path, std::uint32_t mode,
                       const UserCred& cred) = 0;
  virtual Status Rmdir(const std::string& path, const UserCred& cred) = 0;
  virtual Status Unlink(const std::string& path, const UserCred& cred) = 0;
  virtual Status Rename(const std::string& from, const std::string& to,
                        const UserCred& cred) = 0;
  virtual Result<std::vector<Dentry>> ReadDir(const std::string& path,
                                              const UserCred& cred) = 0;

  virtual Status SetAttr(const std::string& path, const SetAttrRequest& req,
                         const UserCred& cred) = 0;

  virtual Status Symlink(const std::string& target, const std::string& path,
                         const UserCred& cred) = 0;
  virtual Result<std::string> ReadLink(const std::string& path,
                                       const UserCred& cred) = 0;

  // ACL manipulation (near-POSIX extension; maps to {get,set}xattr of
  // system.posix_acl_access in a FUSE binding).
  virtual Status SetAcl(const std::string& path, const Acl& acl,
                        const UserCred& cred) = 0;
  virtual Result<Acl> GetAcl(const std::string& path, const UserCred& cred) = 0;

  // Flushes everything this client buffers (sync(2)).
  virtual Status SyncAll() = 0;

  // Flushes dirty state and discards all cached data (the benchmark suite's
  // equivalent of `echo 3 > /proc/sys/vm/drop_caches`). Default: no-op for
  // implementations without caches.
  virtual Status DropCaches() { return Status::Ok(); }

  // The journal state that is not a metric: the ack mode, the dirty
  // window's depth and the limits group mode enforces against it.
  struct JournalState {
    journal::DurabilityMode durability = journal::DurabilityMode::kAsync;
    journal::GroupWindow::Depth depth;
    journal::GroupWindowLimits limits;
  };
  // One held read delegation: the grant and the cached slice it serves.
  struct DelegationEntry {
    Uuid dir;
    std::string leader;
    FenceToken token;
    std::uint64_t leader_watermark = 0;
    std::optional<std::uint64_t> slice_watermark;  // nullopt = no slice
    std::uint64_t slice_entries = 0;
    TimePoint until{};
  };
  // One-stop observability hook, one typed record. `metrics` snapshots the
  // registry this implementation reports into (every tier.*, ec.scrub.*,
  // journal.*, client.deleg.* and tenant.* cell lives there); `spans` are
  // its recent trace spans, oldest first. Baselines without these planes
  // return the empty default. obs::FormatMetrics and
  // obs::Tracer::FormatText render the two generic parts as text.
  struct IntrospectReport {
    obs::MetricsSnapshot metrics;
    std::vector<obs::SpanRecord> spans;
    std::optional<JournalState> journal;  // nullopt without a journal
    std::vector<DelegationEntry> delegations;
  };
  virtual IntrospectReport Introspect() { return {}; }

  // --- convenience wrappers used by workloads/examples ---
  Status Chmod(const std::string& path, std::uint32_t mode,
               const UserCred& cred);
  Status Chown(const std::string& path, std::uint32_t uid, std::uint32_t gid,
               const UserCred& cred);
  Status Truncate(const std::string& path, std::uint64_t size,
                  const UserCred& cred);
  Status WriteFileAt(const std::string& path, ByteSpan data,
                     const UserCred& cred);
  Result<Bytes> ReadWholeFile(const std::string& path, const UserCred& cred);
  Status MkdirAll(const std::string& path, std::uint32_t mode,
                  const UserCred& cred);
};

using VfsPtr = std::shared_ptr<Vfs>;

}  // namespace arkfs
