// Wire protocol between ArkFS clients.
//
// Non-leaders forward directory operations to the directory leader (paper
// §III-B step 5: "C2 sends a CREATE operation to C1 and C1 performs the
// operation on behalf of C2"). All forwarded operations travel in one
// envelope (DirOpRequest / DirOpResponse) dispatched on an op code; the
// leader executes them against its metatable exactly as it executes local
// applications' operations.
//
// A second, tiny method ("arkfs.flush_file") implements the leader's cache
// flush broadcast for the read/write lease protocol (§III-D).
#pragma once

#include <string>
#include <vector>

#include "common/codec.h"
#include "common/fence.h"
#include "core/vfs.h"
#include "meta/dentry.h"
#include "meta/inode.h"

namespace arkfs::wire {

inline constexpr char kMethodDirOp[] = "arkfs.dir_op";
inline constexpr char kMethodFlushFile[] = "arkfs.flush_file";

enum class DirOp : std::uint8_t {
  kLookup = 0,        // name -> dentry (+ child inode, + dir inode for pcache)
  kCreate = 1,        // create regular file `name` with mode
  kMkdir = 2,
  kUnlink = 3,
  kRmdir = 4,         // remove child dir `name` (leader checks emptiness)
  kRenameLocal = 5,   // same-directory rename name -> name2
  kReadDir = 6,
  kGetAttrDir = 7,    // stat of the directory itself
  kGetAttrChild = 8,  // stat of child file `name`
  kSetAttrChild = 9,
  kSetAttrDir = 10,
  kSymlink = 11,      // symlink `name` -> target (in name2)
  kSetAclDir = 12,
  kSetAclChild = 13,
  kLeaseOpen = 14,    // read lease on child file (by ino)
  kLeaseUpgrade = 15, // read -> write lease
  kLeaseRelease = 16,
  kCommitSize = 17,   // writer pushes new size/mtime for child file `ino`
  kFlushDir = 18,     // lease-handoff flush request from the next leader
  kIsEmptyDir = 19,   // used by a remote parent running rmdir
  kDelegateFetch = 20,  // read delegate pulling a versioned metatable slice
  kCommitDir = 21,    // fsync/sync: commit the directory's running journal
                      // transaction at its leader
};

// Ops that change directory state (journaled metatable mutations). A
// lame-duck leader fences exactly these with kStale; reads and file-lease
// traffic keep flowing. Lease grants stay allowed: they reference existing
// state only and are rebuilt from scratch by a successor anyway.
inline bool IsMutation(DirOp op) {
  switch (op) {
    case DirOp::kCreate:
    case DirOp::kMkdir:
    case DirOp::kUnlink:
    case DirOp::kRmdir:
    case DirOp::kRenameLocal:
    case DirOp::kSetAttrChild:
    case DirOp::kSetAttrDir:
    case DirOp::kSymlink:
    case DirOp::kSetAclDir:
    case DirOp::kSetAclChild:
    case DirOp::kCommitSize:
      return true;
    default:
      return false;
  }
}

struct WireCred {
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::vector<std::uint32_t> groups;

  static WireCred From(const UserCred& c) { return {c.uid, c.gid, c.groups}; }
  UserCred ToCred() const { return UserCred{uid, gid, groups}; }
};

struct DirOpRequest {
  DirOp op = DirOp::kLookup;
  Uuid dir_ino;          // directory this op targets
  std::string name;      // primary name operand
  std::string name2;     // rename destination / symlink target
  Uuid child_ino;        // lease / commit-size / getattr-by-ino operands
  std::uint32_t mode = 0;
  bool exclusive = false;
  std::uint64_t size = 0;
  std::int64_t mtime_sec = 0;
  SetAttrRequest attr;
  Acl acl;
  WireCred cred;
  std::string client;    // requester's fabric address (lease bookkeeping)
  // Requester's trace context (obs::TraceContext, 0 = untraced); the serving
  // leader re-roots its handler span under it so one create/stat shows up as
  // one trace across hosts.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  // Requesting tenant (0 = untenanted), rides next to the trace context.
  // The serving leader uses it for admission control, fair queueing and
  // quota accounting.
  std::uint32_t tenant = 0;

  Bytes Encode() const;
  static Result<DirOpRequest> Decode(ByteSpan data);
};

// Returned directory metadata used by the permission cache: enough to do
// local exec-permission checks for path traversal.
struct DirMetaOut {
  bool valid = false;
  std::uint32_t mode = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  Acl acl;
};

struct DirOpResponse {
  // Status travels in-band so POSIX errors round-trip with their code.
  Errc code = Errc::kOk;
  std::string detail;

  bool has_dentry = false;
  Dentry dentry;
  bool has_inode = false;
  Inode inode;
  DirMetaOut dir_meta;
  std::vector<Dentry> entries;  // kReadDir
  bool lease_granted = false;   // kLeaseOpen / kLeaseUpgrade
  bool empty_dir = false;       // kIsEmptyDir

  // Read delegations. On kDelegateFetch: the slice's version stamp (the
  // leader's fencing token and journal watermark at read time; `entries`
  // carries the dentries, `child_inodes` the file inodes, has_inode+dir_meta
  // the directory itself).
  // On every other leader-served reply: the same stamp, piggybacked so a
  // delegate that forwarded an op learns immediately whether its slice is
  // behind. fence == {0,0} means "no stamp" (a non-leader path).
  FenceToken fence;
  std::uint64_t watermark = 0;
  std::vector<Inode> child_inodes;  // kDelegateFetch only

  Status ToStatus() const {
    return code == Errc::kOk ? Status::Ok() : Status(code, detail);
  }

  Bytes Encode() const;
  static Result<DirOpResponse> Decode(ByteSpan data);
};

struct FlushFileRequest {
  Uuid ino;

  Bytes Encode() const;
  static Result<FlushFileRequest> Decode(ByteSpan data);
};

}  // namespace arkfs::wire
