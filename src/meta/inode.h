// Inode: the per-file/directory metadata record.
//
// ArkFS inode numbers are 128-bit UUIDs (paper §III-F); the inode itself is
// stored as an object under key "i<uuid>". Inodes carry full POSIX ownership
// and permission state, including an optional POSIX ACL — access control
// lists are one of the paper's explicit near-POSIX requirements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/status.h"
#include "common/uuid.h"
#include "meta/acl.h"

namespace arkfs {

enum class FileType : std::uint8_t {
  kRegular = 0,
  kDirectory = 1,
  kSymlink = 2,
};

// The root directory has a well-known inode number so any client can
// bootstrap without a name service.
inline constexpr Uuid kRootIno{0, 1};

struct Inode {
  Uuid ino;
  FileType type = FileType::kRegular;
  std::uint32_t mode = 0644;  // permission bits (rwxrwxrwx + suid/sgid/sticky)
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint32_t nlink = 1;
  std::uint64_t size = 0;
  std::int64_t atime_sec = 0;
  std::int64_t mtime_sec = 0;
  std::int64_t ctime_sec = 0;
  Uuid parent;                  // containing directory (kRootIno's is nil)
  std::uint64_t chunk_size = 0; // data chunking used for this file
  std::string symlink_target;   // only for kSymlink
  Acl acl;                      // empty = classic mode bits only
  std::uint64_t version = 0;    // bumped on every metadata mutation

  bool IsDir() const { return type == FileType::kDirectory; }
  bool IsSymlink() const { return type == FileType::kSymlink; }

  void EncodeTo(Encoder& enc) const;
  static Result<Inode> DecodeFrom(Decoder& dec);

  Bytes Encode() const;
  static Result<Inode> Decode(ByteSpan data);
};

// Constructs a fresh inode with current timestamps.
Inode MakeInode(Uuid ino, FileType type, std::uint32_t mode, std::uint32_t uid,
                std::uint32_t gid, Uuid parent);

// POSIX permission evaluation: classic mode bits when the inode has no ACL,
// the POSIX.1e algorithm (owner → named users → owning/named groups under
// mask → other) when it does. `want` is a kPermRead/Write/Exec bitmask.
// root (uid 0) bypasses read/write checks and needs any-exec-bit for exec.
Status CheckAccess(const Inode& inode, const UserCred& cred, std::uint8_t want);

// True if `cred` may modify inode attributes (owner or root).
bool IsOwnerOrRoot(const Inode& inode, const UserCred& cred);

}  // namespace arkfs
