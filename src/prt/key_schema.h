// Object key schema (paper §III-F).
//
// Every file-system artifact is an object whose key is a one-letter type
// prefix concatenated with the 128-bit inode UUID:
//
//   i<uuid>            inode record
//   e<uuid>            dentry block of directory <uuid> (legacy, unsharded)
//   e<uuid>.m          dentry manifest of directory <uuid> (sharded layout:
//                      shard count + live slot per shard + entry-count hint)
//   e<uuid>.<gg>.<ssss>.<t>
//                      slot <t> (0/1) of dentry shard <ssss> of a
//                      B=2^<gg>-way sharded directory (hex, zero-padded).
//                      The shard count is part of the key ("generation"), so
//                      growing a directory writes a fresh generation and
//                      flips the manifest atomically; the slot double-buffers
//                      each shard, so a steady-state checkpoint writes the
//                      INACTIVE slot and flips the manifest — a torn put can
//                      never corrupt the previous layout or shard contents.
//   j<uuid>            per-directory journal of directory <uuid>; a fenced
//                      directory's journal starts with a fence header (the
//                      highest lease fencing token accepted there) that
//                      every journal write is guarded on (§4.4)
//   f<uuid>            retired per-directory fence record (the fence now
//                      lives in the journal header): no longer written, but
//                      read as the fence floor while a directory's journal
//                      has no header, and deleted with the directory
//   d<uuid>.<index>    data chunk <index> of file <uuid> (16 hex digits,
//                      zero-padded so lexicographic order == numeric order)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/uuid.h"

namespace arkfs {

enum class KeyKind : char {
  kInode = 'i',
  kDentry = 'e',         // legacy unsharded dentry block
  kDentryManifest = 'm',
  kDentryShard = 's',
  kJournal = 'j',
  kFence = 'f',
  kData = 'd',
};

std::string InodeKey(const Uuid& ino);
std::string DentryKey(const Uuid& dir_ino);
std::string JournalKey(const Uuid& dir_ino);
std::string FenceKey(const Uuid& dir_ino);
std::string DataKey(const Uuid& ino, std::uint64_t chunk_index);

// Sharded dentry layout keys. `shard_count` must be a power of two in
// [1, kMaxDentryShards]; `shard` < `shard_count`; `slot` is 0 or 1.
std::string DentryManifestKey(const Uuid& dir_ino);
std::string DentryShardKey(const Uuid& dir_ino, std::uint32_t shard_count,
                           std::uint32_t shard, std::uint32_t slot);

// Prefix matching all data chunks of a file (for LIST/delete sweeps).
std::string DataKeyPrefix(const Uuid& ino);

// Prefix matching the manifest and every shard generation of a directory
// (NOT the legacy block, whose key has no '.'). Used for cleanup sweeps.
std::string DentryObjectPrefix(const Uuid& dir_ino);

// Which shard of a B-way sharded directory owns `name`. FNV-1a so placement
// is stable across runs and toolchains (the layout is persisted).
// `shard_count` must be a power of two.
std::uint32_t DentryShardOf(std::string_view name, std::uint32_t shard_count);

// Hard cap on the shard count the key format supports (two hex digits of
// generation go a lot further; this bounds bootstrap fan-out).
inline constexpr std::uint32_t kMaxDentryShards = 256;

constexpr bool IsPow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

struct ParsedKey {
  KeyKind kind;
  Uuid ino;
  std::uint64_t chunk_index = 0;          // data keys only
  std::uint32_t dentry_shard_count = 0;   // dentry shard keys only
  std::uint32_t dentry_shard = 0;         // dentry shard keys only
  std::uint32_t dentry_slot = 0;          // dentry shard keys only
};

Result<ParsedKey> ParseKey(const std::string& key);

}  // namespace arkfs
