// Object key schema (paper §III-F).
//
// Every file-system artifact is an object whose key is a one-letter type
// prefix concatenated with the 128-bit inode UUID:
//
//   i<uuid>            inode record
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
//   j<uuid>            per-directory journal of directory <uuid>; it starts
//                      with a fence header (the highest lease fencing token
//                      accepted there) that every journal write is guarded
//                      on (§4.4)
//   d<uuid>.<index>    data chunk <index> of file <uuid> (16 hex digits,
//                      zero-padded so lexicographic order == numeric order)
//   sys.format         format stamp (magic + version), written by Format and
//                      checked once at mount; an image without a stamp of
//                      kFormatVersion does not mount
//
// Reserved: e<uuid> (the unsharded dentry block) and f<uuid> (the separate
// fence record) name objects of earlier formats. Nothing reads or writes
// them; the names stay parseable so tools can classify a stray one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"
#include "common/uuid.h"

namespace arkfs {

enum class KeyKind : char {
  kInode = 'i',
  kDentry = 'e',         // reserved: e<uuid>, read and written by nothing
  kDentryManifest = 'm',
  kDentryShard = 's',
  kJournal = 'j',
  kFence = 'f',          // reserved: f<uuid>, read and written by nothing
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
// (not the reserved e<uuid>, whose key has no '.'). Used for cleanup sweeps.
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

// The one on-store format this build reads and writes.
inline constexpr char kFormatKey[] = "sys.format";
inline constexpr std::uint32_t kFormatVersion = 1;

// Format stamp codec: magic + version. Decode is strict — a torn, padded or
// foreign object fails; it never reads as some version.
Bytes EncodeFormatStamp(std::uint32_t version);
Result<std::uint32_t> DecodeFormatStamp(ByteSpan data);

}  // namespace arkfs
