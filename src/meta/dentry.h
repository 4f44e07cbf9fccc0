// Directory entries.
//
// A directory's entries are hash-partitioned across B power-of-two shard
// objects, each double-buffered across two slot objects
// ("e<uuid>.<gen>.<shard>.<slot>"), with a tiny manifest ("e<uuid>.m")
// naming the live shard count, the live slot of every shard, and an
// entry-count hint. Checkpoints rewrite only the shards a transaction batch
// actually touched — and always into the shard's INACTIVE slot, so a torn
// put can never destroy the previous shard contents. The manifest flip
// (ordered after the shard batch) is the commit point; a directory with no
// manifest has never been checkpointed and is empty.
//
// Between checkpoints, mutations live in the per-directory journal. The
// manifest is written only by the directory's own checkpoint path (single
// writer under the checkpoint lock), so it is the layout authority.
#pragma once

#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "common/uuid.h"
#include "meta/inode.h"

namespace arkfs {

struct Dentry {
  std::string name;
  Uuid ino;
  FileType type = FileType::kRegular;

  void EncodeTo(Encoder& enc) const;
  static Result<Dentry> DecodeFrom(Decoder& dec);

  friend bool operator==(const Dentry&, const Dentry&) = default;
};

// One shard object's payload: the entries plus a per-shard write epoch.
// The epoch increments on every rewrite of the shard and is the tiebreak a
// torn-manifest recovery uses to pick the newer of a shard's two slots.
// The encoding carries a trailing CRC32C so a torn (prefix-only) put is
// reliably undecodable rather than silently misread.
struct DentryShardData {
  std::uint64_t epoch = 0;
  std::vector<Dentry> entries;

  friend bool operator==(const DentryShardData&, const DentryShardData&) =
      default;
};

Bytes EncodeDentryShardObject(std::uint64_t epoch,
                              const std::vector<Dentry>& entries);
Result<DentryShardData> DecodeDentryShardObject(ByteSpan data);

// Manifest of a sharded directory: the live shard count, the live slot of
// every shard (checkpoints double-buffer each shard across two slot
// objects), and a persisted entry-count hint used to decide when to grow
// the shard set. The hint may drift slightly after a torn checkpoint (it is
// corrected on the next full load); `shard_count` and `slots` are exact by
// construction — the manifest put is the checkpoint's commit point.
struct DentryManifest {
  std::uint32_t shard_count = 1;  // power of two
  std::uint64_t entry_count = 0;  // size hint, not authoritative
  // slots[s] = live slot (0/1) of shard s. Empty means "all slot 0" (the
  // state right after a first checkpoint or a reshard, which writes slot 0
  // throughout).
  std::vector<std::uint8_t> slots;

  std::uint8_t SlotOf(std::uint32_t shard) const {
    return shard < slots.size() ? (slots[shard] & 1) : 0;
  }
  void SetSlot(std::uint32_t shard, std::uint8_t slot) {
    if (slots.size() < shard_count) slots.resize(shard_count, 0);
    slots[shard] = slot & 1;
  }

  friend bool operator==(const DentryManifest&, const DentryManifest&) =
      default;
};

Bytes EncodeDentryManifest(const DentryManifest& m);
Result<DentryManifest> DecodeDentryManifest(ByteSpan data);

// POSIX component-name validation: nonempty, no '/', no NUL, not "."/"..",
// and within NAME_MAX.
Status ValidateName(const std::string& name);

inline constexpr std::size_t kNameMax = 255;

}  // namespace arkfs
