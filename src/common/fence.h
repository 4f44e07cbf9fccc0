// Fencing tokens for lease-manager HA (extends paper §III-B, which runs a
// single lease manager and defers a manager cluster to future work).
//
// A FenceToken orders every lease grant globally: `epoch` is the lease
// manager's fencing epoch (bumped whenever a standby takes over, or when a
// manager restarts) and `seq` is the per-epoch grant sequence number. The
// journal layer persists the highest token it has accepted per directory as
// a header at offset 0 of the directory's journal object ("j<uuid>") and
// stamps every committed transaction frame with the committing leader's
// token. Every journal write is a guarded store write (object_store.h,
// WriteGuard: a RADOS cmpext / an S3 If-Match PUT) that lands only while
// the header still holds the writer's token, so a leader holding a grant
// from a deposed epoch is rejected at the store (kStale) inside its one
// write — split brain is resolved at commit time, not by manager consensus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "common/codec.h"
#include "common/status.h"

namespace arkfs {

struct FenceToken {
  std::uint64_t epoch = 0;  // 0 = "no token" (never granted)
  std::uint64_t seq = 0;    // grant sequence within the epoch

  bool valid() const { return epoch != 0; }

  friend bool operator==(const FenceToken& a, const FenceToken& b) {
    return a.epoch == b.epoch && a.seq == b.seq;
  }
  friend bool operator!=(const FenceToken& a, const FenceToken& b) {
    return !(a == b);
  }
  friend bool operator<(const FenceToken& a, const FenceToken& b) {
    if (a.epoch != b.epoch) return a.epoch < b.epoch;
    return a.seq < b.seq;
  }
  friend bool operator<=(const FenceToken& a, const FenceToken& b) {
    return !(b < a);
  }
  friend bool operator>(const FenceToken& a, const FenceToken& b) {
    return b < a;
  }
  friend bool operator>=(const FenceToken& a, const FenceToken& b) {
    return !(a < b);
  }

  std::string ToString() const {
    return "e" + std::to_string(epoch) + "." + std::to_string(seq);
  }
};

// Fence header codec (the first kFenceObjectBytes of every journal
// object): magic + epoch + seq + CRC32C. Decode is strict — a torn or
// corrupt header must fail loudly, never silently read as "no fence".
inline constexpr std::uint32_t kFenceMagic = 0x414B464Eu;  // "AKFN"
inline constexpr std::size_t kFenceObjectBytes = 24;

inline Bytes EncodeFenceObject(const FenceToken& token) {
  Encoder enc;
  enc.PutU32(kFenceMagic);
  enc.PutU64(token.epoch);
  enc.PutU64(token.seq);
  enc.PutU32(Crc32c(ByteSpan(enc.buffer().data() + 4, 16)));
  return std::move(enc).Take();
}

inline Result<FenceToken> DecodeFenceObject(ByteSpan data) {
  Decoder dec(data);
  ARKFS_ASSIGN_OR_RETURN(const std::uint32_t magic, dec.GetU32());
  if (magic != kFenceMagic) {
    return ErrStatus(Errc::kInval, "bad fence object magic");
  }
  FenceToken token;
  ARKFS_ASSIGN_OR_RETURN(token.epoch, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(token.seq, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(const std::uint32_t crc, dec.GetU32());
  if (crc != Crc32c(ByteSpan(data.data() + 4, 16))) {
    return ErrStatus(Errc::kIo, "fence object CRC mismatch");
  }
  if (!dec.done()) {
    return ErrStatus(Errc::kInval, "trailing bytes in fence object");
  }
  return token;
}

}  // namespace arkfs
