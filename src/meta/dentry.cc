#include "meta/dentry.h"

#include "prt/key_schema.h"  // kMaxDentryShards (header-only constant)

namespace arkfs {

void Dentry::EncodeTo(Encoder& enc) const {
  enc.PutString(name);
  enc.PutUuid(ino);
  enc.PutU8(static_cast<std::uint8_t>(type));
}

Result<Dentry> Dentry::DecodeFrom(Decoder& dec) {
  Dentry d;
  ARKFS_ASSIGN_OR_RETURN(d.name, dec.GetString());
  ARKFS_ASSIGN_OR_RETURN(d.ino, dec.GetUuid());
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t type, dec.GetU8());
  if (type > static_cast<std::uint8_t>(FileType::kSymlink)) {
    return ErrStatus(Errc::kIo, "bad dentry type");
  }
  d.type = static_cast<FileType>(type);
  return d;
}

namespace {
constexpr std::uint8_t kManifestVersion = 2;
constexpr std::uint8_t kShardObjectVersion = 1;
}  // namespace

Bytes EncodeDentryShardObject(std::uint64_t epoch,
                              const std::vector<Dentry>& entries) {
  Encoder enc(entries.size() * 48 + 32);
  enc.PutU8(kShardObjectVersion);
  enc.PutVarint(epoch);
  enc.PutVarint(entries.size());
  for (const auto& d : entries) d.EncodeTo(enc);
  const std::uint32_t crc = Crc32c(enc.buffer());
  enc.PutU32(crc);
  return std::move(enc).Take();
}

Result<DentryShardData> DecodeDentryShardObject(ByteSpan data) {
  // CRC first: a torn put persists a strict prefix of the payload, which
  // must read as "undecodable", never as a shorter-but-valid shard.
  if (data.size() < 5) return ErrStatus(Errc::kIo, "shard object too short");
  const ByteSpan body = data.subspan(0, data.size() - 4);
  Decoder crc_dec(data.subspan(data.size() - 4));
  ARKFS_ASSIGN_OR_RETURN(std::uint32_t stored_crc, crc_dec.GetU32());
  if (Crc32c(body) != stored_crc) {
    return ErrStatus(Errc::kIo, "shard object CRC mismatch");
  }
  Decoder dec(body);
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t version, dec.GetU8());
  if (version != kShardObjectVersion) {
    return ErrStatus(Errc::kIo, "unknown dentry shard version");
  }
  DentryShardData shard;
  ARKFS_ASSIGN_OR_RETURN(shard.epoch, dec.GetVarint());
  ARKFS_ASSIGN_OR_RETURN(std::uint64_t n, dec.GetVarint());
  shard.entries.reserve(n < (1u << 20) ? n : 0);
  for (std::uint64_t i = 0; i < n; ++i) {
    ARKFS_ASSIGN_OR_RETURN(Dentry d, Dentry::DecodeFrom(dec));
    shard.entries.push_back(std::move(d));
  }
  return shard;
}

Bytes EncodeDentryManifest(const DentryManifest& m) {
  Encoder enc(16 + m.shard_count / 8);
  enc.PutU8(kManifestVersion);
  enc.PutVarint(m.shard_count);
  enc.PutVarint(m.entry_count);
  // Slot bitmap, one bit per shard (absent slots encode as slot 0).
  Bytes bits((m.shard_count + 7) / 8, 0);
  for (std::uint32_t s = 0; s < m.shard_count && s < m.slots.size(); ++s) {
    if (m.slots[s] & 1) bits[s / 8] |= static_cast<std::uint8_t>(1u << (s % 8));
  }
  enc.PutRaw(bits);
  return std::move(enc).Take();
}

Result<DentryManifest> DecodeDentryManifest(ByteSpan data) {
  Decoder dec(data);
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t version, dec.GetU8());
  if (version != kManifestVersion) {
    return ErrStatus(Errc::kIo, "unknown dentry manifest version");
  }
  DentryManifest m;
  ARKFS_ASSIGN_OR_RETURN(std::uint64_t count, dec.GetVarint());
  ARKFS_ASSIGN_OR_RETURN(m.entry_count, dec.GetVarint());
  m.shard_count = static_cast<std::uint32_t>(count);
  if (count == 0 || count > kMaxDentryShards ||
      (m.shard_count & (m.shard_count - 1)) != 0) {
    return ErrStatus(Errc::kIo, "bad dentry shard count");
  }
  Bytes bits((m.shard_count + 7) / 8, 0);
  ARKFS_RETURN_IF_ERROR(dec.GetRaw(bits));
  bool any = false;
  for (std::uint32_t s = 0; s < m.shard_count; ++s) {
    if (bits[s / 8] & (1u << (s % 8))) any = true;
  }
  // Canonical form: all-zero slots decode as the empty vector, so a
  // round-trip of a freshly laid-out manifest compares equal.
  if (any) {
    m.slots.resize(m.shard_count, 0);
    for (std::uint32_t s = 0; s < m.shard_count; ++s) {
      m.slots[s] = (bits[s / 8] >> (s % 8)) & 1;
    }
  }
  return m;
}

Status ValidateName(const std::string& name) {
  if (name.empty()) return ErrStatus(Errc::kInval, "empty name");
  if (name.size() > kNameMax) return ErrStatus(Errc::kNameTooLong, name);
  if (name == "." || name == "..") return ErrStatus(Errc::kInval, name);
  for (char c : name) {
    if (c == '/' || c == '\0') return ErrStatus(Errc::kInval, "bad char in name");
  }
  return Status::Ok();
}

}  // namespace arkfs
