#include "prt/key_schema.h"

#include <cstdio>

#include "common/codec.h"

namespace arkfs {
namespace {

std::string MakeKey(char prefix, const Uuid& ino) {
  std::string key;
  key.reserve(41);
  key.push_back(prefix);
  key += ino.ToString();
  return key;
}

int Log2Pow2(std::uint32_t v) {
  int g = 0;
  while ((1u << g) < v) ++g;
  return g;
}

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

std::string InodeKey(const Uuid& ino) { return MakeKey('i', ino); }
std::string DentryKey(const Uuid& dir_ino) { return MakeKey('e', dir_ino); }
std::string JournalKey(const Uuid& dir_ino) { return MakeKey('j', dir_ino); }
std::string FenceKey(const Uuid& dir_ino) { return MakeKey('f', dir_ino); }

std::string DataKey(const Uuid& ino, std::uint64_t chunk_index) {
  char suffix[20];
  std::snprintf(suffix, sizeof(suffix), ".%016llx",
                static_cast<unsigned long long>(chunk_index));
  return MakeKey('d', ino) + suffix;
}

std::string DataKeyPrefix(const Uuid& ino) { return MakeKey('d', ino) + "."; }

std::string DentryManifestKey(const Uuid& dir_ino) {
  return MakeKey('e', dir_ino) + ".m";
}

std::string DentryShardKey(const Uuid& dir_ino, std::uint32_t shard_count,
                           std::uint32_t shard, std::uint32_t slot) {
  char suffix[14];
  std::snprintf(suffix, sizeof(suffix), ".%02x.%04x.%x", Log2Pow2(shard_count),
                shard, slot & 1);
  return MakeKey('e', dir_ino) + suffix;
}

std::string DentryObjectPrefix(const Uuid& dir_ino) {
  return MakeKey('e', dir_ino) + ".";
}

std::uint32_t DentryShardOf(std::string_view name, std::uint32_t shard_count) {
  // FNV-1a 64. Placement is persisted in object keys, so this must never
  // change (std::hash has no such guarantee).
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<std::uint32_t>(h & (shard_count - 1));
}

Result<ParsedKey> ParseKey(const std::string& key) {
  if (key.size() < 33) return ErrStatus(Errc::kInval, "key too short");
  ParsedKey parsed;
  switch (key[0]) {
    case 'i': parsed.kind = KeyKind::kInode; break;
    case 'e': parsed.kind = KeyKind::kDentry; break;
    case 'j': parsed.kind = KeyKind::kJournal; break;
    case 'f': parsed.kind = KeyKind::kFence; break;
    case 'd': parsed.kind = KeyKind::kData; break;
    default: return ErrStatus(Errc::kInval, "unknown key prefix");
  }
  ARKFS_ASSIGN_OR_RETURN(parsed.ino, Uuid::FromString(key.substr(1, 32)));
  if (parsed.kind == KeyKind::kData) {
    if (key.size() != 33 + 17 || key[33] != '.') {
      return ErrStatus(Errc::kInval, "malformed data key");
    }
    std::uint64_t idx = 0;
    for (std::size_t i = 34; i < key.size(); ++i) {
      const int v = HexVal(key[i]);
      if (v < 0) return ErrStatus(Errc::kInval, "bad chunk index");
      idx = (idx << 4) | static_cast<std::uint64_t>(v);
    }
    parsed.chunk_index = idx;
    return parsed;
  }
  if (parsed.kind == KeyKind::kDentry && key.size() == 35 && key[33] == '.' &&
      key[34] == 'm') {
    parsed.kind = KeyKind::kDentryManifest;
    return parsed;
  }
  if (parsed.kind == KeyKind::kDentry && key.size() == 43 && key[33] == '.' &&
      key[36] == '.' && key[41] == '.') {
    std::uint32_t gen = 0, shard = 0;
    for (std::size_t i = 34; i < 36; ++i) {
      const int v = HexVal(key[i]);
      if (v < 0) return ErrStatus(Errc::kInval, "bad shard generation");
      gen = (gen << 4) | static_cast<std::uint32_t>(v);
    }
    // Bound the generation BEFORE shifting: `gen` comes from two arbitrary
    // hex digits (up to 255) and a shift count >= 32 is undefined behavior.
    constexpr std::uint32_t kMaxGen = 8;  // log2(kMaxDentryShards)
    static_assert((1u << kMaxGen) == kMaxDentryShards);
    if (gen > kMaxGen) {
      return ErrStatus(Errc::kInval, "shard generation out of range");
    }
    for (std::size_t i = 37; i < 41; ++i) {
      const int v = HexVal(key[i]);
      if (v < 0) return ErrStatus(Errc::kInval, "bad shard index");
      shard = (shard << 4) | static_cast<std::uint32_t>(v);
    }
    const int slot = HexVal(key[42]);
    if (slot != 0 && slot != 1) {
      return ErrStatus(Errc::kInval, "bad shard slot");
    }
    const std::uint32_t count = 1u << gen;
    if (shard >= count) {
      return ErrStatus(Errc::kInval, "shard out of range");
    }
    parsed.kind = KeyKind::kDentryShard;
    parsed.dentry_shard_count = count;
    parsed.dentry_shard = shard;
    parsed.dentry_slot = static_cast<std::uint32_t>(slot);
    return parsed;
  }
  if (key.size() != 33) {
    return ErrStatus(Errc::kInval, "trailing bytes in key");
  }
  return parsed;
}

namespace {
constexpr std::uint32_t kFormatMagic = 0x414B4653u;  // "AKFS"
}  // namespace

Bytes EncodeFormatStamp(std::uint32_t version) {
  Encoder enc;
  enc.PutU32(kFormatMagic);
  enc.PutU32(version);
  return std::move(enc).Take();
}

Result<std::uint32_t> DecodeFormatStamp(ByteSpan data) {
  Decoder dec(data);
  ARKFS_ASSIGN_OR_RETURN(const std::uint32_t magic, dec.GetU32());
  ARKFS_ASSIGN_OR_RETURN(const std::uint32_t version, dec.GetU32());
  if (magic != kFormatMagic || !dec.done()) {
    return ErrStatus(Errc::kInval, "not a format stamp");
  }
  return version;
}

}  // namespace arkfs
