#include "objstore/ec_store.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <unordered_set>

#include "objstore/cluster_store.h"

namespace arkfs {
namespace {

constexpr char kHex[] = "0123456789abcdef";

void AppendHex(std::string* out, std::uint64_t v, int digits) {
  for (int i = digits - 1; i >= 0; --i) {
    out->push_back(kHex[(v >> (4 * i)) & 0xF]);
  }
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

bool ParseHex(std::string_view s, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (char c : s) {
    const int nib = HexNibble(c);
    if (nib < 0) return false;
    v = (v << 4) | static_cast<std::uint64_t>(nib);
  }
  *out = v;
  return true;
}

// Salts probed per shard / manifest copy before settling for a repeated
// node (placement permitting, they land on pairwise-distinct primaries).
// A salt is one byte, so this stays at most 256.
constexpr int kPlacementProbes = 64;

// FNV-1a over the key, salted — used for stripe ids and the manifest-salt
// derivation so both are deterministic per key without touching the clock.
std::uint64_t KeyHash(const std::string& key, std::uint64_t salt) {
  std::uint64_t h = 1469598103934665603ull ^ salt;
  for (char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Runtime validation of the stripe geometry (an assert would compile out of
// release builds and leave ManifestSalts writing past its 16-entry array):
// the 1-hex manifest copy digit caps m at 15; the 2-hex shard index and
// GF(2^8) cap k + m at 255.
EcStoreOptions SanitizeEcOptions(EcStoreOptions o) {
  o.m = std::clamp(o.m, 0, 15);
  o.k = std::clamp(o.k, 1, 255 - o.m);
  return o;
}

}  // namespace

// --- persisted formats -----------------------------------------------------

Bytes EncodeStripeManifest(const StripeManifest& m) {
  Encoder enc(64 + m.shards.size() * 8);
  enc.PutU32(kEcManifestMagic);
  enc.PutU8(kEcFormatVersion);
  enc.PutU8(m.k);
  enc.PutU8(m.m);
  enc.PutU64(m.object_size);
  enc.PutU64(m.gen);
  enc.PutU64(m.stripe_id);
  enc.PutVarint(m.shards.size());
  for (const auto& s : m.shards) {
    enc.PutU8(s.salt);
    enc.PutU32(s.crc);
  }
  enc.PutU32(Crc32c(enc.buffer()));
  return std::move(enc).Take();
}

Result<StripeManifest> DecodeStripeManifest(ByteSpan data) {
  if (data.size() < 4) {
    return ErrStatus(Errc::kIo, "ec manifest: truncated");
  }
  const std::uint32_t expect = Crc32c(data.subspan(0, data.size() - 4));
  Decoder dec(data);
  ARKFS_ASSIGN_OR_RETURN(const auto magic, dec.GetU32());
  if (magic != kEcManifestMagic) {
    return ErrStatus(Errc::kIo, "ec manifest: bad magic");
  }
  ARKFS_ASSIGN_OR_RETURN(const auto version, dec.GetU8());
  if (version != kEcFormatVersion) {
    return ErrStatus(Errc::kIo, "ec manifest: unsupported version");
  }
  StripeManifest m;
  ARKFS_ASSIGN_OR_RETURN(m.k, dec.GetU8());
  ARKFS_ASSIGN_OR_RETURN(m.m, dec.GetU8());
  ARKFS_ASSIGN_OR_RETURN(m.object_size, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(m.gen, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(m.stripe_id, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(const auto count, dec.GetVarint());
  // m <= 15: the bound every writer obeys (SanitizeEcOptions) — a larger m
  // is not a format we ever produced, and accepting one would walk decoders
  // past the 16-entry manifest-salt array.
  if (m.k == 0 || m.m > 15 || count != static_cast<std::uint64_t>(m.k) + m.m ||
      count > 256) {
    return ErrStatus(Errc::kIo, "ec manifest: bad shard count");
  }
  m.shards.resize(count);
  for (auto& s : m.shards) {
    ARKFS_ASSIGN_OR_RETURN(s.salt, dec.GetU8());
    ARKFS_ASSIGN_OR_RETURN(s.crc, dec.GetU32());
  }
  ARKFS_ASSIGN_OR_RETURN(const auto crc, dec.GetU32());
  if (crc != expect) return ErrStatus(Errc::kIo, "ec manifest: bad crc");
  if (!dec.done()) {
    return ErrStatus(Errc::kIo, "ec manifest: trailing garbage");
  }
  return m;
}

Bytes EncodeShardObject(const EcShardHeader& header, ByteSpan payload) {
  Encoder enc(32 + payload.size());
  enc.PutU32(kEcShardMagic);
  enc.PutU8(kEcFormatVersion);
  enc.PutU8(header.index);
  enc.PutU64(header.gen);
  enc.PutU64(header.stripe_id);
  enc.PutU32(header.payload_crc);
  enc.PutU64(payload.size());
  enc.PutU32(Crc32c(enc.buffer()));  // header CRC: gates the length field
  enc.PutRaw(payload);
  return std::move(enc).Take();
}

Result<EcShardObject> DecodeShardObject(ByteSpan data) {
  Decoder dec(data);
  ARKFS_ASSIGN_OR_RETURN(const auto magic, dec.GetU32());
  if (magic != kEcShardMagic) {
    return ErrStatus(Errc::kIo, "ec shard: bad magic");
  }
  ARKFS_ASSIGN_OR_RETURN(const auto version, dec.GetU8());
  if (version != kEcFormatVersion) {
    return ErrStatus(Errc::kIo, "ec shard: unsupported version");
  }
  EcShardObject out;
  ARKFS_ASSIGN_OR_RETURN(out.header.index, dec.GetU8());
  ARKFS_ASSIGN_OR_RETURN(out.header.gen, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(out.header.stripe_id, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(out.header.payload_crc, dec.GetU32());
  ARKFS_ASSIGN_OR_RETURN(const auto payload_len, dec.GetU64());
  const std::size_t header_len = dec.pos();
  const std::uint32_t expect = Crc32c(data.subspan(0, header_len));
  ARKFS_ASSIGN_OR_RETURN(const auto header_crc, dec.GetU32());
  if (header_crc != expect) {
    return ErrStatus(Errc::kIo, "ec shard: bad header crc");
  }
  if (dec.remaining() != payload_len) {
    return ErrStatus(Errc::kIo, "ec shard: payload length mismatch");
  }
  out.payload.resize(payload_len);
  ARKFS_RETURN_IF_ERROR(dec.GetRaw(out.payload));
  if (Crc32c(out.payload) != out.header.payload_crc) {
    return ErrStatus(Errc::kIo, "ec shard: bad payload crc");
  }
  return out;
}

// --- key scheme ------------------------------------------------------------

// Internal keys live under the reserved "..ec" sentinel (ec_store.h layout
// comment). Encodes() refuses logical keys containing the sentinel, so a
// key that classifies as manifest/shard is always one EcStore wrote — a
// plain suffix like ".ecm" would let an unlucky logical key masquerade as
// an internal object (misfolded by List, swept by Delete).
std::string EcManifestKey(const std::string& key, int copy,
                          std::uint8_t salt) {
  std::string k = key + "..ecm";
  AppendHex(&k, static_cast<std::uint64_t>(copy), 1);
  AppendHex(&k, salt, 2);
  return k;
}

std::string EcShardKey(const std::string& key, int index, std::uint8_t salt,
                       std::uint64_t gen) {
  std::string k = key + "..ecs";
  AppendHex(&k, static_cast<std::uint64_t>(index), 2);
  AppendHex(&k, salt, 2);
  k += ".g";
  AppendHex(&k, gen, 8);
  return k;
}

EcKeyKind ClassifyEcKey(const std::string& raw, std::string* logical,
                        std::uint64_t* gen) {
  // Shard: "<key>..ecs" + 4 hex + ".g" + 8 hex  (19-char suffix).
  if (raw.size() > 19) {
    const std::size_t base = raw.size() - 19;
    std::uint64_t idx_salt = 0, g = 0;
    if (raw.compare(base, 5, "..ecs") == 0 &&
        ParseHex({raw.data() + base + 5, 4}, &idx_salt) &&
        raw.compare(base + 9, 2, ".g") == 0 &&
        ParseHex({raw.data() + base + 11, 8}, &g)) {
      if (logical) *logical = raw.substr(0, base);
      if (gen) *gen = g;
      return EcKeyKind::kShard;
    }
  }
  // Manifest copy: "<key>..ecm" + 3 hex  (8-char suffix).
  if (raw.size() > 8) {
    const std::size_t base = raw.size() - 8;
    std::uint64_t v = 0;
    if (raw.compare(base, 5, "..ecm") == 0 &&
        ParseHex({raw.data() + base + 5, 3}, &v)) {
      if (logical) *logical = raw.substr(0, base);
      return EcKeyKind::kManifest;
    }
  }
  if (logical) *logical = raw;
  return EcKeyKind::kLogical;
}

std::function<int(const std::string&)> ClusterPrimaryPlacement(
    const ObjectStorePtr& stack) {
  ObjectStorePtr cur = stack;
  while (cur) {
    if (auto* cluster = dynamic_cast<ClusterObjectStore*>(cur.get())) {
      // The closure keeps the store (and thus the cluster) alive.
      return [cur, cluster](const std::string& key) {
        return cluster->ReplicaNodes(key).front();
      };
    }
    auto* decorator = dynamic_cast<StoreDecorator*>(cur.get());
    if (!decorator) break;
    cur = decorator->inner();
  }
  return nullptr;
}

// --- EcStore ---------------------------------------------------------------

EcStore::EcStore(ObjectStorePtr base, EcStoreOptions options)
    : StoreDecorator(std::move(base)),
      options_(SanitizeEcOptions(std::move(options))),
      codec_(options_.k, options_.m) {
  async_ = std::make_shared<AsyncObjectIo>(StoreDecorator::inner(),
                                           options_.async);
  encodes_.Attach(options_.metrics, "ec.encodes");
  degraded_reads_.Attach(options_.metrics, "ec.degraded_reads");
  reconstructs_.Attach(options_.metrics, "ec.reconstructs");
  read_corrupt_.Attach(options_.metrics, "ec.read.corrupt");
}

EcStore::~EcStore() = default;

std::string EcStore::name() const {
  return "ec(k" + std::to_string(options_.k) + "m" +
         std::to_string(options_.m) + ")/" + StoreDecorator::name();
}

bool EcStore::Encodes(const std::string& key) const {
  // The "..ec" namespace is reserved for internal objects. Refusing every
  // key containing the sentinel (not just exact grammar matches) keeps the
  // classifier unambiguous: a stored manifest/shard key can only have been
  // written by EcStore, and our own internal objects are never re-encoded
  // (a should_encode predicate that matches them would otherwise recurse
  // via base puts done through `this` in tests that stack EcStore twice).
  if (key.find("..ec") != std::string::npos) return false;
  return !options_.should_encode || options_.should_encode(key);
}

EcStore::Counters EcStore::counters() const {
  return Counters{encodes_.value(), degraded_reads_.value(),
                  reconstructs_.value(), read_corrupt_.value()};
}

std::array<std::uint8_t, 16> EcStore::ManifestSalts(
    const std::string& key) const {
  std::array<std::uint8_t, 16> salts{};
  if (!options_.placement) return salts;  // all zero: hash placement only
  std::set<int> used;
  for (int copy = 0; copy <= options_.m; ++copy) {
    std::uint8_t pick = 0;
    for (int salt = 0; salt < kPlacementProbes; ++salt) {
      const int node = options_.placement(
          EcManifestKey(key, copy, static_cast<std::uint8_t>(salt)));
      if (used.insert(node).second) {
        pick = static_cast<std::uint8_t>(salt);
        break;
      }
    }
    salts[static_cast<std::size_t>(copy)] = pick;
  }
  return salts;
}

Result<EcStore::LoadedManifest> EcStore::LoadManifestInternal(
    const std::string& key, int* copies_bad, int* copies_missing,
    int* copies_unreachable) const {
  const auto salts = ManifestSalts(key);
  const bool counting = copies_bad || copies_missing || copies_unreachable;
  bool all_noent = true;
  Status first_err = Status::Ok();
  std::optional<LoadedManifest> loaded;
  for (int copy = 0; copy <= options_.m; ++copy) {
    auto mkey =
        EcManifestKey(key, copy, salts[static_cast<std::size_t>(copy)]);
    auto raw = StoreDecorator::inner()->Get(mkey);
    if (!raw.ok()) {
      if (raw.status().code() != Errc::kNoEnt) {
        // Node down ≠ the copy is gone: count it unreachable, not missing.
        all_noent = false;
        if (first_err.ok()) first_err = raw.status();
        if (copies_unreachable) ++*copies_unreachable;
      } else if (copies_missing) {
        ++*copies_missing;
      }
      continue;
    }
    all_noent = false;
    auto decoded = DecodeStripeManifest(*raw);
    if (!decoded.ok()) {
      if (copies_bad) ++*copies_bad;
      if (first_err.ok()) first_err = decoded.status();
      continue;
    }
    if (!loaded) {
      loaded = LoadedManifest{std::move(*decoded), std::move(mkey)};
      // Keep scanning only when the caller wants copy-health counts.
      if (!counting) break;
    } else if (decoded->gen != loaded->manifest.gen && copies_bad) {
      // A copy stuck at an older generation is repairable, not healthy.
      ++*copies_bad;
    }
  }
  if (loaded) return *loaded;
  // The derived salts come from the placement closure, i.e. the current
  // cluster topology. If ring membership changed since the write, every
  // existing copy lives at a key we can no longer derive — List the
  // reserved manifest namespace and try every copy actually present before
  // concluding the key is not EC-placed (highest generation wins, so a
  // stale copy stranded by an old overwrite can never shadow the live
  // stripe). Only read misses pay for the List; the healthy path never
  // gets here.
  if (auto listed = StoreDecorator::inner()->List(key + "..ecm");
      listed.ok()) {
    for (const auto& rkey : *listed) {
      std::string logical;
      if (ClassifyEcKey(rkey, &logical) != EcKeyKind::kManifest ||
          logical != key) {
        continue;
      }
      auto raw = StoreDecorator::inner()->Get(rkey);
      if (!raw.ok()) continue;
      auto decoded = DecodeStripeManifest(*raw);
      if (!decoded.ok()) continue;
      if (!loaded || decoded->gen > loaded->manifest.gen) {
        loaded = LoadedManifest{std::move(*decoded), rkey};
      }
    }
  }
  if (loaded) return *loaded;
  if (all_noent) return ErrStatus(Errc::kNoEnt, "no ec manifest: " + key);
  if (!first_err.ok()) return first_err;
  return ErrStatus(Errc::kIo, "ec manifest unreadable: " + key);
}

Result<StripeManifest> EcStore::LoadManifest(const std::string& key,
                                             int* copies_bad) {
  ARKFS_ASSIGN_OR_RETURN(
      auto loaded, LoadManifestInternal(key, copies_bad, nullptr, nullptr));
  return loaded.manifest;
}

Result<Bytes> EcStore::FetchShard(const std::string& key,
                                  const StripeManifest& m, int index) const {
  const auto& info = m.shards[static_cast<std::size_t>(index)];
  ARKFS_ASSIGN_OR_RETURN(
      const auto raw,
      StoreDecorator::inner()->Get(EcShardKey(key, index, info.salt, m.gen)));
  ARKFS_ASSIGN_OR_RETURN(auto shard, DecodeShardObject(raw));
  if (shard.header.index != index || shard.header.gen != m.gen ||
      shard.header.stripe_id != m.stripe_id ||
      shard.header.payload_crc != info.crc ||
      shard.payload.size() != m.shard_size()) {
    return ErrStatus(Errc::kIo, "ec shard: stripe mismatch");
  }
  return std::move(shard.payload);
}

Result<Bytes> EcStore::ReadStripe(const std::string& key,
                                  const StripeManifest& m,
                                  std::uint64_t offset, std::uint64_t length) {
  // REST Range semantics: clamp to the object.
  if (offset >= m.object_size) return Bytes{};
  length = std::min(length, m.object_size - offset);
  if (length == 0) return Bytes{};
  const std::uint64_t shard_size = m.shard_size();
  const int k = m.k;
  const int n = m.k + m.m;
  const int first = static_cast<int>(offset / shard_size);
  const int last = static_cast<int>((offset + length - 1) / shard_size);
  // "ec.read.corrupt" counts distinct corrupt shards per logical read: one
  // rotted shard seen again by every degraded refetch attempt (and by the
  // healthy pass before them) is still one corruption event.
  std::vector<bool> corrupt_counted(static_cast<std::size_t>(n), false);
  const auto count_corrupt = [&](int index) {
    if (!corrupt_counted[static_cast<std::size_t>(index)]) {
      corrupt_counted[static_cast<std::size_t>(index)] = true;
      read_corrupt_.Add();
    }
  };

  // Healthy path: fetch only the covering data shards, in one batch.
  std::vector<BatchGet> gets;
  for (int i = first; i <= last; ++i) {
    gets.push_back(BatchGet{
        EcShardKey(key, i, m.shards[static_cast<std::size_t>(i)].salt, m.gen),
        false, 0, 0});
  }
  auto batch = async_->MultiGet(std::move(gets));
  std::vector<Bytes> data(static_cast<std::size_t>(last - first + 1));
  bool healthy = true;
  for (int i = first; i <= last && healthy; ++i) {
    auto& raw = batch.results[static_cast<std::size_t>(i - first)];
    if (!raw.ok()) {
      healthy = false;
      break;
    }
    auto shard = DecodeShardObject(*raw);
    if (!shard.ok() || shard->header.index != i ||
        shard->header.gen != m.gen ||
        shard->header.stripe_id != m.stripe_id ||
        shard->header.payload_crc !=
            m.shards[static_cast<std::size_t>(i)].crc ||
        shard->payload.size() != shard_size) {
      // Present but wrong: corruption, never silently served.
      if (raw.ok() && shard.status().code() != Errc::kNoEnt) {
        count_corrupt(i);
      }
      healthy = false;
      break;
    }
    data[static_cast<std::size_t>(i - first)] = std::move(shard->payload);
  }

  if (!healthy) {
    // Degraded path: fetch everything, keep any k valid shards, decode.
    // A CRC mismatch is not proof of rot at rest — it can be transient read
    // corruption that a re-fetch returns clean — and a maximally degraded
    // stripe (m shards unreachable) has no spare shard to absorb one, so
    // the fetch is retried a few times before the read is declared lost.
    degraded_reads_.Add();
    std::vector<int> present;
    std::vector<Bytes> payloads;
    for (int attempt = 0; attempt < 4; ++attempt) {
      present.clear();
      payloads.clear();
      std::vector<BatchGet> all;
      for (int i = 0; i < n; ++i) {
        all.push_back(BatchGet{
            EcShardKey(key, i, m.shards[static_cast<std::size_t>(i)].salt,
                       m.gen),
            false, 0, 0});
      }
      auto full = async_->MultiGet(std::move(all));
      for (int i = 0; i < n; ++i) {
        auto& raw = full.results[static_cast<std::size_t>(i)];
        if (!raw.ok()) continue;
        auto shard = DecodeShardObject(*raw);
        if (!shard.ok() || shard->header.index != i ||
            shard->header.gen != m.gen ||
            shard->header.stripe_id != m.stripe_id ||
            shard->header.payload_crc !=
                m.shards[static_cast<std::size_t>(i)].crc ||
            shard->payload.size() != shard_size) {
          count_corrupt(i);
          continue;
        }
        if (static_cast<int>(present.size()) < k) {
          present.push_back(i);
          payloads.push_back(std::move(shard->payload));
        }
      }
      if (static_cast<int>(present.size()) >= k) break;
    }
    if (static_cast<int>(present.size()) < k) {
      return ErrStatus(Errc::kIo, "ec: fewer than k readable shards: " + key);
    }
    std::vector<ByteSpan> spans(payloads.begin(), payloads.end());
    std::vector<Bytes> recovered;
    ec::RsCodec codec(m.k, m.m);
    ARKFS_RETURN_IF_ERROR(codec.RecoverData(present, spans, &recovered));
    reconstructs_.Add();
    for (int i = first; i <= last; ++i) {
      data[static_cast<std::size_t>(i - first)] =
          std::move(recovered[static_cast<std::size_t>(i)]);
    }
  }

  Bytes out;
  out.reserve(length);
  for (int i = first; i <= last; ++i) {
    const std::uint64_t shard_lo = static_cast<std::uint64_t>(i) * shard_size;
    const std::uint64_t lo = std::max(offset, shard_lo);
    const std::uint64_t hi = std::min(offset + length, shard_lo + shard_size);
    const auto& payload = data[static_cast<std::size_t>(i - first)];
    out.insert(out.end(), payload.begin() + (lo - shard_lo),
               payload.begin() + (hi - shard_lo));
  }
  return out;
}

Result<Bytes> EcStore::Get(const std::string& key) {
  if (!Encodes(key)) return StoreDecorator::Get(key);
  auto manifest = LoadManifest(key);
  if (!manifest.ok()) {
    // kNoEnt: not EC-placed (legacy replica object, or truly absent) —
    // forward. Other errors: manifest copies unreachable; still give the
    // base object a chance before reporting (a replica-placed key written
    // before the placement flip must stay readable).
    auto fallback = StoreDecorator::Get(key);
    if (fallback.ok() || manifest.status().code() == Errc::kNoEnt) {
      return fallback;
    }
    return manifest.status();
  }
  auto data = ReadStripe(key, *manifest, 0, manifest->object_size);
  if (data.ok() || manifest->object_size == 0) return data;
  // A concurrent overwrite may have swept this generation's shards between
  // our manifest load and the shard reads; retry once against a fresh
  // manifest before giving up.
  auto again = LoadManifest(key);
  if (again.ok() && again->gen != manifest->gen) {
    return ReadStripe(key, *again, 0, again->object_size);
  }
  return data;
}

Result<Bytes> EcStore::GetRange(const std::string& key, std::uint64_t offset,
                                std::uint64_t length) {
  if (!Encodes(key)) return StoreDecorator::GetRange(key, offset, length);
  auto manifest = LoadManifest(key);
  if (!manifest.ok()) {
    auto fallback = StoreDecorator::GetRange(key, offset, length);
    if (fallback.ok() || manifest.status().code() == Errc::kNoEnt) {
      return fallback;
    }
    return manifest.status();
  }
  auto data = ReadStripe(key, *manifest, offset, length);
  if (data.ok()) return data;
  auto again = LoadManifest(key);
  if (again.ok() && again->gen != manifest->gen) {
    return ReadStripe(key, *again, offset, length);
  }
  return data;
}

Status EcStore::Put(const std::string& key, ByteSpan data) {
  if (!Encodes(key)) return StoreDecorator::Put(key, data);
  std::lock_guard<std::mutex> lock(KeyLock(key));

  std::uint64_t old_gen = 0;
  std::vector<EcShardInfo> old_shards;
  if (auto old_manifest = LoadManifest(key); old_manifest.ok()) {
    old_gen = old_manifest->gen;
    old_shards = std::move(old_manifest->shards);
  }
  StripeManifest manifest;
  manifest.k = static_cast<std::uint8_t>(options_.k);
  manifest.m = static_cast<std::uint8_t>(options_.m);
  manifest.object_size = data.size();
  manifest.gen = old_gen + 1;
  manifest.stripe_id =
      KeyHash(key, manifest.gen) ^
      (stripe_salt_.fetch_add(1, std::memory_order_relaxed) << 1 | 1);
  manifest.shards.resize(static_cast<std::size_t>(options_.k) + options_.m);

  // Slice into k data shards, zero-padding the tail.
  const std::uint64_t shard_size = manifest.shard_size();
  std::vector<Bytes> shards(manifest.shards.size());
  for (int i = 0; i < options_.k; ++i) {
    auto& shard = shards[static_cast<std::size_t>(i)];
    shard.assign(shard_size, 0);
    const std::uint64_t lo = static_cast<std::uint64_t>(i) * shard_size;
    if (lo < data.size()) {
      const std::uint64_t n = std::min(shard_size, data.size() - lo);
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(lo), n,
                  shard.begin());
    }
  }
  std::vector<ByteSpan> data_spans(shards.begin(),
                                   shards.begin() + options_.k);
  std::vector<Bytes> parity;
  codec_.EncodeParity(data_spans, &parity);
  for (int j = 0; j < options_.m; ++j) {
    shards[static_cast<std::size_t>(options_.k + j)] = std::move(
        parity[static_cast<std::size_t>(j)]);
  }

  // Pick shard salts so primaries are pairwise distinct (placement
  // permitting), record them + payload CRCs in the manifest.
  std::set<int> used_nodes;
  for (int i = 0; i < static_cast<int>(shards.size()); ++i) {
    auto& info = manifest.shards[static_cast<std::size_t>(i)];
    info.crc = Crc32c(shards[static_cast<std::size_t>(i)]);
    info.salt = 0;
    if (options_.placement) {
      for (int salt = 0; salt < kPlacementProbes; ++salt) {
        const int node = options_.placement(EcShardKey(
            key, i, static_cast<std::uint8_t>(salt), manifest.gen));
        if (used_nodes.insert(node).second) {
          info.salt = static_cast<std::uint8_t>(salt);
          break;
        }
      }
    }
  }

  // Step 1: all k+m shard objects land before the manifest is touched.
  std::vector<Bytes> shard_objects(shards.size());
  std::vector<BatchPut> shard_puts;
  for (int i = 0; i < static_cast<int>(shards.size()); ++i) {
    EcShardHeader header{static_cast<std::uint8_t>(i), manifest.gen,
                         manifest.stripe_id,
                         manifest.shards[static_cast<std::size_t>(i)].crc};
    shard_objects[static_cast<std::size_t>(i)] =
        EncodeShardObject(header, shards[static_cast<std::size_t>(i)]);
    shard_puts.push_back(BatchPut{
        EcShardKey(key, i, manifest.shards[static_cast<std::size_t>(i)].salt,
                   manifest.gen),
        shard_objects[static_cast<std::size_t>(i)], false, 0});
  }
  if (auto result = async_->MultiPut(std::move(shard_puts));
      !result.status.ok()) {
    // Failed before the flip: the old stripe is untouched; drop what we
    // managed to write (best effort — the scrubber sweeps leftovers).
    std::vector<std::string> undo;
    for (int i = 0; i < static_cast<int>(shards.size()); ++i) {
      undo.push_back(EcShardKey(
          key, i, manifest.shards[static_cast<std::size_t>(i)].salt,
          manifest.gen));
    }
    async_->MultiDelete(std::move(undo));
    return result.status;
  }

  // Step 2: the flip — m+1 identical manifest copies.
  const Bytes encoded = EncodeStripeManifest(manifest);
  const auto salts = ManifestSalts(key);
  std::vector<BatchPut> manifest_puts;
  for (int copy = 0; copy <= options_.m; ++copy) {
    manifest_puts.push_back(BatchPut{
        EcManifestKey(key, copy, salts[static_cast<std::size_t>(copy)]),
        encoded, false, 0});
  }
  ARKFS_RETURN_IF_ERROR(async_->MultiPut(std::move(manifest_puts)).status);
  encodes_.Add();

  // Step 3: best-effort sweep of the previous generation (+ any plain
  // replica object the key had before the placement flip).
  if (old_gen > 0) {
    std::vector<std::string> sweep;
    for (int i = 0; i < static_cast<int>(old_shards.size()); ++i) {
      sweep.push_back(EcShardKey(
          key, i, old_shards[static_cast<std::size_t>(i)].salt, old_gen));
    }
    async_->MultiDelete(std::move(sweep));
  } else {
    (void)StoreDecorator::Delete(key);
  }
  return Status::Ok();
}

Status EcStore::PutRange(const std::string& key, std::uint64_t offset,
                         ByteSpan data) {
  if (!Encodes(key)) return StoreDecorator::PutRange(key, offset, data);
  // Parity must be recomputed over the whole stripe; force the caller onto
  // its read-modify-write path (the PRT already has one for S3-like bases).
  return ErrStatus(Errc::kNotSup, "ec: partial writes require RMW");
}

Status EcStore::PutIf(const std::string& key, ByteSpan data,
                      const WriteGuard& guard) {
  if (!Encodes(key)) return StoreDecorator::PutIf(key, data, guard);
  return ErrStatus(Errc::kNotSup, "ec: no guarded writes on encoded keys");
}

Status EcStore::PutRangeIf(const std::string& key, std::uint64_t offset,
                           ByteSpan data, const WriteGuard& guard) {
  if (!Encodes(key)) {
    return StoreDecorator::PutRangeIf(key, offset, data, guard);
  }
  return ErrStatus(Errc::kNotSup, "ec: no guarded writes on encoded keys");
}

Status EcStore::DeleteIf(const std::string& key, const WriteGuard& guard) {
  if (!Encodes(key)) return StoreDecorator::DeleteIf(key, guard);
  return ErrStatus(Errc::kNotSup, "ec: no guarded writes on encoded keys");
}

Status EcStore::Delete(const std::string& key) {
  if (!Encodes(key)) return StoreDecorator::Delete(key);
  std::lock_guard<std::mutex> lock(KeyLock(key));
  // List every internal object (any salt, any generation) so a delete never
  // strands shards of torn or superseded writes.
  auto manifests = StoreDecorator::inner()->List(key + "..ecm");
  auto shards = StoreDecorator::inner()->List(key + "..ecs");
  const bool was_ec =
      (manifests.ok() && !manifests->empty()) ||
      (shards.ok() && !shards->empty());
  std::vector<std::string> doomed;
  // Manifest copies go first: readers stop resolving the stripe before its
  // shards disappear.
  if (manifests.ok()) {
    doomed.insert(doomed.end(), manifests->begin(), manifests->end());
  }
  if (!doomed.empty()) {
    ARKFS_RETURN_IF_ERROR(async_->MultiDelete(std::move(doomed)).status);
  }
  if (shards.ok() && !shards->empty()) {
    ARKFS_RETURN_IF_ERROR(async_->MultiDelete(std::move(*shards)).status);
  }
  Status base_st = StoreDecorator::Delete(key);
  if (was_ec && !base_st.ok() && base_st.code() == Errc::kNoEnt) {
    return Status::Ok();  // the stripe existed even if no plain object did
  }
  return base_st;
}

Result<ObjectMeta> EcStore::Head(const std::string& key) {
  if (!Encodes(key)) return StoreDecorator::Head(key);
  auto loaded = LoadManifestInternal(key, nullptr, nullptr, nullptr);
  if (!loaded.ok()) {
    auto fallback = StoreDecorator::Head(key);
    if (fallback.ok() || loaded.status().code() == Errc::kNoEnt) {
      return fallback;
    }
    return loaded.status();
  }
  ObjectMeta meta;
  meta.size = loaded->manifest.object_size;
  if (auto copy_meta = StoreDecorator::inner()->Head(loaded->mkey);
      copy_meta.ok()) {
    meta.mtime_sec = copy_meta->mtime_sec;
  }
  return meta;
}

Result<std::vector<std::string>> EcStore::List(const std::string& prefix) {
  ARKFS_ASSIGN_OR_RETURN(const auto raw, StoreDecorator::List(prefix));
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const auto& rkey : raw) {
    std::string logical;
    switch (ClassifyEcKey(rkey, &logical)) {
      case EcKeyKind::kLogical:
        if (seen.insert(logical).second) out.push_back(std::move(logical));
        break;
      case EcKeyKind::kManifest:
        // The manifest stands in for the logical object (shards alone do
        // not: an unflipped write is invisible).
        if (seen.insert(logical).second) out.push_back(std::move(logical));
        break;
      case EcKeyKind::kShard:
        break;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<std::string>> EcStore::ListStripes(
    const std::string& prefix) {
  ARKFS_ASSIGN_OR_RETURN(const auto raw,
                         StoreDecorator::inner()->List(prefix));
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const auto& rkey : raw) {
    std::string logical;
    if (ClassifyEcKey(rkey, &logical) == EcKeyKind::kManifest &&
        seen.insert(logical).second) {
      out.push_back(std::move(logical));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<EcStore::StripeProbe> EcStore::ProbeStripe(const std::string& key) {
  StripeProbe probe;
  ARKFS_ASSIGN_OR_RETURN(
      auto loaded,
      LoadManifestInternal(key, &probe.manifest_copies_bad,
                           &probe.manifest_copies_missing,
                           &probe.manifest_copies_unreachable));
  probe.manifest = std::move(loaded.manifest);
  const int n = probe.manifest.k + probe.manifest.m;
  for (int i = 0; i < n; ++i) {
    const auto& info = probe.manifest.shards[static_cast<std::size_t>(i)];
    auto raw = StoreDecorator::inner()->Get(
        EcShardKey(key, i, info.salt, probe.manifest.gen));
    if (!raw.ok()) {
      if (raw.status().code() == Errc::kNoEnt) {
        probe.missing.push_back(i);
      } else {
        probe.unreachable.push_back(i);  // node down ≠ data loss
      }
      continue;
    }
    auto shard = DecodeShardObject(*raw);
    if (!shard.ok() || shard->header.index != i ||
        shard->header.gen != probe.manifest.gen ||
        shard->header.stripe_id != probe.manifest.stripe_id ||
        shard->header.payload_crc != info.crc ||
        shard->payload.size() != probe.manifest.shard_size()) {
      probe.corrupt.push_back(i);
    } else {
      probe.good.push_back(i);
    }
  }
  return probe;
}

Result<int> EcStore::RepairStripe(const std::string& key,
                                  const StripeProbe& probe) {
  std::vector<int> targets = probe.corrupt;
  targets.insert(targets.end(), probe.missing.begin(), probe.missing.end());
  // Unreachable copies are NOT dirty: the bytes are presumed intact on the
  // down node, exactly like unreachable shards. (Rewriting them "for
  // safety" is what made every scrub pass during a node outage race the
  // write path.)
  const bool manifests_dirty =
      probe.manifest_copies_bad > 0 || probe.manifest_copies_missing > 0;
  if (targets.empty() && !manifests_dirty) return 0;
  const StripeManifest& m = probe.manifest;
  if (static_cast<int>(probe.good.size()) < m.k) {
    return ErrStatus(Errc::kIo, "ec repair: unrecoverable (< k good): " + key);
  }

  // Serialize the whole mutation against Put/Delete on this key: without
  // the lock, an overwrite completing between the generation fence below
  // and the manifest rewrite at the bottom would have its manifest flip
  // rolled back to this probe's stale generation — after its own sweep
  // already deleted the old shards. Lost ack, unreadable stripe.
  std::lock_guard<std::mutex> lock(KeyLock(key));

  // Re-read the manifest right before mutating anything: if an overwrite
  // won the race, this probe describes a dead generation — repairing from
  // it would resurrect stale shards.
  ARKFS_ASSIGN_OR_RETURN(const auto fresh, LoadManifest(key));
  if (fresh.gen != m.gen || fresh.stripe_id != m.stripe_id) {
    return ErrStatus(Errc::kAgain, "ec repair: stripe superseded: " + key);
  }

  int repaired = 0;
  if (!targets.empty()) {
    // Fetch k good shards, then re-encode each lost one.
    std::vector<int> present(probe.good.begin(), probe.good.begin() + m.k);
    std::vector<Bytes> payloads;
    for (int idx : present) {
      ARKFS_ASSIGN_OR_RETURN(auto payload, FetchShard(key, m, idx));
      payloads.push_back(std::move(payload));
    }
    std::vector<ByteSpan> spans(payloads.begin(), payloads.end());
    ec::RsCodec codec(m.k, m.m);
    std::vector<Bytes> rebuilt_objects;
    std::vector<BatchPut> puts;
    for (int target : targets) {
      Bytes payload;
      ARKFS_RETURN_IF_ERROR(
          codec.ReconstructShard(present, spans, target, &payload));
      if (Crc32c(payload) != m.shards[static_cast<std::size_t>(target)].crc) {
        return ErrStatus(Errc::kIo,
                         "ec repair: reconstruction crc mismatch: " + key);
      }
      EcShardHeader header{static_cast<std::uint8_t>(target), m.gen,
                           m.stripe_id,
                           m.shards[static_cast<std::size_t>(target)].crc};
      rebuilt_objects.push_back(EncodeShardObject(header, payload));
      puts.push_back(BatchPut{
          EcShardKey(key, target,
                     m.shards[static_cast<std::size_t>(target)].salt, m.gen),
          rebuilt_objects.back(), false, 0});
    }
    // Ordering rule: repaired shards are durable BEFORE any manifest touch.
    ARKFS_RETURN_IF_ERROR(async_->MultiPut(std::move(puts)).status);
    repaired = static_cast<int>(targets.size());
  }

  if (manifests_dirty) {
    // Re-verify the generation one last time. KeyLock already excludes
    // writers in this instance, but a second EcStore over the same base
    // (separate lock array) could still have flipped the manifest during
    // the shard fetches above — and unlike a stale shard put (an orphan
    // the scrubber sweeps), a stale manifest rewrite rolls back an acked
    // overwrite.
    ARKFS_ASSIGN_OR_RETURN(const auto check, LoadManifest(key));
    if (check.gen != m.gen || check.stripe_id != m.stripe_id) {
      return ErrStatus(Errc::kAgain, "ec repair: stripe superseded: " + key);
    }
    // Rewrite every copy with byte-identical content (never a new gen — a
    // crashed repair must not change what readers resolve).
    const Bytes encoded = EncodeStripeManifest(m);
    const auto salts = ManifestSalts(key);
    std::vector<BatchPut> puts;
    for (int copy = 0;
         copy <= static_cast<int>(m.m) &&
         copy < static_cast<int>(salts.size());
         ++copy) {
      puts.push_back(BatchPut{
          EcManifestKey(key, copy, salts[static_cast<std::size_t>(copy)]),
          encoded, false, 0});
    }
    // Best effort: an unreachable copy heals on a later pass.
    (void)async_->MultiPut(std::move(puts));
  }
  return repaired;
}

Result<int> EcStore::SweepOrphans(const std::string& key,
                                  const StripeManifest& m) {
  ARKFS_ASSIGN_OR_RETURN(const auto raw,
                         StoreDecorator::inner()->List(key + "..ecs"));
  std::vector<std::string> doomed;
  for (const auto& rkey : raw) {
    std::string logical;
    std::uint64_t gen = 0;
    if (ClassifyEcKey(rkey, &logical, &gen) == EcKeyKind::kShard &&
        logical == key && gen < m.gen) {
      doomed.push_back(rkey);
    }
    // gen > m.gen: a write in flight right now — leave it alone.
  }
  if (doomed.empty()) return 0;
  const int count = static_cast<int>(doomed.size());
  ARKFS_RETURN_IF_ERROR(async_->MultiDelete(std::move(doomed)).status);
  return count;
}

}  // namespace arkfs
