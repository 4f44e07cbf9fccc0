#include "objstore/tiering_store.h"

#include <algorithm>

namespace arkfs {

namespace {

constexpr char kPointerSuffix[] = "..tp";
constexpr char kColdSuffix[] = "..cold";

}  // namespace

// --- tier pointer codec (strict: magic + version + CRC, trailing bytes
// rejected — a torn or bit-flipped record must never decode) ---

Bytes EncodeTierPointer(const TierPointer& p) {
  Encoder enc(32);
  enc.PutU32(kTierPointerMagic);
  enc.PutU8(kTierFormatVersion);
  enc.PutU8(static_cast<std::uint8_t>(p.tier));
  enc.PutU64(p.gen);
  enc.PutU64(p.object_size);
  enc.PutU32(p.content_crc);
  enc.PutU32(Crc32c(enc.buffer()));
  return std::move(enc).Take();
}

Result<TierPointer> DecodeTierPointer(ByteSpan data) {
  if (data.size() < 4) return ErrStatus(Errc::kIo, "tier pointer: truncated");
  Decoder dec(data);
  ARKFS_ASSIGN_OR_RETURN(const auto magic, dec.GetU32());
  if (magic != kTierPointerMagic) {
    return ErrStatus(Errc::kIo, "tier pointer: bad magic");
  }
  ARKFS_ASSIGN_OR_RETURN(const auto version, dec.GetU8());
  if (version != kTierFormatVersion) {
    return ErrStatus(Errc::kIo, "tier pointer: unknown version");
  }
  ARKFS_ASSIGN_OR_RETURN(const auto tier, dec.GetU8());
  if (tier > static_cast<std::uint8_t>(Tier::kCold)) {
    return ErrStatus(Errc::kIo, "tier pointer: bad tier");
  }
  TierPointer p;
  p.tier = static_cast<Tier>(tier);
  ARKFS_ASSIGN_OR_RETURN(p.gen, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(p.object_size, dec.GetU64());
  ARKFS_ASSIGN_OR_RETURN(p.content_crc, dec.GetU32());
  const std::size_t crc_pos = dec.pos();
  ARKFS_ASSIGN_OR_RETURN(const auto crc, dec.GetU32());
  if (!dec.done()) return ErrStatus(Errc::kIo, "tier pointer: trailing bytes");
  if (crc != Crc32c(data.subspan(0, crc_pos))) {
    return ErrStatus(Errc::kIo, "tier pointer: CRC mismatch");
  }
  return p;
}

std::string TierPointerKey(const std::string& key) {
  return key + kPointerSuffix;
}

std::string ColdCopyKey(const std::string& key) { return key + kColdSuffix; }

TierKeyKind ClassifyTierKey(const std::string& raw, std::string* logical) {
  // Truncate at the FIRST sentinel occurrence, not an exact suffix match:
  // under an EC cold tier the cold copy's stripes are K..cold..ecm*/..ecs*
  // and every one of them belongs to K. (Logical keys can never contain a
  // sentinel — Tiers() refuses them — so the first occurrence is the split.)
  const std::size_t tp = raw.find(kPointerSuffix);
  const std::size_t cold = raw.find(kColdSuffix);
  if (cold != std::string::npos &&
      (tp == std::string::npos || cold < tp)) {
    *logical = raw.substr(0, cold);
    return TierKeyKind::kColdCopy;
  }
  if (tp != std::string::npos) {
    *logical = raw.substr(0, tp);
    return TierKeyKind::kPointer;
  }
  *logical = raw;
  return TierKeyKind::kLogical;
}

Result<PlacementEvidence> ProbePlacementEvidence(ObjectStore& store) {
  // Data chunks are 'd'-prefixed (prt/key_schema.h); a raw List over that
  // prefix sees every resident trace of how they were written. Data-path
  // EC manifests are K..ecm* with no "..cold" in the key — cold-copy
  // stripes (K..cold..ecm*) classify as tier records instead.
  ARKFS_ASSIGN_OR_RETURN(const auto keys, store.List("d"));
  PlacementEvidence evidence;
  std::string logical;
  for (const auto& key : keys) {
    if (ClassifyTierKey(key, &logical) != TierKeyKind::kLogical) {
      evidence.tier_records = true;
    } else if (key.find("..ecm") != std::string::npos) {
      evidence.ec_data_chunks = true;
    }
    if (evidence.tier_records && evidence.ec_data_chunks) break;
  }
  return evidence;
}

// --- TieringStore ---

TieringStore::TieringStore(ObjectStorePtr hot, TieringOptions options)
    : StoreDecorator(std::move(hot)), options_(std::move(options)) {
  cold_ = options_.cold ? options_.cold : base();
  shard_key_cap_ =
      std::max<std::size_t>(1, options_.max_tracked_keys / shards_.size());
  obs::MetricsRegistry* r = options_.metrics;
  hot_gets_.Attach(r, "tier.hot_gets");
  cold_gets_.Attach(r, "tier.cold_gets");
  hot_puts_.Attach(r, "tier.hot_puts");
  demotions_.Attach(r, "tier.demotions");
  promotions_.Attach(r, "tier.promotions");
  demoted_bytes_.Attach(r, "tier.demoted_bytes");
  promoted_bytes_.Attach(r, "tier.promoted_bytes");
  races_.Attach(r, "tier.races");
  orphans_swept_.Attach(r, "tier.orphans_swept");
  pointer_flips_.Attach(r, "tier.pointer_flips");
}

bool TieringStore::Tiers(const std::string& key) const {
  // Internal namespaces (ours and EcStore's) are never tiered, so a logical
  // key can never collide with a pointer, a cold copy, or an EC stripe.
  if (key.find(kPointerSuffix) != std::string::npos ||
      key.find(kColdSuffix) != std::string::npos ||
      key.find("..ec") != std::string::npos) {
    return false;
  }
  return !options_.should_tier || options_.should_tier(key);
}

const ObjectStorePtr& TieringStore::cold_store() const { return cold_; }

std::string TieringStore::name() const { return "tiering/" + base()->name(); }

// --- per-key state-map helpers ---

TieringStore::KeyState& TieringStore::StateLocked(StateShard& shard,
                                                  const std::string& key) {
  auto it = shard.keys.find(key);
  if (it != shard.keys.end()) return it->second;
  if (shard.keys.size() >= shard_key_cap_) EvictOneLocked(shard);
  return shard.keys[key];
}

void TieringStore::EvictOneLocked(StateShard& shard) {
  // Sampled LRU: probe a handful of entries (unordered_map iteration order
  // is effectively arbitrary) and drop the longest-idle one. Losing an
  // entry only resets that key's idle clock / read heat — placement and
  // bytes are re-derived from the store.
  if (shard.keys.empty()) return;
  auto victim = shard.keys.begin();
  auto it = victim;
  for (int i = 0; i < 16 && it != shard.keys.end(); ++i, ++it) {
    if (it->second.last_access < victim->second.last_access) victim = it;
  }
  shard.keys.erase(victim);
}

void TieringStore::NoteRead(const std::string& key, bool cold) {
  StateShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  KeyState& state = StateLocked(shard, key);
  state.last_access = Now();
  state.reads++;
  if (cold) state.cold_reads++;
  stats_dirty_.store(true, std::memory_order_relaxed);
}

void TieringStore::NoteWrite(const std::string& key) {
  StateShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  KeyState& state = StateLocked(shard, key);
  state.last_access = Now();
  state.tier = CachedTier::kHot;
  state.cold_reads = 0;
  stats_dirty_.store(true, std::memory_order_relaxed);
}

void TieringStore::SetCachedTier(const std::string& key, CachedTier tier,
                                 bool reset_cold_reads) {
  StateShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  KeyState& state = StateLocked(shard, key);
  state.tier = tier;
  if (reset_cold_reads) state.cold_reads = 0;
}

TieringStore::CachedTier TieringStore::GetCachedTier(
    const std::string& key) const {
  StateShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.keys.find(key);
  return it == shard.keys.end() ? CachedTier::kUnknown : it->second.tier;
}

void TieringStore::EraseState(const std::string& key) {
  StateShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.keys.erase(key);
  stats_dirty_.store(true, std::memory_order_relaxed);
}

void TieringStore::SeedAccess(const std::string& key) {
  StateShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.keys.count(key)) return;
  StateLocked(shard, key).last_access = Now();
  stats_dirty_.store(true, std::memory_order_relaxed);
}

Result<TieringStore::PointerRecord> TieringStore::LoadPointer(
    const std::string& key) {
  auto blob = base()->Get(TierPointerKey(key));
  if (blob.code() == Errc::kNoEnt) return PointerRecord{};
  ARKFS_RETURN_IF_ERROR(blob.status());
  PointerRecord record{std::move(*blob), std::nullopt};
  if (auto pointer = DecodeTierPointer(*record.raw); pointer.ok()) {
    record.pointer = *pointer;
  }
  return record;
}

Result<TieringStore::PointerRecord> TieringStore::FlipPointer(
    const std::string& key, const PointerRecord& prior, Tier tier,
    ByteSpan covered) {
  const TierPointer pointer{tier, (prior.pointer ? prior.pointer->gen : 0) + 1,
                            covered.size(), Crc32c(covered)};
  PointerRecord next{EncodeTierPointer(pointer), pointer};
  Status st = base()->PutIf(TierPointerKey(key), *next.raw, prior.guard());
  if (st.code() == Errc::kStale) {
    // The record moved since it was read, or this very write landed and
    // only its ack was lost (a retry below then missed): read it back.
    auto now = LoadPointer(key);
    if (now.ok() && !now->raw) return ErrStatus(Errc::kNoEnt, "pointer gone");
    if (!now.ok() || *now->raw != *next.raw) return st;
  } else if (!st.ok()) {
    return st;
  }
  pointer_flips_.Add();
  return next;
}

bool TieringStore::ShouldTryCold(const std::string& key) {
  auto record = LoadPointer(key);
  // An unreachable pointer cannot tell a current cold copy from a stale
  // one, so it never sends a read there.
  if (!record.ok()) return false;
  if (record->pointer) return record->pointer->tier == Tier::kCold;
  // No decodable pointer. One salvage probe costs a single small read and
  // rescues the bytes behind a lost/corrupt pointer record.
  return true;
}

// --- foreground ops ---

template <typename ReadFn>
Result<Bytes> TieringStore::ReadHotFirst(const std::string& key, ReadFn read) {
  // Hot first, ALWAYS: the cached tier can be stale in exactly the states a
  // crash leaves behind (a cold record over newer acked hot bytes), so it
  // only orders fallbacks — on a hot miss, a cached kCold skips the pointer.
  auto hot = read(*base(), key);
  if (hot.ok()) {
    NoteRead(key, /*cold=*/false);
    hot_gets_.Add();
    SetCachedTier(key, CachedTier::kHot, false);
    return hot;
  }
  // Hot miss — demoted (kNoEnt) or its node is down; the cold copy's EC
  // stripes reconstruct through outages either way.
  if (GetCachedTier(key) == CachedTier::kCold || ShouldTryCold(key)) {
    auto cold = read(*cold_, ColdCopyKey(key));
    if (cold.ok()) {
      NoteRead(key, /*cold=*/true);
      cold_gets_.Add();
      SetCachedTier(key, CachedTier::kCold, false);
      return cold;
    }
  }
  return hot;
}

Result<Bytes> TieringStore::Get(const std::string& key) {
  if (!Tiers(key)) return base()->Get(key);
  return ReadHotFirst(
      key, [](ObjectStore& store, const std::string& k) { return store.Get(k); });
}

Result<Bytes> TieringStore::GetRange(const std::string& key,
                                     std::uint64_t offset,
                                     std::uint64_t length) {
  if (!Tiers(key)) return base()->GetRange(key, offset, length);
  return ReadHotFirst(key, [&](ObjectStore& store, const std::string& k) {
    return store.GetRange(k, offset, length);
  });
}

Status TieringStore::Put(const std::string& key, ByteSpan data) {
  if (!Tiers(key)) return base()->Put(key, data);
  ARKFS_RETURN_IF_ERROR(base()->Put(key, data));
  hot_puts_.Add();
  if (GetCachedTier(key) == CachedTier::kCold) {
    // Point the record back at the new hot copy, or a hot outage would read
    // the stale cold copy. Guarded, so a demotion's flip in flight misses;
    // the cold copy is left to reconcile (a Delete here could remove a
    // later demotion's fresh copy).
    if (auto prior = LoadPointer(key); prior.ok()) {
      (void)FlipPointer(key, *prior, Tier::kHot, data);
    }
  }
  NoteWrite(key);
  return Status::Ok();
}

Status TieringStore::PutRange(const std::string& key, std::uint64_t offset,
                              ByteSpan data) {
  if (!Tiers(key)) return base()->PutRange(key, offset, data);
  // One store call on the hot path: the store lands the range only while a
  // hot copy exists (a probe before the write could race a demotion).
  Status st = base()->PutRangeIf(key, offset, data, WriteGuard{});
  if (st.code() == Errc::kStale) {
    if (auto record = LoadPointer(key);
        (record.ok() && record->pointer &&
         record->pointer->tier == Tier::kCold) ||
        cold_->Head(ColdCopyKey(key)).ok()) {
      // A partial write never lands next to a cold-resident copy:
      // Prt::WriteData rewrites the chunk whole (a Put) on kNotSup.
      return ErrStatus(Errc::kNotSup, "cold-resident object: rewrite whole");
    }
    // Fresh object: the partial write creates it hot.
    st = base()->PutRange(key, offset, data);
  }
  if (st.ok()) NoteWrite(key);
  return st;
}

Status TieringStore::PutIf(const std::string& key, ByteSpan data,
                           const WriteGuard& guard) {
  if (!Tiers(key)) return base()->PutIf(key, data, guard);
  return ErrStatus(Errc::kNotSup, "tiering: no guarded writes on tiered keys");
}

Status TieringStore::PutRangeIf(const std::string& key, std::uint64_t offset,
                                ByteSpan data, const WriteGuard& guard) {
  if (!Tiers(key)) return base()->PutRangeIf(key, offset, data, guard);
  return ErrStatus(Errc::kNotSup, "tiering: no guarded writes on tiered keys");
}

Status TieringStore::DeleteIf(const std::string& key,
                              const WriteGuard& guard) {
  if (!Tiers(key)) return base()->DeleteIf(key, guard);
  return ErrStatus(Errc::kNotSup, "tiering: no guarded writes on tiered keys");
}

Status TieringStore::Delete(const std::string& key) {
  if (!Tiers(key)) return base()->Delete(key);
  // Hot, then cold, then the pointer. Hot goes first: a demotion checks
  // the hot copy after its cold copy lands, so either it finds the hot copy
  // gone and drops its copy, or its copy landed before the cold removal
  // below. The pointer goes last, so a failed cold removal leaves a
  // consistent cold object that a retried Delete finishes.
  EraseState(key);
  auto failed = [](const Status& st) {
    return !st.ok() && st.code() != Errc::kNoEnt;
  };
  const Status hot = base()->Delete(key);
  if (failed(hot)) return hot;
  const Status cold = cold_->Delete(ColdCopyKey(key));
  if (failed(cold)) return cold;
  const Status pointer = base()->Delete(TierPointerKey(key));
  if (failed(pointer)) return pointer;
  return hot.ok() || cold.ok() ? Status::Ok() : hot;
}

Result<ObjectMeta> TieringStore::Head(const std::string& key) {
  if (!Tiers(key)) return base()->Head(key);
  // Hot first, ALWAYS (see ReadHotFirst).
  auto hot = base()->Head(key);
  if (hot.ok()) return hot;
  if (GetCachedTier(key) == CachedTier::kCold || ShouldTryCold(key)) {
    auto cold = cold_->Head(ColdCopyKey(key));
    if (cold.ok()) return cold;
  }
  return hot;
}

// Enumerates BOTH namespaces — the hot store's and the cold store's — and
// folds every internal key (pointers, cold copies, and under an EC cold
// tier their stripe internals, which ClassifyTierKey truncates at the
// first "..cold") back to its logical key. When the cold store shares the
// hot namespace (the builder wiring, or a null cold option) the two
// listings coincide and the dedup collapses them; when options.cold is a
// disjoint store, hot-only objects must not vanish from the listing.
Result<std::vector<std::string>> TieringStore::FoldListings(
    const std::string& prefix) {
  ARKFS_ASSIGN_OR_RETURN(const auto cold_raw, cold_->List(prefix));
  std::vector<std::string> out;
  out.reserve(cold_raw.size());
  std::string logical;
  for (const auto& key : cold_raw) {
    (void)ClassifyTierKey(key, &logical);
    out.push_back(logical);
  }
  if (cold_ != base()) {
    ARKFS_ASSIGN_OR_RETURN(const auto hot_raw, base()->List(prefix));
    for (const auto& key : hot_raw) {
      (void)ClassifyTierKey(key, &logical);
      out.push_back(logical);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<std::vector<std::string>> TieringStore::List(const std::string& prefix) {
  return FoldListings(prefix);
}

// --- migration primitives ---

Status TieringStore::DemoteObject(const std::string& key) {
  if (!Tiers(key)) return ErrStatus(Errc::kInval, "not a tiered key");
  ARKFS_ASSIGN_OR_RETURN(const PointerRecord prior, LoadPointer(key));
  auto hot = base()->Get(key);
  if (!hot.ok()) return hot.status();  // kNoEnt: nothing hot to demote
  // Step 1, the copy (EC encode), kept only if the hot copy outlived it: a
  // Delete that landed first must not come back from cold.
  ARKFS_RETURN_IF_ERROR(cold_->Put(ColdCopyKey(key), *hot));
  Status still = base()->Head(key).status();
  if (still.code() == Errc::kNoEnt) {
    races_.Add();
    (void)cold_->Delete(ColdCopyKey(key));
    return ErrStatus(Errc::kAgain, "deleted during demotion");
  }
  ARKFS_RETURN_IF_ERROR(still);
  // Step 2, the flip. A miss sweeps nothing; if a Delete removed the record
  // (kNoEnt), the copy would read back as a salvage, so it goes too.
  auto flipped = FlipPointer(key, prior, Tier::kCold, *hot);
  if (flipped.code() == Errc::kStale || flipped.code() == Errc::kNoEnt) {
    races_.Add();
    if (flipped.code() == Errc::kNoEnt) (void)cold_->Delete(ColdCopyKey(key));
    return ErrStatus(Errc::kAgain, "pointer moved during demotion");
  }
  ARKFS_RETURN_IF_ERROR(flipped.status());
  // Step 3, the sweep (under hot-first reads, the visibility switch), only
  // while the hot copy still holds the copied bytes. If it fails, both
  // byte-identical copies linger and reconcile completes it next pass.
  Status sweep = base()->DeleteIf(key, WriteGuard{0, *hot, /*whole=*/true});
  if (sweep.code() == Errc::kStale) {
    // Overwritten after the copy: the hot copy stays authoritative, and the
    // record points back at it (see Put); reconcile reclaims the cold copy.
    races_.Add();
    (void)FlipPointer(key, *flipped, Tier::kHot, *hot);
    return ErrStatus(Errc::kAgain, "overwritten during demotion");
  }
  // kNoEnt after the Head above saw the hot copy: this sweep landed with its
  // ack lost, or a later Delete removes the pointer and cold copy itself.
  if (sweep.code() != Errc::kNoEnt) ARKFS_RETURN_IF_ERROR(sweep);
  SetCachedTier(key, CachedTier::kCold, /*reset_cold_reads=*/true);
  demotions_.Add();
  demoted_bytes_.Add(hot->size());
  MarkStatsDirty();
  return Status::Ok();
}

Status TieringStore::PromoteObject(const std::string& key) {
  if (!Tiers(key)) return ErrStatus(Errc::kInval, "not a tiered key");
  ARKFS_ASSIGN_OR_RETURN(const PointerRecord prior, LoadPointer(key));
  auto cold = cold_->Get(ColdCopyKey(key));
  if (!cold.ok()) return cold.status();  // kNoEnt: nothing cold to promote
  // Step 1: the hot copy, authoritative the moment it lands, so create-only:
  // a hot copy that exists already is a foreground write, and it wins.
  Status hot = base()->PutIf(key, *cold, WriteGuard::Absent());
  if (hot.code() == Errc::kStale) {
    races_.Add();
    return ErrStatus(Errc::kAgain, "overwritten during promotion");
  }
  ARKFS_RETURN_IF_ERROR(hot);
  // Step 2, the flip. If a Delete removed the record (kNoEnt), take back the
  // hot copy unless a foreground write replaced it; a record that moved on
  // (an overwrite's flip-back) leaves the cold copy to reconcile.
  auto flipped = FlipPointer(key, prior, Tier::kHot, *cold);
  if (flipped.code() == Errc::kStale || flipped.code() == Errc::kNoEnt) {
    races_.Add();
    if (flipped.code() == Errc::kNoEnt) {
      (void)base()->DeleteIf(key, WriteGuard{0, *cold, /*whole=*/true});
    }
    return ErrStatus(Errc::kAgain, "pointer moved during promotion");
  }
  ARKFS_RETURN_IF_ERROR(flipped.status());
  // Step 3, the sweep (best effort; reconcile reclaims a leftover).
  (void)cold_->Delete(ColdCopyKey(key));
  SetCachedTier(key, CachedTier::kHot, /*reset_cold_reads=*/true);
  promotions_.Add();
  promoted_bytes_.Add(cold->size());
  MarkStatsDirty();
  return Status::Ok();
}

Result<int> TieringStore::ReconcileObject(const std::string& key) {
  if (!Tiers(key)) return ErrStatus(Errc::kInval, "not a tiered key");
  ARKFS_ASSIGN_OR_RETURN(const PointerRecord prior, LoadPointer(key));
  auto hot = base()->Get(key);
  const bool hot_exists = hot.ok();
  const bool cold_exists = cold_->Head(ColdCopyKey(key)).ok();
  const std::optional<TierPointer>& pointer = prior.pointer;
  int swept = 0;
  if (hot_exists && cold_exists) {
    if (pointer && pointer->tier == Tier::kCold &&
        pointer->object_size == hot->size() &&
        pointer->content_crc == Crc32c(*hot)) {
      // A demotion stopped after its flip: the copies are byte-identical
      // (the pointer's content CRC proves it), so complete the sweep —
      // guarded on the bytes just checked, so an overwrite since stays.
      if (base()->DeleteIf(key, WriteGuard{0, *hot, /*whole=*/true}).ok()) {
        swept++;
        SetCachedTier(key, CachedTier::kCold, false);
      }
    } else {
      // The hot copy is not what the pointer covered (a migration stopped
      // part way, or an overwrite of a demoted object): hot wins. The guarded
      // re-point makes the stale cold copy this pass's to drop; a crash in
      // between is finished by this same branch next pass.
      ARKFS_RETURN_IF_ERROR(FlipPointer(key, prior, Tier::kHot, *hot).status());
      if (cold_->Delete(ColdCopyKey(key)).ok()) swept++;
      SetCachedTier(key, CachedTier::kHot, true);
    }
  } else if (hot_exists && pointer && pointer->tier == Tier::kCold) {
    // Pointer says cold but no cold copy survives (external sweep or a
    // reconcile crash): repair the record so it matches reality.
    ARKFS_RETURN_IF_ERROR(FlipPointer(key, prior, Tier::kHot, *hot).status());
    swept++;
    SetCachedTier(key, CachedTier::kHot, false);
  } else if (!hot_exists && !cold_exists && prior.raw) {
    // Dangling pointer: no copy left anywhere. Reclaim the record unless a
    // migration has rewritten it since.
    if (base()->DeleteIf(TierPointerKey(key), prior.guard()).ok()) swept++;
    EraseState(key);
  }
  if (swept > 0) {
    orphans_swept_.Add(static_cast<std::uint64_t>(swept));
    MarkStatsDirty();
  }
  return swept;
}

Result<std::vector<std::string>> TieringStore::ListTiered(
    const std::string& prefix) {
  ARKFS_ASSIGN_OR_RETURN(auto folded, FoldListings(prefix));
  folded.erase(std::remove_if(folded.begin(), folded.end(),
                              [this](const std::string& logical) {
                                return !Tiers(logical);
                              }),
               folded.end());
  return folded;
}

Result<TieringStore::TierProbe> TieringStore::ProbeTier(
    const std::string& key) {
  if (!Tiers(key)) return ErrStatus(Errc::kInval, "not a tiered key");
  TierProbe probe;
  auto hot = base()->Head(key);
  if (hot.ok()) {
    probe.hot_exists = true;
    probe.hot_size = hot->size;
  } else if (hot.status().code() != Errc::kNoEnt) {
    // Node down: residency is unknowable this pass — don't guess.
    return hot.status();
  }
  // Cold-side errors are treated as absent: a wrong "absent" only re-demotes
  // (an idempotent overwrite), never loses bytes.
  probe.cold_exists = cold_->Head(ColdCopyKey(key)).ok();
  if (auto record = LoadPointer(key); record.ok()) {
    probe.pointer = record->pointer;
  }
  StateShard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.keys.find(key);
  if (it != shard.keys.end()) {
    probe.ever_accessed = true;
    probe.idle = std::chrono::duration_cast<Nanos>(Now() - it->second.last_access);
    probe.cold_reads = it->second.cold_reads;
    // What the store just showed becomes the cached tier: a process that
    // loaded its stats blob (whose tier byte is never applied) learns the
    // placement of its tracked keys here.
    if (probe.hot_exists) {
      it->second.tier = CachedTier::kHot;
    } else if (probe.cold_exists && probe.pointer &&
               probe.pointer->tier == Tier::kCold) {
      it->second.tier = CachedTier::kCold;
    }
  }
  return probe;
}

// --- access-stats persistence (journal checkpoint cadence) ---

Bytes TieringStore::EncodeAccessStats() const {
  struct Entry {
    std::string key;
    std::uint64_t age_ns;
    std::uint64_t reads;
    std::uint32_t cold_reads;
    std::uint8_t tier;
  };
  const TimePoint now = Now();
  std::vector<Entry> entries;
  for (const StateShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, state] : shard.keys) {
      const auto age =
          std::chrono::duration_cast<Nanos>(now - state.last_access);
      entries.push_back({key,
                         static_cast<std::uint64_t>(
                             std::max<std::int64_t>(0, age.count())),
                         state.reads, state.cold_reads,
                         static_cast<std::uint8_t>(state.tier)});
    }
  }
  Encoder enc(64 + entries.size() * 48);
  enc.PutU32(kTierStatsMagic);
  enc.PutU8(kTierFormatVersion);
  enc.PutVarint(entries.size());
  for (const Entry& e : entries) {
    enc.PutString(e.key);
    enc.PutVarint(e.age_ns);
    enc.PutVarint(e.reads);
    enc.PutVarint(e.cold_reads);
    enc.PutU8(e.tier);
  }
  enc.PutU32(Crc32c(enc.buffer()));
  return std::move(enc).Take();
}

Status TieringStore::LoadAccessStats(ByteSpan data) {
  if (data.size() < 4) return ErrStatus(Errc::kIo, "tier stats: truncated");
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(data[data.size() - 4]) |
      static_cast<std::uint32_t>(data[data.size() - 3]) << 8 |
      static_cast<std::uint32_t>(data[data.size() - 2]) << 16 |
      static_cast<std::uint32_t>(data[data.size() - 1]) << 24;
  if (stored_crc != Crc32c(data.subspan(0, data.size() - 4))) {
    return ErrStatus(Errc::kIo, "tier stats: CRC mismatch");
  }
  Decoder dec(data.subspan(0, data.size() - 4));
  ARKFS_ASSIGN_OR_RETURN(const auto magic, dec.GetU32());
  if (magic != kTierStatsMagic) {
    return ErrStatus(Errc::kIo, "tier stats: bad magic");
  }
  ARKFS_ASSIGN_OR_RETURN(const auto version, dec.GetU8());
  if (version != kTierFormatVersion) {
    return ErrStatus(Errc::kIo, "tier stats: unknown version");
  }
  ARKFS_ASSIGN_OR_RETURN(const auto count, dec.GetVarint());
  const TimePoint now = Now();
  for (std::uint64_t i = 0; i < count; ++i) {
    ARKFS_ASSIGN_OR_RETURN(const auto key, dec.GetString());
    ARKFS_ASSIGN_OR_RETURN(const auto age_ns, dec.GetVarint());
    ARKFS_ASSIGN_OR_RETURN(const auto reads, dec.GetVarint());
    ARKFS_ASSIGN_OR_RETURN(const auto cold_reads, dec.GetVarint());
    ARKFS_ASSIGN_OR_RETURN(const auto tier, dec.GetU8());
    if (tier > static_cast<std::uint8_t>(CachedTier::kCold)) {
      return ErrStatus(Errc::kIo, "tier stats: bad tier");
    }
    // Steady clocks restart with the process: ages were encoded relative
    // to the writer's "now" and are reinstated relative to ours (capped so
    // a garbage age cannot underflow the epoch).
    const std::uint64_t capped =
        std::min<std::uint64_t>(age_ns, static_cast<std::uint64_t>(
                                            Seconds(30 * 24 * 3600).count()));
    StateShard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    KeyState& state = StateLocked(shard, key);
    state.last_access = now - Nanos(static_cast<std::int64_t>(capped));
    state.reads = reads;
    state.cold_reads = static_cast<std::uint32_t>(cold_reads);
    // The persisted tier byte is validated (strict decode) but NEVER
    // applied: the blob is advisory, and a stale "cold" written before a
    // crash must not route a restarted process's reads at a stale cold
    // copy lingering behind newer acked hot bytes. Placement re-derives
    // from the store, where the hot copy is authoritative.
  }
  if (!dec.done()) return ErrStatus(Errc::kIo, "tier stats: trailing bytes");
  return Status::Ok();
}

TieringStore::Counters TieringStore::counters() const {
  Counters c;
  c.hot_gets = hot_gets_.value();
  c.cold_gets = cold_gets_.value();
  c.hot_puts = hot_puts_.value();
  c.demotions = demotions_.value();
  c.promotions = promotions_.value();
  c.demoted_bytes = demoted_bytes_.value();
  c.promoted_bytes = promoted_bytes_.value();
  c.races = races_.value();
  c.orphans_swept = orphans_swept_.value();
  c.pointer_flips = pointer_flips_.value();
  for (const StateShard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    c.tracked_keys += shard.keys.size();
    for (const auto& [key, state] : shard.keys) {
      if (state.tier == CachedTier::kHot) c.hot_keys++;
      if (state.tier == CachedTier::kCold) c.cold_keys++;
    }
  }
  return c;
}

// --- Migrator ---

std::string MigrationReport::ToString() const {
  std::string s;
  s += "scanned=" + std::to_string(scanned);
  s += " demoted=" + std::to_string(demoted);
  s += " promoted=" + std::to_string(promoted);
  s += " demote_failures=" + std::to_string(demote_failures);
  s += " promote_failures=" + std::to_string(promote_failures);
  s += " races=" + std::to_string(races);
  s += " orphans_swept=" + std::to_string(orphans_swept);
  s += " demoted_bytes=" + std::to_string(demoted_bytes);
  return s;
}

Migrator::Migrator(TieringStorePtr store, MigratorOptions options)
    : options_(std::move(options)), store_(std::move(store)) {
  passes_.Attach(options_.metrics, "tier.migrate.passes");
  scanned_.Attach(options_.metrics, "tier.migrate.scanned");
  demoted_.Attach(options_.metrics, "tier.migrate.demoted");
  promoted_.Attach(options_.metrics, "tier.migrate.promoted");
  demote_failures_.Attach(options_.metrics, "tier.migrate.demote_failures");
  promote_failures_.Attach(options_.metrics, "tier.migrate.promote_failures");
  orphans_swept_.Attach(options_.metrics, "tier.migrate.orphans_swept");
  races_.Attach(options_.metrics, "tier.migrate.races");
  last_scanned_.Attach(options_.metrics, "tier.migrate.last_scanned");
  last_demoted_.Attach(options_.metrics, "tier.migrate.last_demoted");
}

void Migrator::ProcessKey(const std::string& key, MigrationReport* report,
                          std::mutex* report_mu) {
  MigrationReport local;
  auto probe_or = store_->ProbeTier(key);
  if (!probe_or.ok()) {
    // Unreachable this pass (e.g. the hot primary is down): retried later.
    std::lock_guard<std::mutex> lock(*report_mu);
    report->scanned++;
    report->demote_failures++;
    return;
  }
  const TieringStore::TierProbe& probe = *probe_or;
  local.scanned = 1;
  if (probe.hot_exists && probe.cold_exists) {
    // Crash leftover: both copies resident ("double-charge"). Reconcile
    // picks the authoritative side and sweeps the orphan.
    auto swept = store_->ReconcileObject(key);
    if (swept.ok()) {
      local.orphans_swept = static_cast<std::uint64_t>(*swept);
    } else {
      local.demote_failures = 1;
    }
  } else if (!probe.hot_exists && probe.cold_exists) {
    // Cold-resident: promote on read heat.
    if (options_.promote_reads > 0 &&
        probe.cold_reads >= options_.promote_reads) {
      Status st = store_->PromoteObject(key);
      if (st.ok()) {
        local.promoted = 1;
      } else if (st.code() == Errc::kAgain) {
        local.races = 1;
      } else if (st.code() != Errc::kNoEnt) {
        local.promote_failures = 1;
      }
    }
  } else if (probe.hot_exists) {
    if (probe.pointer && probe.pointer->tier == Tier::kCold) {
      // Pointer contradicts residency (no cold copy survives): repair it.
      auto swept = store_->ReconcileObject(key);
      if (swept.ok()) local.orphans_swept = static_cast<std::uint64_t>(*swept);
    }
    // Hot-resident: demote once idle long enough. Keys the stats plane has
    // never seen get their clock seeded now and age from this pass.
    const bool force = options_.demote_after.count() == 0;
    if (!probe.ever_accessed && !force) {
      store_->SeedAccess(key);
    } else if (force ||
               (probe.ever_accessed && probe.idle >= options_.demote_after)) {
      Status st = store_->DemoteObject(key);
      if (st.ok()) {
        local.demoted = 1;
        local.demoted_bytes = probe.hot_size;
      } else if (st.code() == Errc::kAgain) {
        local.races = 1;
      } else if (st.code() != Errc::kNoEnt) {
        local.demote_failures = 1;
      }
    }
  } else if (probe.pointer) {
    // No copy anywhere but a pointer record survives: reclaim it.
    auto swept = store_->ReconcileObject(key);
    if (swept.ok()) local.orphans_swept = static_cast<std::uint64_t>(*swept);
  }
  std::lock_guard<std::mutex> lock(*report_mu);
  report->scanned += local.scanned;
  report->demoted += local.demoted;
  report->promoted += local.promoted;
  report->demote_failures += local.demote_failures;
  report->promote_failures += local.promote_failures;
  report->races += local.races;
  report->orphans_swept += local.orphans_swept;
  report->demoted_bytes += local.demoted_bytes;
}

Result<MigrationReport> Migrator::RunOnce() {
  std::lock_guard<std::mutex> run(run_mu_);
  ARKFS_ASSIGN_OR_RETURN(const auto keys,
                         store_->ListTiered(""));
  MigrationReport report;
  std::mutex report_mu;
  ThreadPool pool(static_cast<std::size_t>(std::max(1, options_.threads)));
  WaitGroup wg;
  for (const auto& key : keys) {
    wg.Add();
    pool.Submit([this, &key, &report, &report_mu, &wg] {
      ProcessKey(key, &report, &report_mu);
      wg.Done();
    });
  }
  wg.Wait();
  pool.Shutdown();

  passes_.Add();
  scanned_.Add(report.scanned);
  demoted_.Add(report.demoted);
  promoted_.Add(report.promoted);
  demote_failures_.Add(report.demote_failures);
  promote_failures_.Add(report.promote_failures);
  orphans_swept_.Add(report.orphans_swept);
  races_.Add(report.races);
  last_scanned_.Set(report.scanned);
  last_demoted_.Set(report.demoted);
  return report;
}

}  // namespace arkfs
