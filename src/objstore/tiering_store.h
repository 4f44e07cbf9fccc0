// TieringStore — access-driven hot/cold data placement (the tiering half of
// the archive tier; EcStore is the durability half).
//
// A StoreDecorator that keeps selected objects (by default: everything; the
// cluster wires a data-chunk-only predicate) on the wrapped *hot* store —
// replica placement, RADOS-profile latency — and demotes cold objects to a
// *cold* store (the cluster wires an EcStore over the same base, so
// encode-on-demote composes for free). Placement per object is recorded in
// a CRC'd, generation-versioned tier-pointer record.
//
// Object layout for a logical key K. Internal objects live in reserved
// "..tp" / "..cold" namespaces — logical keys containing those sentinels
// (or EcStore's "..ec") are never tiered, so a logical key can never be
// mistaken for an internal one:
//   K           the hot copy (a plain base object, byte-identical to the
//               un-tiered layout — fresh ingest pays zero extra I/O)
//   K..tp       the tier pointer: magic "AKTP", tier, generation, object
//               size and content CRC, all covered by a record CRC
//   K..cold     the cold copy, written through the cold store (under an
//               EC cold tier its stripes become K..cold..ecm* / ..ecs*)
//
// Read semantics: THE HOT COPY, WHEN PRESENT, IS AUTHORITATIVE. Reads try
// hot first, always, and consult the pointer/cold copy only on a hot miss.
// The in-memory cached tier only orders fallbacks (on a hot miss it skips
// the pointer read), because it can be stale in exactly the states a crash
// leaves behind. So a stale cold copy or pointer left by a crash never
// shadows newer acked hot bytes: it is storage for the migrator's reconcile
// pass to reclaim (the crash matrix is in DESIGN.md §4.9).
//
// Migration protocol (copy -> flip -> sweep, as for dentry shards and EC
// generations). Every step that could destroy another writer's bytes is a
// guarded store op, so the store, not process memory, orders migrations
// against foreground writers in every process:
//   demote:  1. PUT K..cold (EC encode), dropped again if K is gone by then;
//            2. PUT K..tp {cold, gen+1} IF K..tp is what the migration read
//               (IF ABSENT when there was none) — the flip;
//            3. DELETE K IF it still holds the copied bytes — the sweep, and
//               under hot-first reads the visibility switch.
//   promote: 1. PUT K IF ABSENT; 2. the guarded flip to {hot, gen+1};
//            3. DELETE K..cold.
// A miss aborts kAgain and leaves the winner's bytes alone; a lost ack is
// told from a miss by re-reading the store. Any prefix of the protocol (a
// crash) leaves the hot copy authoritative or a complete cold object behind
// the flipped pointer. DESIGN.md §4.9 has the rule for who writes K, K..tp
// and K..cold; the pointer's generation keeps byte guards ABA-safe.
// Foreground writers to one key are serialized above (the PRT's file leases).
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/clock.h"
#include "common/codec.h"
#include "common/thread_pool.h"
#include "objstore/store_decorator.h"
#include "obs/metrics.h"

namespace arkfs {

// --- persisted formats ---
// The tier pointer decodes strictly (magic + version + CRC; torn prefixes
// and bit flips must never decode — same bar as the EC stripe manifest).
// The access-stats blob is advisory and loads tolerantly: losing it only
// resets demotion timers, never bytes. It never routes reads: the cached
// tier persisted in it is NOT reinstated on load (placement is re-derived
// from the store itself, where the hot copy is authoritative).

inline constexpr std::uint32_t kTierPointerMagic = 0x414B5450u;  // "AKTP"
inline constexpr std::uint32_t kTierStatsMagic = 0x414B5453u;    // "AKTS"
inline constexpr std::uint8_t kTierFormatVersion = 1;

// Where the access-stats blob persists (journal checkpoint cadence, next to
// qos::kQuotaUsageKey).
inline constexpr char kTierStatsKey[] = "sys.tier-stats";

enum class Tier : std::uint8_t { kHot = 0, kCold = 1 };

struct TierPointer {
  Tier tier = Tier::kHot;
  std::uint64_t gen = 0;          // monotonic per key across flips (ABA)
  std::uint64_t object_size = 0;  // size of the object the flip covered
  std::uint32_t content_crc = 0;  // CRC32C of those bytes (reconcile proof)
};

Bytes EncodeTierPointer(const TierPointer& p);
Result<TierPointer> DecodeTierPointer(ByteSpan data);

// Tier-internal key helpers (exposed for the migrator and tests).
std::string TierPointerKey(const std::string& key);  // K..tp
std::string ColdCopyKey(const std::string& key);     // K..cold
// Classifies a raw store key; for internal keys *logical receives the
// logical key they belong to.
enum class TierKeyKind { kLogical, kPointer, kColdCopy };
TierKeyKind ClassifyTierKey(const std::string& raw, std::string* logical);

// What an existing image's raw data-chunk keys reveal about how they were
// written. A CLI/operator process must not silently pick a data path that
// cannot decode the resident bytes: data chunks written under
// DataPlacement::kEc exist only as "..ecm"/"..ecs" stripes (unreadable
// through the tiered path, whose cold EcStore decodes only the "..cold"
// namespace), and tier pointers / cold copies are unreadable through the
// plain EC path. `arkfs_cli` probes this before composing a stack and
// fails fast on a mismatch instead of serving kNoEnt for live data.
struct PlacementEvidence {
  bool ec_data_chunks = false;  // data chunks resident as data-path EC stripes
  bool tier_records = false;    // tier pointers and/or cold copies present
};
Result<PlacementEvidence> ProbePlacementEvidence(ObjectStore& store);

struct TieringOptions {
  // Only keys this predicate accepts are tiered; everything else passes
  // through to the hot store untouched. Null = tier everything (that the
  // sentinel rule allows).
  std::function<bool(const std::string&)> should_tier;
  // The cold tier. The cluster wires an EcStore over the same base (cold
  // copies land as k+m stripes); null = cold copies are plain base objects
  // under K..cold (unit tests).
  ObjectStorePtr cold;
  // Where the "tier.*" cells attach; null = process default registry.
  obs::MetricsRegistry* metrics = nullptr;
  // Bound on the in-memory per-key access/placement entries (and therefore
  // on the persisted stats blob). Past the cap the longest-idle tracked key
  // is evicted (sampled LRU) — losing an entry only resets that key's idle
  // clock / read heat, never bytes.
  std::size_t max_tracked_keys = 65536;

  static TieringOptions Defaults() { return {}; }
};

class TieringStore : public StoreDecorator {
 public:
  TieringStore(ObjectStorePtr hot, TieringOptions options);

  Result<Bytes> Get(const std::string& key) override;
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override;
  // Writes the hot copy. Over a key this instance saw cold it also flips
  // the pointer back to hot (guarded), so a hot outage cannot fall back to
  // the stale cold copy, which the migrator's reconcile pass reclaims.
  Status Put(const std::string& key, ByteSpan data) override;
  // Partial writes land only on an existing hot copy (one PutRangeIf), so a
  // write racing a demotion never plants a truncated hot fragment. A
  // cold-resident key returns kNotSup; Prt::WriteData then rewrites the
  // whole chunk (read-modify-write), which lands it hot.
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override;
  // Guarded writes and deletes pass through on keys this store does not
  // tier; a tiered key may live in either tier, so it has no one object to
  // compare against (kNotSup).
  Status PutIf(const std::string& key, ByteSpan data,
               const WriteGuard& guard) override;
  Status PutRangeIf(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard& guard) override;
  Status DeleteIf(const std::string& key, const WriteGuard& guard) override;
  Status Delete(const std::string& key) override;
  Result<ObjectMeta> Head(const std::string& key) override;
  // Presents logical keys: pointer records and cold copies (and, under an
  // EC cold tier, their stripe internals) fold back into the one logical
  // object they belong to. Both namespaces are enumerated — hot-only
  // objects stay visible even when options.cold is a store with a
  // namespace disjoint from the hot store's.
  Result<std::vector<std::string>> List(const std::string& prefix) override;

  std::string name() const override;

  const TieringOptions& options() const { return options_; }

  // True if `key` is routed through the tiering path.
  bool Tiers(const std::string& key) const;

  // The cold-tier store (options().cold, or the base when null).
  const ObjectStorePtr& cold_store() const;

  // --- migration primitives (the Migrator is policy; the ordering rules
  // live here). Each aborts kAgain, counting a race, when a foreground
  // Put/PutRange/Delete in any process got there first. ---

  // Hot -> cold: EC-encode the cold copy, flip the pointer, sweep the hot
  // copy. kNoEnt when there is no hot copy to demote.
  Status DemoteObject(const std::string& key);
  // Cold -> hot: create the hot copy (authoritative immediately), flip the
  // pointer, sweep the cold copy. kNoEnt when there is no cold copy.
  Status PromoteObject(const std::string& key);
  // Repair for a key with BOTH copies resident (a crash, or an overwrite of
  // a demoted object): if the hot bytes match the pointer's content CRC the
  // demotion is completed (hot swept); otherwise hot wins (pointer flipped
  // back, cold copy swept). Cold pointers with no cold copy are flipped
  // back; dangling pointers are deleted.
  // Returns the number of orphaned objects removed (0 = nothing to do).
  Result<int> ReconcileObject(const std::string& key);

  // Every logical tiered key with any resident trace (hot copy, pointer or
  // cold copy) under `prefix` — the migrator's walk.
  Result<std::vector<std::string>> ListTiered(const std::string& prefix);

  // One key's placement + heat, as seen by one probe (migrator policy
  // input; also how `arkfs_cli tier status` learns placement). A tracked
  // key's cached tier takes the residency the probe saw.
  struct TierProbe {
    bool hot_exists = false;
    bool cold_exists = false;
    std::uint64_t hot_size = 0;
    std::optional<TierPointer> pointer;  // nullopt = missing or undecodable
    Nanos idle{0};             // time since last foreground access
    bool ever_accessed = false;  // false = no stats entry (idle is unknown)
    std::uint32_t cold_reads = 0;  // reads served cold since the demotion
  };
  Result<TierProbe> ProbeTier(const std::string& key);

  // Starts the idle clock of a key the stats plane has never seen (the
  // migrator's first sight of a pre-existing object): demotion then waits
  // one full demote_after rather than firing on an unknown age.
  void SeedAccess(const std::string& key);

  // --- access stats (persisted on the journal checkpoint cadence) ---
  // Ages are encoded relative to now (steady clocks do not survive a
  // restart) and reinstated as now-minus-age at load. Tolerant load: a
  // corrupt blob resets the stats, which only delays demotion. The cached
  // tier byte travels in the blob but is never applied on load — a
  // restarted process re-derives placement from the store (reads,
  // migrations, ProbeTier), so a stale blob can never route reads at stale
  // cold bytes.
  Bytes EncodeAccessStats() const;
  Status LoadAccessStats(ByteSpan data);
  bool ConsumeStatsDirty() { return stats_dirty_.exchange(false); }
  void MarkStatsDirty() { stats_dirty_.store(true); }

  struct Counters {
    std::uint64_t hot_gets = 0;
    std::uint64_t cold_gets = 0;
    std::uint64_t hot_puts = 0;
    std::uint64_t demotions = 0;
    std::uint64_t promotions = 0;
    std::uint64_t demoted_bytes = 0;
    std::uint64_t promoted_bytes = 0;
    std::uint64_t races = 0;          // migrations a foreground op aborted
    std::uint64_t orphans_swept = 0;  // stale copies/pointers reclaimed
    std::uint64_t pointer_flips = 0;
    std::uint64_t tracked_keys = 0;   // per-key state entries held in memory
    std::uint64_t hot_keys = 0;       // ...of which cached as hot
    std::uint64_t cold_keys = 0;      // ...of which cached as cold
  };
  Counters counters() const;

 private:
  enum class CachedTier : std::uint8_t { kUnknown, kHot, kCold };

  struct KeyState {
    TimePoint last_access{};
    std::uint64_t reads = 0;       // cumulative foreground reads
    std::uint32_t cold_reads = 0;  // reads served cold since last demotion
    CachedTier tier = CachedTier::kUnknown;
  };
  struct StateShard {
    mutable std::mutex mu;
    std::unordered_map<std::string, KeyState> keys;
  };

  // The pointer record as a migration read it: the exact bytes its flip is
  // guarded on (nullopt = absent) and their decode (nullopt = undecodable).
  struct PointerRecord {
    std::optional<Bytes> raw;
    std::optional<TierPointer> pointer;

    WriteGuard guard() const {
      return raw ? WriteGuard{0, *raw, /*whole=*/true} : WriteGuard::Absent();
    }
  };

  StateShard& ShardFor(const std::string& key) const {
    return shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  // State-map helpers (each takes the shard lock internally). Entry
  // creation funnels through StateLocked, which enforces the tracking cap
  // by evicting the longest-idle sampled entry — the map (and the stats
  // blob encoded from it) stays bounded on arbitrarily large namespaces.
  KeyState& StateLocked(StateShard& shard, const std::string& key);
  void EvictOneLocked(StateShard& shard);
  void NoteRead(const std::string& key, bool cold);
  // A foreground write landed hot: restarts the idle clock, caches kHot.
  void NoteWrite(const std::string& key);
  void SetCachedTier(const std::string& key, CachedTier tier,
                     bool reset_cold_reads);
  CachedTier GetCachedTier(const std::string& key) const;
  void EraseState(const std::string& key);

  // Enumerates both the hot and cold namespaces under `prefix` and folds
  // internal keys to their logical keys (shared by List and ListTiered).
  Result<std::vector<std::string>> FoldListings(const std::string& prefix);
  // Reads the pointer record (kNoEnt = absent); any other error fails the
  // migration, which cannot guard a flip on bytes it did not see.
  Result<PointerRecord> LoadPointer(const std::string& key);
  // Writes {tier, gen+1, size and CRC of `covered`} to K..tp, guarded on
  // `prior`. kStale: the record moved since; kNoEnt: a Delete removed it. A
  // flip whose ack was lost reads back its own bytes and counts as landed.
  Result<PointerRecord> FlipPointer(const std::string& key,
                                    const PointerRecord& prior, Tier tier,
                                    ByteSpan covered);
  // The body of Get and GetRange; `read(store, key)` is the store call.
  template <typename ReadFn>
  Result<Bytes> ReadHotFirst(const std::string& key, ReadFn read);
  // Shared hot-miss logic for Get/GetRange/Head: true when the pointer says
  // cold, or is absent or corrupt (a salvage probe); never when unreachable.
  bool ShouldTryCold(const std::string& key);

  const TieringOptions options_;
  ObjectStorePtr cold_;  // options_.cold, or base() when null
  std::size_t shard_key_cap_ = 0;  // max_tracked_keys / shard count
  mutable std::array<StateShard, 16> shards_;
  std::atomic<bool> stats_dirty_{false};

  // "tier.*" metric cells.
  obs::Counter hot_gets_, cold_gets_, hot_puts_, demotions_, promotions_,
      demoted_bytes_, promoted_bytes_, races_, orphans_swept_, pointer_flips_;
};

using TieringStorePtr = std::shared_ptr<TieringStore>;

// --- Migrator — demote/promote passes over a TieringStore ---
//
// Modeled on the Scrubber: a thread-pool walk, run when an operator or a
// bench calls RunOnce (`arkfs_cli tier migrate`/`tier demote`); nothing
// migrates in the background. Each pass walks every tiered key, sweeps
// crash leftovers (both-copies-resident, dangling pointers), demotes keys
// idle past demote_after, and promotes cold keys whose read heat crossed
// promote_reads. Every mutation is guarded at the store inside
// TieringStore, so a pass racing foreground writes — from this process or
// another — aborts per key instead of losing bytes. One migrator runs per
// image: passes within a process are serialized; two processes migrating
// one image at once are not coordinated.

struct MigratorOptions {
  int threads = 2;              // keys migrated concurrently
  // Policy knobs.
  Nanos demote_after = Seconds(300);  // idle time before demotion; 0 = at once
  std::uint32_t promote_reads = 3;    // cold reads before promotion
  // Keys never seen by the stats plane (fresh restart with no persisted
  // blob) are seeded on first sight and demoted one full demote_after
  // later — unless demote_after is 0, which always demotes on sight.
  // Where the "tier.migrate.*" cells attach; null = process default.
  obs::MetricsRegistry* metrics = nullptr;

  static MigratorOptions ForTests() {
    MigratorOptions o;
    o.threads = 4;
    o.demote_after = Millis(50);
    return o;
  }
};

// One pass's tally (also mirrored into the tier.migrate.* counters).
struct MigrationReport {
  std::uint64_t scanned = 0;           // tiered keys probed
  std::uint64_t demoted = 0;
  std::uint64_t promoted = 0;
  std::uint64_t demote_failures = 0;   // errored (retried next pass)
  std::uint64_t promote_failures = 0;
  std::uint64_t races = 0;             // aborted by concurrent overwrites
  std::uint64_t orphans_swept = 0;     // crash leftovers reclaimed
  std::uint64_t demoted_bytes = 0;

  std::string ToString() const;
};

class Migrator {
 public:
  Migrator(TieringStorePtr store, MigratorOptions options);

  Migrator(const Migrator&) = delete;
  Migrator& operator=(const Migrator&) = delete;

  // One full migration pass, synchronously. Safe to call concurrently with
  // foreground I/O (every mutation is guarded at the store) and with
  // another RunOnce on this migrator (passes are serialized).
  Result<MigrationReport> RunOnce();

  const MigratorOptions& options() const { return options_; }

 private:
  void ProcessKey(const std::string& key, MigrationReport* report,
                  std::mutex* report_mu);

  const MigratorOptions options_;
  TieringStorePtr store_;

  std::mutex run_mu_;  // one pass at a time

  // "tier.migrate.*" cells.
  obs::Counter passes_, scanned_, demoted_, promoted_, demote_failures_,
      promote_failures_, orphans_swept_, races_;
  obs::Gauge last_scanned_, last_demoted_;
};

using MigratorPtr = std::shared_ptr<Migrator>;

}  // namespace arkfs
