// TieringStore — access-driven hot/cold data placement (the tiering half of
// the archive tier; EcStore from PR 7 is the durability half).
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
// hot first — ALWAYS, on every read — and consult the pointer/cold copy
// only on a hot miss. The in-memory cached tier is purely a fallback-
// ordering hint (on a hot miss it skips the pointer read); it never
// routes a read past the hot copy, because the cache can be stale in
// exactly the states a crash leaves behind. This is what makes every
// crash state safe (see the matrix in DESIGN.md §4.9): a stale cold copy
// or a stale pointer can linger after a crash, but it can never shadow
// newer acked hot bytes — it is storage to reclaim (the migrator's
// reconcile pass sweeps it), never a correctness hazard.
//
// Migration protocol (copy -> flip -> sweep, same discipline as dentry
// shards and EC generations):
//   demote:  1. PUT K..cold (EC encode) — the copy;
//            2. PUT K..tp {cold, gen+1} — the flip;
//            3. DELETE K — the sweep (and, under hot-first reads, the real
//               visibility switch).
//   promote: 1. PUT K (byte-identical hot copy) — authoritative at once;
//            2. PUT K..tp {hot, gen+1}; 3. DELETE K..cold.
// Steps 2+3 (and promote's 1-3) run under the per-key lock with a mutation-
// sequence re-check, so a concurrent overwrite aborts the migration
// (kAgain) instead of being destroyed. Cross-process crash safety needs no
// locks: any prefix of the protocol leaves either the hot copy authoritative
// or a complete cold object behind the flipped pointer.
//
// Concurrent writers to the SAME logical key must be serialized by the
// layer above (the PRT's chunk-write locks and file leases already do);
// like EcStore, one in-process instance is additionally safe by
// construction via its internal per-key locks.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
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
  // clock / read heat, never bytes or fencing (mutation sequences are
  // shard-monotonic, so an evicted-and-recreated key can never replay a
  // fence value a migration already snapshotted).
  std::size_t max_tracked_keys = 65536;

  static TieringOptions Defaults() { return {}; }
};

class TieringStore : public StoreDecorator {
 public:
  TieringStore(ObjectStorePtr hot, TieringOptions options);

  Result<Bytes> Get(const std::string& key) override;
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override;
  Status Put(const std::string& key, ByteSpan data) override;
  // Partial writes only ever land on the hot copy. On a cold-resident key
  // this returns kNotSup so the PRT falls back to read-modify-write, which
  // reads through the cold path and rewrites the whole chunk hot.
  // Residency is decided under the per-key lock (never from the cached
  // tier): base stores create missing objects on PutRange, so a partial
  // write racing a demotion must not plant a truncated hot fragment that
  // hot-first reads would then serve as the whole object.
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override;
  // Guarded writes pass through on keys this store does not tier; a tiered
  // key may live in either tier, so it has no one object to compare
  // against (kNotSup).
  Status PutIf(const std::string& key, ByteSpan data,
               const WriteGuard& guard) override;
  Status PutRangeIf(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard& guard) override;
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
  // live here). All three serialize against foreground Put/Delete via the
  // per-key lock and abort kAgain when an overwrite raced the copy. ---

  // Hot -> cold: EC-encode the cold copy, flip the pointer, sweep the hot
  // copy. kNoEnt when there is no hot copy to demote.
  Status DemoteObject(const std::string& key);
  // Cold -> hot: rewrite the hot copy (authoritative immediately), flip the
  // pointer, sweep the cold copy. kNoEnt when there is no cold copy.
  Status PromoteObject(const std::string& key);
  // Crash repair for a key with BOTH copies resident: if the hot bytes
  // still match the pointer's content CRC the demotion is completed (hot
  // swept); otherwise the hot copy is newer and wins (pointer flipped back,
  // cold copy swept). Dangling pointers (no copy left) are deleted.
  // Returns the number of orphaned objects removed (0 = nothing to do).
  Result<int> ReconcileObject(const std::string& key);

  // Every logical tiered key with any resident trace (hot copy, pointer or
  // cold copy) under `prefix` — the migrator's walk.
  Result<std::vector<std::string>> ListTiered(const std::string& prefix);

  // One key's placement + heat, as seen by one probe (migrator policy
  // input; also how `arkfs_cli tier` explains a key).
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
  // tier byte travels in the blob (for `tier status` debugging) but is
  // never applied on load — a restarted process re-derives placement from
  // the store, so a stale blob can never route reads at stale cold bytes.
  Bytes EncodeAccessStats() const;
  Status LoadAccessStats(ByteSpan data);
  bool ConsumeStatsDirty() { return stats_dirty_.exchange(false); }
  void MarkStatsDirty() { stats_dirty_.store(true); }

  // Human-readable placement + counter summary for Introspect().
  std::string StatsText() const;

  struct Counters {
    std::uint64_t hot_gets = 0;
    std::uint64_t cold_gets = 0;
    std::uint64_t hot_puts = 0;
    std::uint64_t demotions = 0;
    std::uint64_t promotions = 0;
    std::uint64_t demoted_bytes = 0;
    std::uint64_t promoted_bytes = 0;
    std::uint64_t races = 0;          // migrations aborted by an overwrite
    std::uint64_t orphans_swept = 0;  // stale copies/pointers reclaimed
    std::uint64_t pointer_flips = 0;
  };
  Counters counters() const;

 private:
  enum class CachedTier : std::uint8_t { kUnknown, kHot, kCold };

  struct KeyState {
    TimePoint last_access{};
    std::uint64_t seq = 0;         // in-memory mutation counter (fencing)
    std::uint64_t reads = 0;       // cumulative foreground reads
    std::uint32_t cold_reads = 0;  // reads served cold since last demotion
    CachedTier tier = CachedTier::kUnknown;
  };
  struct StateShard {
    mutable std::mutex mu;
    std::unordered_map<std::string, KeyState> keys;
    // Fence values are drawn from this shard-wide counter, never per-entry:
    // an entry evicted under the tracking cap and later recreated must not
    // replay a sequence a concurrent migration already snapshotted.
    std::uint64_t next_seq = 0;
  };

  StateShard& ShardFor(const std::string& key) const {
    return shards_[std::hash<std::string>{}(key) % shards_.size()];
  }
  std::mutex& KeyLock(const std::string& key) {
    return key_mu_[std::hash<std::string>{}(key) % key_mu_.size()];
  }

  // State-map helpers (each takes the shard lock internally). Entry
  // creation funnels through StateLocked, which enforces the tracking cap
  // by evicting the longest-idle sampled entry — the map (and the stats
  // blob encoded from it) stays bounded on arbitrarily large namespaces.
  KeyState& StateLocked(StateShard& shard, const std::string& key);
  void EvictOneLocked(StateShard& shard);
  std::uint64_t SeqSnapshot(const std::string& key) const;
  void NoteRead(const std::string& key, bool cold);
  std::uint64_t BumpSeq(const std::string& key);  // returns the new seq
  void SetCachedTier(const std::string& key, CachedTier tier,
                     bool reset_cold_reads);
  CachedTier GetCachedTier(const std::string& key) const;
  void EraseState(const std::string& key);

  // Enumerates both the hot and cold namespaces under `prefix` and folds
  // internal keys to their logical keys (shared by List and ListTiered).
  Result<std::vector<std::string>> FoldListings(const std::string& prefix);
  // Reads + strictly decodes the pointer record. nullopt = kNoEnt or a
  // record that failed strict decode (treated as absent: reads salvage via
  // the cold copy, the migrator rewrites it on the next flip).
  std::optional<TierPointer> ReadPointer(const std::string& key);
  // Shared hot-miss logic for Get/GetRange/Head: true when the cold copy
  // should be consulted for this key (pointer says cold, or is missing and
  // a salvage attempt is warranted).
  bool ShouldTryCold(const std::string& key);

  const TieringOptions options_;
  ObjectStorePtr cold_;  // options_.cold, or base() when null
  std::size_t shard_key_cap_ = 0;  // max_tracked_keys / shard count
  mutable std::array<StateShard, 16> shards_;
  std::array<std::mutex, 64> key_mu_;
  std::atomic<bool> stats_dirty_{false};

  // "tier.*" metric cells.
  obs::Counter hot_gets_, cold_gets_, hot_puts_, demotions_, promotions_,
      demoted_bytes_, promoted_bytes_, races_, orphans_swept_, pointer_flips_;
};

using TieringStorePtr = std::shared_ptr<TieringStore>;

// --- Migrator — background demote/promote policy over a TieringStore ---
//
// Modeled on the Scrubber: a thread-pool walk, rate-limited by an
// objects/second token bucket so a migration pass over a large namespace
// cannot starve foreground I/O. Each pass walks every tiered key, sweeps
// crash leftovers (both-copies-resident, dangling pointers), demotes keys
// idle past demote_after, and promotes cold keys whose read heat crossed
// promote_reads. All mutations are sequence-fenced inside TieringStore, so
// a pass racing foreground writes aborts per-key instead of losing bytes.

struct MigratorOptions {
  int threads = 2;              // keys migrated concurrently
  double objects_per_sec = 0;   // token-bucket pace; 0 = unpaced
  Nanos interval = Seconds(30); // idle time between background passes
  std::string prefix;           // restrict the walk (default: everything)
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
    o.interval = Millis(50);
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
  ~Migrator();

  Migrator(const Migrator&) = delete;
  Migrator& operator=(const Migrator&) = delete;

  // One full migration pass, synchronously. Safe to call concurrently with
  // foreground I/O (every mutation is sequence-fenced per key).
  Result<MigrationReport> RunOnce();

  // Background loop: RunOnce every options.interval until Stop().
  void Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // Cumulative counters + last-pass summary, for Vfs::Introspect().
  std::string ReportText() const;

  const MigratorOptions& options() const { return options_; }

 private:
  void Pace();  // token bucket: blocks until this key may proceed
  void ProcessKey(const std::string& key, MigrationReport* report,
                  std::mutex* report_mu);
  void BackgroundMain();

  const MigratorOptions options_;
  TieringStorePtr store_;

  std::mutex pace_mu_;
  TimePoint next_slot_{};

  mutable std::mutex last_mu_;
  MigrationReport last_;
  bool ever_ran_ = false;

  std::atomic<bool> running_{false};
  std::thread background_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;

  // "tier.migrate.*" cells.
  obs::Counter passes_, scanned_, demoted_, promoted_, demote_failures_,
      promote_failures_, orphans_swept_, races_;
  obs::Gauge last_scanned_, last_demoted_;
};

using MigratorPtr = std::shared_ptr<Migrator>;

}  // namespace arkfs
