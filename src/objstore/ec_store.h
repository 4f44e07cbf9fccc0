// EcStore — the erasure-coded archive tier (reconstruct-on-read).
//
// A StoreDecorator that stripes selected objects (by default: everything;
// the cluster wires a data-chunk-only predicate so PRT chunks are EC-placed
// while metadata keeps its journaled/CoW protection) into k data + m parity
// shards, Reed–Solomon over GF(2^8), written to k+m DISTINCT storage nodes
// when a placement probe is available. Reads are served from the k data
// shards on the healthy path (systematic code: zero field arithmetic) and
// transparently reconstruct from any k of k+m shards when nodes are down or
// a shard fails its CRC — corruption is counted ("ec.read.corrupt"), never
// silently returned.
//
// Object layout for a logical key K (generation g, hex-encoded). Internal
// objects live in a reserved "..ec" namespace — logical keys containing
// that sentinel are never encoded (Encodes() refuses them), so a logical
// key can never be mistaken for (or collide with) an internal one:
//   K..ecm<r><ss>       stripe-manifest copy r (r = 0..m, salt ss) — m+1
//                       identical CRC-covered copies on distinct nodes, so
//                       at least one survives any m node outages
//   K..ecs<ii><ss>.g<gggggggg>
//                       shard ii (00..k+m-1) of generation g, salt ss
//
// Write protocol (overwrite-safe, copy-on-write by generation):
//   1. encode shards for generation g = old_g + 1, pick salts so shard
//      primaries are pairwise distinct, PUT all k+m shard objects;
//   2. PUT the m+1 manifest copies (the flip: readers now see g);
//   3. best-effort delete the old generation's shards.
// A crash between 1 and 2 leaves the old stripe fully intact (old manifest,
// old shards); the orphaned new-generation shards are overwritten by the
// next write of K or swept by the scrubber once a newer manifest lands.
//
// The same ordering rule governs repair (scrubber.h): a repaired shard is
// PUT strictly before any manifest copy is touched, and repair only ever
// rewrites byte-identical content — a crashed repair can therefore never
// reduce the redundancy the manifest promises.
//
// Concurrent writers to the SAME logical key must be serialized by the
// layer above (the PRT's chunk-write locks and file leases already do);
// EcStore additionally stripes same-key Puts through an internal lock so
// one in-process instance is safe by construction.
#pragma once

#include <array>
#include <functional>
#include <mutex>
#include <optional>

#include "common/codec.h"
#include "objstore/async_io.h"
#include "objstore/ec_codec.h"
#include "objstore/store_decorator.h"
#include "obs/metrics.h"

namespace arkfs {

class ClusterObjectStore;

// --- persisted stripe formats (strict decode, like the lease epoch record:
// magic + version + CRC; torn prefixes and bit flips must never decode) ---

inline constexpr std::uint32_t kEcManifestMagic = 0x414B4543u;  // "AKEC"
inline constexpr std::uint32_t kEcShardMagic = 0x414B4553u;     // "AKES"
inline constexpr std::uint8_t kEcFormatVersion = 1;

struct EcShardInfo {
  std::uint8_t salt = 0;      // placement salt baked into the shard key
  std::uint32_t crc = 0;      // CRC32C of the shard payload
};

struct StripeManifest {
  std::uint8_t k = 0;
  std::uint8_t m = 0;
  std::uint64_t object_size = 0;
  std::uint64_t gen = 0;        // stripe generation (monotonic per key)
  std::uint64_t stripe_id = 0;  // ties shards to this exact write
  std::vector<EcShardInfo> shards;  // k + m entries

  std::uint64_t shard_size() const {
    return k == 0 ? 0 : (object_size + k - 1) / k;
  }
};

Bytes EncodeStripeManifest(const StripeManifest& m);
Result<StripeManifest> DecodeStripeManifest(ByteSpan data);

struct EcShardHeader {
  std::uint8_t index = 0;
  std::uint64_t gen = 0;
  std::uint64_t stripe_id = 0;
  std::uint32_t payload_crc = 0;
};

Bytes EncodeShardObject(const EcShardHeader& header, ByteSpan payload);
struct EcShardObject {
  EcShardHeader header;
  Bytes payload;
};
Result<EcShardObject> DecodeShardObject(ByteSpan data);

// EC-internal key helpers (exposed for the scrubber and tests).
std::string EcManifestKey(const std::string& key, int copy, std::uint8_t salt);
std::string EcShardKey(const std::string& key, int index, std::uint8_t salt,
                       std::uint64_t gen);
// Classifies a raw store key: logical (not EC-internal), manifest copy, or
// shard. For internal keys *logical receives the logical key.
enum class EcKeyKind { kLogical, kManifest, kShard };
EcKeyKind ClassifyEcKey(const std::string& raw, std::string* logical,
                        std::uint64_t* gen = nullptr);

struct EcStoreOptions {
  // Stripe geometry. Validated at runtime by the EcStore constructor (not
  // assert-only): m is clamped to [0, 15] (the 1-hex manifest copy digit
  // and the salts array), k to [1, 255 - m] (2-hex shard index, GF(2^8)).
  int k = 4;
  int m = 2;
  // Only keys this predicate accepts are erasure-coded; everything else
  // passes through to the base store untouched. Null = encode everything.
  std::function<bool(const std::string&)> should_encode;
  // Deterministic key -> primary-node probe used to spread the k+m shards
  // (and the m+1 manifest copies) across distinct nodes. Null = rely on the
  // base store's hash placement only.
  std::function<int(const std::string&)> placement;
  // Fan-out pool for shard/manifest batches.
  AsyncIoConfig async;
  // Where the "ec.*" cells attach; null = process default registry.
  obs::MetricsRegistry* metrics = nullptr;

  static EcStoreOptions Defaults() { return {}; }
};

// Walks a StoreDecorator chain looking for a ClusterObjectStore and returns
// a primary-node placement probe over it (null if the stack has none). The
// returned closure keeps the stack alive.
std::function<int(const std::string&)> ClusterPrimaryPlacement(
    const ObjectStorePtr& stack);

class EcStore : public StoreDecorator {
 public:
  EcStore(ObjectStorePtr base, EcStoreOptions options);
  ~EcStore() override;

  Result<Bytes> Get(const std::string& key) override;
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override;
  Status Put(const std::string& key, ByteSpan data) override;
  // EC objects are whole-stripe writes; PutRange on an encoded key returns
  // kNotSup, and Prt::WriteData rewrites the whole chunk instead (its
  // read-modify-write re-encodes the stripe and keeps parity consistent).
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override;
  // Guarded writes and deletes pass through on keys this store does not
  // encode; an encoded key has no single object to compare against
  // (kNotSup).
  Status PutIf(const std::string& key, ByteSpan data,
               const WriteGuard& guard) override;
  Status PutRangeIf(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard& guard) override;
  Status Delete(const std::string& key) override;
  Status DeleteIf(const std::string& key, const WriteGuard& guard) override;
  Result<ObjectMeta> Head(const std::string& key) override;
  // Presents logical keys: EC-internal manifest/shard keys are folded back
  // into the one logical object they belong to.
  Result<std::vector<std::string>> List(const std::string& prefix) override;

  bool supports_partial_write() const override { return false; }
  std::string name() const override;

  const EcStoreOptions& options() const { return options_; }
  // The fan-out layer for this store's shard/manifest batches; scrub and
  // migration passes over the tier run their per-key work on it too.
  const AsyncObjectIoPtr& async() const { return async_; }

  // True if `key` is routed through the EC path.
  bool Encodes(const std::string& key) const;

  // Every logical key with at least one reachable manifest copy under
  // `prefix` (the scrubber's walk; survives down nodes hiding some copies).
  Result<std::vector<std::string>> ListStripes(const std::string& prefix);

  // Loads the first decodable manifest copy. `copies_bad` (optional) counts
  // copies that exist but fail strict decode. kNoEnt = no copy exists (the
  // key is not EC-placed).
  Result<StripeManifest> LoadManifest(const std::string& key,
                                      int* copies_bad = nullptr);

  // Per-stripe health, as seen by one sweep (scrubber.cc consumes this).
  struct StripeProbe {
    StripeManifest manifest;
    int manifest_copies_bad = 0;      // undecodable/corrupt manifest copies
    int manifest_copies_missing = 0;  // kNoEnt: the copy truly is not there
    // Store error (node down): the copy is presumed intact on the dead
    // node. Like unreachable shards, these are never "repaired" — a rewrite
    // based on a stale probe could roll back a concurrent overwrite.
    int manifest_copies_unreachable = 0;
    std::vector<int> good;            // shard indices verified intact
    std::vector<int> corrupt;         // present but CRC/decode/id mismatch
    std::vector<int> missing;         // kNoEnt
    std::vector<int> unreachable;     // store error (node down): not corrupt
  };
  Result<StripeProbe> ProbeStripe(const std::string& key);

  // Re-encodes and rewrites the given shards (and any bad or truly-missing
  // manifest copies — unreachable ones are left alone) from >= k good
  // shards, honoring the repair ordering rule. Returns the number of shards
  // actually repaired; fails kIo when fewer than k shards are readable.
  // The whole mutation holds KeyLock(key), serializing against Put/Delete
  // in this instance, and the manifest is re-read both immediately after
  // taking the lock and immediately before any manifest rewrite; the repair
  // aborts (kAgain) if the generation moved — an overwrite won the race
  // and the stale probe must not resurrect old shards or old manifests.
  Result<int> RepairStripe(const std::string& key, const StripeProbe& probe);

  // Deletes shard objects of generations older than the manifest's (the
  // leftovers of a crashed overwrite's step 3). Returns how many were swept.
  Result<int> SweepOrphans(const std::string& key, const StripeManifest& m);

  // Read-side counters (the scrubber owns the scrub.* set).
  struct Counters {
    std::uint64_t encodes = 0;
    std::uint64_t degraded_reads = 0;
    std::uint64_t reconstructs = 0;
    std::uint64_t read_corrupt = 0;
  };
  Counters counters() const;

 private:
  struct LoadedManifest {
    StripeManifest manifest;
    std::string mkey;  // the copy it decoded from (its Head supplies mtime)
  };

  // Deterministic salts for the m+1 manifest copies of `key` (readers and
  // writers derive the same sequence from the placement probe).
  std::array<std::uint8_t, 16> ManifestSalts(const std::string& key) const;

  Result<LoadedManifest> LoadManifestInternal(const std::string& key,
                                              int* copies_bad,
                                              int* copies_missing,
                                              int* copies_unreachable) const;

  // Assembles [offset, offset+length) of the stripe, fetching only the
  // covering data shards on the healthy path and falling back to full
  // reconstruction when any of them is missing/corrupt.
  Result<Bytes> ReadStripe(const std::string& key, const StripeManifest& m,
                           std::uint64_t offset, std::uint64_t length);

  // Fetches + strictly validates one shard against the manifest.
  Result<Bytes> FetchShard(const std::string& key, const StripeManifest& m,
                           int index) const;

  std::mutex& KeyLock(const std::string& key) {
    return key_mu_[std::hash<std::string>{}(key) % key_mu_.size()];
  }

  const EcStoreOptions options_;
  ec::RsCodec codec_;
  AsyncObjectIoPtr async_;
  std::array<std::mutex, 64> key_mu_;
  std::atomic<std::uint64_t> stripe_salt_{0};

  // "ec.*" metric cells (the obs plane rolls them up process-wide).
  obs::Counter encodes_, degraded_reads_, reconstructs_, read_corrupt_;

  friend class Scrubber;
};

using EcStorePtr = std::shared_ptr<EcStore>;

}  // namespace arkfs
