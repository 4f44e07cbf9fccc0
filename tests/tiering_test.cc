// Tests for the tiered data path: the tier-pointer codec (strict, same bar
// as the EC stripe manifest), TieringStore placement/migration semantics,
// the Migrator policy loop, crash safety of the copy->flip->sweep protocol
// under injected faults, and the StackBuilder's canonical-order enforcement.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string_view>

#include "objstore/chaos_store.h"
#include "objstore/cluster_store.h"
#include "objstore/instrumented_store.h"
#include "objstore/memory_store.h"
#include "objstore/retrying_store.h"
#include "objstore/stack_builder.h"
#include "objstore/tiering_store.h"
#include "prt/key_schema.h"
#include "prt/translator.h"

namespace arkfs {
namespace {

Bytes Payload(int seed, std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((seed * 131 + static_cast<int>(i)) & 0xff);
  }
  return b;
}

bool IsDataKey(const std::string& key) {
  return !key.empty() && key.front() == 'd';
}

// --- tier pointer codec: strict decode, same bar as the EC manifest ---

TierPointer TestPointer() {
  TierPointer p;
  p.tier = Tier::kCold;
  p.gen = 41;
  p.object_size = 123456;
  p.content_crc = 0xA0B0C0D0u;
  return p;
}

TEST(TierPointerCodec, RoundTrip) {
  const TierPointer p = TestPointer();
  auto decoded = DecodeTierPointer(EncodeTierPointer(p));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tier, p.tier);
  EXPECT_EQ(decoded->gen, p.gen);
  EXPECT_EQ(decoded->object_size, p.object_size);
  EXPECT_EQ(decoded->content_crc, p.content_crc);
}

TEST(TierPointerCodec, RejectsEveryTruncationAndBitFlip) {
  const Bytes encoded = EncodeTierPointer(TestPointer());
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    Bytes truncated(encoded.begin(),
                    encoded.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(DecodeTierPointer(truncated).ok())
        << "decoded a " << len << "-byte torn prefix";
  }
  Bytes padded = encoded;
  padded.push_back(0x5a);
  EXPECT_FALSE(DecodeTierPointer(padded).ok()) << "trailing garbage";
  for (std::size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = encoded;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(DecodeTierPointer(flipped).ok())
          << "decoded with bit " << bit << " of byte " << byte << " flipped";
    }
  }
}

TEST(TierPointerCodec, KeyClassification) {
  const std::string key = "dabc.0000000000000001";
  std::string logical;
  EXPECT_EQ(ClassifyTierKey(key, &logical), TierKeyKind::kLogical);
  EXPECT_EQ(logical, key);
  EXPECT_EQ(ClassifyTierKey(TierPointerKey(key), &logical),
            TierKeyKind::kPointer);
  EXPECT_EQ(logical, key);
  EXPECT_EQ(ClassifyTierKey(ColdCopyKey(key), &logical),
            TierKeyKind::kColdCopy);
  EXPECT_EQ(logical, key);
  // Under an EC cold tier the cold copy's stripe internals live BELOW the
  // "..cold" sentinel; every one of them folds to the same logical key.
  EXPECT_EQ(ClassifyTierKey(ColdCopyKey(key) + "..ecm007", &logical),
            TierKeyKind::kColdCopy);
  EXPECT_EQ(logical, key);
  EXPECT_EQ(ClassifyTierKey(ColdCopyKey(key) + "..ecs0107.g00000001",
                            &logical),
            TierKeyKind::kColdCopy);
  EXPECT_EQ(logical, key);
}

TEST(PlacementEvidenceProbe, ClassifiesImagesByResidentKeys) {
  // Replica-only image: no evidence either way.
  MemoryObjectStore replica;
  ASSERT_TRUE(replica.Put("dabc.0001", Payload(1, 16)).ok());
  auto ev = ProbePlacementEvidence(replica);
  ASSERT_TRUE(ev.ok());
  EXPECT_FALSE(ev->ec_data_chunks);
  EXPECT_FALSE(ev->tier_records);

  // Data-path EC stripes: manifest keys with no "..cold" above them.
  MemoryObjectStore ec;
  ASSERT_TRUE(ec.Put("dabc.0001..ecm007", Payload(2, 16)).ok());
  ev = ProbePlacementEvidence(ec);
  ASSERT_TRUE(ev.ok());
  EXPECT_TRUE(ev->ec_data_chunks);
  EXPECT_FALSE(ev->tier_records);

  // Tiered image: pointers + cold copies (even EC-encoded ones — their
  // manifests sit under "..cold" and must NOT read as data-path EC).
  MemoryObjectStore tiered;
  ASSERT_TRUE(tiered.Put("dxyz.0002..tp", Payload(3, 16)).ok());
  ASSERT_TRUE(tiered.Put("dxyz.0002..cold..ecm007", Payload(4, 16)).ok());
  ev = ProbePlacementEvidence(tiered);
  ASSERT_TRUE(ev.ok());
  EXPECT_FALSE(ev->ec_data_chunks);
  EXPECT_TRUE(ev->tier_records);

  // A genuinely mixed image shows both.
  ASSERT_TRUE(tiered.Put("dabc.0001..ecm007", Payload(5, 16)).ok());
  ev = ProbePlacementEvidence(tiered);
  ASSERT_TRUE(ev.ok());
  EXPECT_TRUE(ev->ec_data_chunks);
  EXPECT_TRUE(ev->tier_records);
}

// --- TieringStore semantics over a memory store ---
//
// The cold tier is left null (cold copies are plain base objects) so every
// assertion sees raw residency; the EC-cold composition is covered by
// TieringSmoke below.

class TieringStoreTest : public ::testing::Test {
 protected:
  TieringStoreTest() {
    mem_ = std::make_shared<MemoryObjectStore>();
    counting_ = std::make_shared<InstrumentedStore>(mem_, &registry_);
    TieringOptions options;
    options.should_tier = IsDataKey;
    options.metrics = &registry_;
    tiering_ = std::make_shared<TieringStore>(counting_, options);
  }

  obs::MetricsRegistry registry_;
  std::shared_ptr<MemoryObjectStore> mem_;
  std::shared_ptr<InstrumentedStore> counting_;
  TieringStorePtr tiering_;
};

TEST_F(TieringStoreTest, HotPathAddsNoExtraIo) {
  const Bytes data = Payload(1, 512);
  ASSERT_TRUE(tiering_->Put("d-hot", data).ok());
  auto got = tiering_->Get("d-hot");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
  // Fresh ingest + hot read are byte-identical to the un-tiered layout:
  // exactly one base put and one base get, no pointer records touched.
  const InstrumentedStore::Counters c = counting_->Snapshot();
  EXPECT_EQ(c.puts, 1u);
  EXPECT_EQ(c.gets, 1u);
  EXPECT_FALSE(mem_->Head(TierPointerKey("d-hot")).ok());

  // A partial write to a hot chunk is exactly one store call: the guarded
  // range write itself, with no residency probe in front of it.
  counting_->Reset();
  ASSERT_TRUE(tiering_->PutRange("d-hot", 8, Payload(2, 16)).ok());
  const InstrumentedStore::Counters r = counting_->Snapshot();
  EXPECT_EQ(r.puts, 1u);
  EXPECT_EQ(r.gets + r.heads + r.deletes + r.lists, 0u);
}

TEST_F(TieringStoreTest, DemoteThenReadServesColdBytes) {
  const Bytes data = Payload(2, 2048);
  ASSERT_TRUE(tiering_->Put("d-x", data).ok());
  ASSERT_TRUE(tiering_->DemoteObject("d-x").ok());

  auto probe = tiering_->ProbeTier("d-x");
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe->hot_exists);
  EXPECT_TRUE(probe->cold_exists);
  ASSERT_TRUE(probe->pointer.has_value());
  EXPECT_EQ(probe->pointer->tier, Tier::kCold);
  EXPECT_EQ(probe->pointer->gen, 1u);
  EXPECT_EQ(probe->pointer->object_size, data.size());
  EXPECT_EQ(probe->pointer->content_crc, Crc32c(data));

  auto got = tiering_->Get("d-x");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
  auto ranged = tiering_->GetRange("d-x", 100, 50);
  ASSERT_TRUE(ranged.ok());
  EXPECT_EQ(*ranged, Bytes(data.begin() + 100, data.begin() + 150));

  const TieringStore::Counters c = tiering_->counters();
  EXPECT_EQ(c.demotions, 1u);
  EXPECT_EQ(c.demoted_bytes, data.size());
  EXPECT_GE(c.cold_gets, 2u);
}

TEST_F(TieringStoreTest, PromoteRestoresHotCopy) {
  const Bytes data = Payload(3, 1024);
  ASSERT_TRUE(tiering_->Put("d-p", data).ok());
  ASSERT_TRUE(tiering_->DemoteObject("d-p").ok());
  ASSERT_TRUE(tiering_->PromoteObject("d-p").ok());

  auto probe = tiering_->ProbeTier("d-p");
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->hot_exists);
  EXPECT_FALSE(probe->cold_exists);
  ASSERT_TRUE(probe->pointer.has_value());
  EXPECT_EQ(probe->pointer->tier, Tier::kHot);
  EXPECT_EQ(probe->pointer->gen, 2u);  // monotonic across flips

  auto got = tiering_->Get("d-p");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
  EXPECT_EQ(tiering_->counters().promotions, 1u);
  // Nothing cold left to promote.
  EXPECT_EQ(tiering_->PromoteObject("d-p").code(), Errc::kNoEnt);
}

TEST_F(TieringStoreTest, OverwriteAfterDemotionFlipsBack) {
  ASSERT_TRUE(tiering_->Put("d-o", Payload(4, 256)).ok());
  ASSERT_TRUE(tiering_->DemoteObject("d-o").ok());
  const Bytes fresh = Payload(5, 300);
  ASSERT_TRUE(tiering_->Put("d-o", fresh).ok());

  auto got = tiering_->Get("d-o");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, fresh);
  // Reconcile (the migrator's pass) sweeps the stale cold copy and
  // re-points hot.
  ASSERT_TRUE(tiering_->ReconcileObject("d-o").ok());
  auto probe = tiering_->ProbeTier("d-o");
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->hot_exists);
  EXPECT_FALSE(probe->cold_exists);
  ASSERT_TRUE(probe->pointer.has_value());
  EXPECT_EQ(probe->pointer->tier, Tier::kHot);
}

TEST_F(TieringStoreTest, DeleteRemovesEveryResidentCopy) {
  ASSERT_TRUE(tiering_->Put("d-del", Payload(6, 128)).ok());
  ASSERT_TRUE(tiering_->DemoteObject("d-del").ok());
  ASSERT_TRUE(tiering_->Delete("d-del").ok());
  EXPECT_FALSE(mem_->Head("d-del").ok());
  EXPECT_FALSE(mem_->Head(TierPointerKey("d-del")).ok());
  EXPECT_FALSE(mem_->Head(ColdCopyKey("d-del")).ok());
  EXPECT_EQ(tiering_->Get("d-del").status().code(), Errc::kNoEnt);
}

// A fault on the cold removal of a demoted key fails the Delete and keeps
// the object whole behind its pointer; a retried Delete finishes it.
TEST(TieringDeleteTest, FailedColdRemovalKeepsTheObjectForARetry) {
  const std::string key = "d-del-fault";
  const Bytes data = Payload(9, 256);
  auto mem = std::make_shared<MemoryObjectStore>();
  bool armed = false;
  auto faulty = std::make_shared<ChaosStore>(
      mem, ChaosConfig{}, [&](std::string_view op, const std::string& k) {
        return armed && op == "delete" && k == ColdCopyKey(key) ? Errc::kIo
                                                                : Errc::kOk;
      });
  TieringOptions options;
  options.should_tier = IsDataKey;
  TieringStore tiering(faulty, options);
  ASSERT_TRUE(tiering.Put(key, data).ok());
  ASSERT_TRUE(tiering.DemoteObject(key).ok());

  armed = true;
  EXPECT_EQ(tiering.Delete(key).code(), Errc::kIo);
  auto got = tiering.Get(key);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, data);

  armed = false;
  EXPECT_TRUE(tiering.Delete(key).ok());
  EXPECT_EQ(tiering.Get(key).status().code(), Errc::kNoEnt);
  EXPECT_FALSE(mem->Head(TierPointerKey(key)).ok());
  EXPECT_FALSE(mem->Head(ColdCopyKey(key)).ok());
}

TEST_F(TieringStoreTest, ListFoldsInternalKeysToLogical) {
  ASSERT_TRUE(tiering_->Put("d-a", Payload(7, 64)).ok());
  ASSERT_TRUE(tiering_->Put("d-b", Payload(8, 64)).ok());
  ASSERT_TRUE(tiering_->DemoteObject("d-b").ok());
  auto listed = tiering_->List("d-");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, (std::vector<std::string>{"d-a", "d-b"}));
  auto tiered = tiering_->ListTiered("d-");
  ASSERT_TRUE(tiered.ok());
  EXPECT_EQ(*tiered, (std::vector<std::string>{"d-a", "d-b"}));
}

TEST_F(TieringStoreTest, NonTieredAndSentinelKeysPassThrough) {
  EXPECT_FALSE(tiering_->Tiers("meta-x"));       // predicate rejects
  EXPECT_FALSE(tiering_->Tiers("d-x..tp"));      // reserved namespaces
  EXPECT_FALSE(tiering_->Tiers("d-x..cold"));
  EXPECT_FALSE(tiering_->Tiers("d-x..ecm0000"));
  EXPECT_TRUE(tiering_->Tiers("d-x"));

  ASSERT_TRUE(tiering_->Put("meta-x", Payload(9, 32)).ok());
  EXPECT_TRUE(mem_->Head("meta-x").ok());
  EXPECT_EQ(tiering_->DemoteObject("meta-x").code(), Errc::kInval);
  EXPECT_EQ(tiering_->ProbeTier("meta-x").status().code(), Errc::kInval);
}

TEST_F(TieringStoreTest, HotCopyAlwaysWinsOverStaleColdCache) {
  // The cached tier says kCold (a real demotion set it), but newer hot
  // bytes land behind this instance's back — e.g. another process's Put,
  // which writes only the hot copy and leaves the pointer to reconcile.
  // Hot-first reads must serve the new bytes anyway: the cache is an
  // ordering hint, never a route.
  const Bytes v1 = Payload(90, 256);
  ASSERT_TRUE(tiering_->Put("d-stale", v1).ok());
  ASSERT_TRUE(tiering_->DemoteObject("d-stale").ok());
  auto got = tiering_->Get("d-stale");  // cold read: caches kCold
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v1);

  const Bytes v2 = Payload(91, 300);
  ASSERT_TRUE(mem_->Put("d-stale", v2).ok());  // behind the cache's back
  got = tiering_->Get("d-stale");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v2);
  auto ranged = tiering_->GetRange("d-stale", 10, 20);
  ASSERT_TRUE(ranged.ok());
  EXPECT_EQ(*ranged, Bytes(v2.begin() + 10, v2.begin() + 30));
  auto head = tiering_->Head("d-stale");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->size, v2.size());
}

TEST_F(TieringStoreTest, StaleStatsBlobNeverRoutesReadsToStaleCold) {
  // Crash shape: demotion completed and its stats blob (tier=cold) was
  // checkpointed; then an overwrite's hot bytes landed, and the process
  // died before any reconcile pass flipped the pointer back and swept the
  // cold copy. A restarted process that loads the blob must serve the
  // newer hot bytes, not the cold orphan the blob still points at.
  const Bytes v1 = Payload(92, 256);
  ASSERT_TRUE(tiering_->Put("d-blob", v1).ok());
  ASSERT_TRUE(tiering_->DemoteObject("d-blob").ok());
  ASSERT_TRUE(tiering_->Get("d-blob").ok());  // cold read recorded
  const Bytes blob = tiering_->EncodeAccessStats();

  const Bytes v2 = Payload(93, 512);
  ASSERT_TRUE(mem_->Put("d-blob", v2).ok());  // acked pre-crash, no flip

  TieringOptions options;
  options.should_tier = IsDataKey;
  options.metrics = &registry_;
  TieringStore restarted(counting_, options);
  ASSERT_TRUE(restarted.LoadAccessStats(blob).ok());
  auto got = restarted.Get("d-blob");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v2);
  auto head = restarted.Head("d-blob");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->size, v2.size());
  // The advisory half of the blob (heat, ages) did survive the restart.
  auto probe = restarted.ProbeTier("d-blob");
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->ever_accessed);
}

TEST_F(TieringStoreTest, PutRangeRechecksResidencyUnderLock) {
  // The cached tier says kHot, but a demotion (another instance = another
  // process/migrator epoch) swept the hot copy since. PutRange's must-exist
  // guarded write misses, and the residency check behind it refuses — base
  // stores create missing objects on a range write, so trusting the cache
  // would plant a truncated hot fragment that hot-first reads serve as the
  // whole object.
  const Bytes data = Payload(94, 400);
  ASSERT_TRUE(tiering_->Put("d-pr-race", data).ok());
  ASSERT_TRUE(tiering_->Get("d-pr-race").ok());  // caches kHot

  TieringOptions options;
  options.should_tier = IsDataKey;
  options.metrics = &registry_;
  TieringStore other(counting_, options);
  ASSERT_TRUE(other.DemoteObject("d-pr-race").ok());

  EXPECT_EQ(tiering_->PutRange("d-pr-race", 0, Payload(95, 16)).code(),
            Errc::kNotSup);
  // No hot fragment was created; the full cold bytes are still the object.
  EXPECT_FALSE(mem_->Head("d-pr-race").ok());
  auto got = tiering_->Get("d-pr-race");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
}

TEST_F(TieringStoreTest, ListIncludesHotOnlyKeysWithDistinctColdStore) {
  // TieringOptions.cold may be a store with a namespace disjoint from the
  // hot store's; hot-only objects must not vanish from List/ListTiered.
  TieringOptions options;
  options.should_tier = IsDataKey;
  options.cold = std::make_shared<MemoryObjectStore>();
  TieringStore split(std::make_shared<MemoryObjectStore>(), options);
  ASSERT_TRUE(split.Put("d-hot-only", Payload(96, 64)).ok());
  ASSERT_TRUE(split.Put("d-goes-cold", Payload(97, 64)).ok());
  ASSERT_TRUE(split.DemoteObject("d-goes-cold").ok());

  auto listed = split.List("d-");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, (std::vector<std::string>{"d-goes-cold", "d-hot-only"}));
  auto tiered = split.ListTiered("d-");
  ASSERT_TRUE(tiered.ok());
  EXPECT_EQ(*tiered, (std::vector<std::string>{"d-goes-cold", "d-hot-only"}));
}

TEST_F(TieringStoreTest, TrackedKeyStateStaysBounded) {
  // The per-key state map (and the stats blob encoded from it) must not
  // grow with every chunk ever touched: past max_tracked_keys the
  // longest-idle entries are evicted (advisory loss only).
  TieringOptions options;
  options.should_tier = IsDataKey;
  options.max_tracked_keys = 16;  // 1 entry per shard
  auto mem = std::make_shared<MemoryObjectStore>();
  TieringStore bounded(mem, options);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        bounded.Put("d-churn." + std::to_string(i), Payload(i, 32)).ok());
  }
  EXPECT_LE(bounded.counters().tracked_keys, 16u);
  // Reads and migration stay correct for evicted keys — state re-derives.
  auto got = bounded.Get("d-churn.0");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Payload(0, 32));
  ASSERT_TRUE(bounded.DemoteObject("d-churn.0").ok());
  got = bounded.Get("d-churn.0");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Payload(0, 32));
}

TEST_F(TieringStoreTest, PutRangeOnColdResidentIsNotSup) {
  const Bytes data = Payload(10, 512);
  ASSERT_TRUE(tiering_->Put("d-r", data).ok());
  ASSERT_TRUE(tiering_->PutRange("d-r", 0, Payload(11, 16)).ok());
  ASSERT_TRUE(tiering_->DemoteObject("d-r").ok());
  // Partial writes never land next to a cold-resident copy: the PRT falls
  // back to read-modify-write (a whole-object Put) on kNotSup.
  EXPECT_EQ(tiering_->PutRange("d-r", 0, Payload(12, 16)).code(),
            Errc::kNotSup);
}

TEST_F(TieringStoreTest, ReconcileCompletesCrashedDemotion) {
  // Crash state: demotion died between the flip and the sweep — both copies
  // resident, pointer covers the (byte-identical) hot copy.
  const Bytes data = Payload(13, 777);
  ASSERT_TRUE(mem_->Put("d-c", data).ok());
  ASSERT_TRUE(mem_->Put(ColdCopyKey("d-c"), data).ok());
  TierPointer p;
  p.tier = Tier::kCold;
  p.gen = 1;
  p.object_size = data.size();
  p.content_crc = Crc32c(data);
  ASSERT_TRUE(mem_->Put(TierPointerKey("d-c"), EncodeTierPointer(p)).ok());

  auto swept = tiering_->ReconcileObject("d-c");
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(*swept, 1);
  EXPECT_FALSE(mem_->Head("d-c").ok());  // sweep completed
  EXPECT_TRUE(mem_->Head(ColdCopyKey("d-c")).ok());
  auto got = tiering_->Get("d-c");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
  // Second pass finds nothing to do.
  swept = tiering_->ReconcileObject("d-c");
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(*swept, 0);
}

TEST_F(TieringStoreTest, ReconcileHotWinsOnContentMismatch) {
  // Crash state: an overwrite landed after a demotion's flip — the hot copy
  // no longer matches the pointer's CRC, so it wins and the cold copy goes.
  const Bytes stale = Payload(14, 400);
  const Bytes fresh = Payload(15, 500);
  ASSERT_TRUE(mem_->Put("d-w", fresh).ok());
  ASSERT_TRUE(mem_->Put(ColdCopyKey("d-w"), stale).ok());
  TierPointer p;
  p.tier = Tier::kCold;
  p.gen = 3;
  p.object_size = stale.size();
  p.content_crc = Crc32c(stale);
  ASSERT_TRUE(mem_->Put(TierPointerKey("d-w"), EncodeTierPointer(p)).ok());

  auto swept = tiering_->ReconcileObject("d-w");
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(*swept, 1);
  EXPECT_FALSE(mem_->Head(ColdCopyKey("d-w")).ok());
  auto got = tiering_->Get("d-w");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, fresh);
  auto probe = tiering_->ProbeTier("d-w");
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(probe->pointer.has_value());
  EXPECT_EQ(probe->pointer->tier, Tier::kHot);
  EXPECT_EQ(probe->pointer->gen, 4u);
}

TEST_F(TieringStoreTest, ReconcileReclaimsDanglingPointer) {
  TierPointer p;
  p.tier = Tier::kCold;
  p.gen = 9;
  ASSERT_TRUE(mem_->Put(TierPointerKey("d-gone"), EncodeTierPointer(p)).ok());
  auto swept = tiering_->ReconcileObject("d-gone");
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(*swept, 1);
  EXPECT_FALSE(mem_->Head(TierPointerKey("d-gone")).ok());
}

TEST_F(TieringStoreTest, CorruptPointerSalvagesViaColdCopy) {
  const Bytes data = Payload(16, 640);
  ASSERT_TRUE(tiering_->Put("d-s", data).ok());
  ASSERT_TRUE(tiering_->DemoteObject("d-s").ok());
  // Rot the pointer record; a fresh reader (no cached tier) must still
  // salvage the bytes through the cold copy.
  ASSERT_TRUE(mem_->Put(TierPointerKey("d-s"), AsBytes("garbage")).ok());
  TieringOptions options;
  options.should_tier = IsDataKey;
  options.metrics = &registry_;
  TieringStore fresh(counting_, options);
  auto got = fresh.Get("d-s");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
}

TEST_F(TieringStoreTest, AccessStatsRoundTripAndStrictLoad) {
  ASSERT_TRUE(tiering_->Put("d-st", Payload(17, 64)).ok());
  ASSERT_TRUE(tiering_->Get("d-st").ok());
  ASSERT_TRUE(tiering_->DemoteObject("d-st").ok());
  ASSERT_TRUE(tiering_->Get("d-st").ok());  // a cold read
  EXPECT_TRUE(tiering_->ConsumeStatsDirty());

  const Bytes blob = tiering_->EncodeAccessStats();
  TieringOptions options;
  options.should_tier = IsDataKey;
  options.metrics = &registry_;
  TieringStore restarted(counting_, options);
  ASSERT_TRUE(restarted.LoadAccessStats(blob).ok());
  auto probe = restarted.ProbeTier("d-st");
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->ever_accessed);
  EXPECT_EQ(probe->cold_reads, 1u);

  // The blob itself decodes strictly (the CALLER is what treats a load
  // failure as tolerable — it only resets demotion timers).
  Bytes corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x01;
  TieringStore scratch(counting_, options);
  EXPECT_FALSE(scratch.LoadAccessStats(corrupt).ok());
  EXPECT_FALSE(scratch.LoadAccessStats(AsBytes("xy")).ok());
}

// --- Migrator policy ---

TEST(MigratorTest, ForcedDemotionAndHeatDrivenPromotion) {
  auto mem = std::make_shared<MemoryObjectStore>();
  obs::MetricsRegistry registry;
  TieringOptions topts;
  topts.should_tier = IsDataKey;
  topts.metrics = &registry;
  auto tiering = std::make_shared<TieringStore>(mem, topts);
  MigratorOptions mopts;
  mopts.demote_after = Nanos(0);  // demote on sight
  mopts.promote_reads = 2;
  mopts.metrics = &registry;
  Migrator migrator(
      tiering, mopts,
      std::make_shared<AsyncObjectIo>(mem, AsyncIoConfig::ForTests()));

  const int kObjects = 6;
  std::vector<Bytes> payloads;
  for (int i = 0; i < kObjects; ++i) {
    payloads.push_back(Payload(20 + i, 256 + 17 * i));
    ASSERT_TRUE(
        tiering->Put("d-mig." + std::to_string(i), payloads.back()).ok());
  }

  auto report = migrator.RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->scanned, static_cast<std::uint64_t>(kObjects));
  EXPECT_EQ(report->demoted, static_cast<std::uint64_t>(kObjects));
  EXPECT_EQ(report->races, 0u);

  // Two cold reads per key cross the promote threshold; bytes stay intact.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kObjects; ++i) {
      auto got = tiering->Get("d-mig." + std::to_string(i));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, payloads[static_cast<std::size_t>(i)]);
    }
  }
  report = migrator.RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->promoted, static_cast<std::uint64_t>(kObjects));
  for (int i = 0; i < kObjects; ++i) {
    auto probe = tiering->ProbeTier("d-mig." + std::to_string(i));
    ASSERT_TRUE(probe.ok());
    EXPECT_TRUE(probe->hot_exists);
    EXPECT_FALSE(probe->cold_exists);
  }
  const TieringStore::Counters c = tiering->counters();
  EXPECT_EQ(c.demotions, static_cast<std::uint64_t>(kObjects));
  EXPECT_EQ(c.promotions, static_cast<std::uint64_t>(kObjects));
}

TEST(MigratorTest, SeedsUnseenKeysBeforeDemoting) {
  // Pre-existing objects (a restart lost the stats blob) must NOT be
  // demoted on an unknown age: the first pass seeds their clocks, and only
  // a later pass — one full demote_after later — demotes them.
  auto mem = std::make_shared<MemoryObjectStore>();
  ASSERT_TRUE(mem->Put("d-old", Payload(30, 128)).ok());
  TieringOptions topts;
  topts.should_tier = IsDataKey;
  auto tiering = std::make_shared<TieringStore>(mem, topts);
  MigratorOptions mopts;
  mopts.demote_after = Millis(30);
  mopts.promote_reads = 0;  // promotion disabled
  Migrator migrator(
      tiering, mopts,
      std::make_shared<AsyncObjectIo>(mem, AsyncIoConfig::ForTests()));

  auto report = migrator.RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->scanned, 1u);
  EXPECT_EQ(report->demoted, 0u);
  EXPECT_TRUE(mem->Head("d-old").ok());

  SleepFor(Millis(40));
  report = migrator.RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->demoted, 1u);
  EXPECT_FALSE(mem->Head("d-old").ok());
  EXPECT_TRUE(mem->Head(ColdCopyKey("d-old")).ok());
}

// --- crash safety: every prefix of copy->flip->sweep keeps acked bytes ---
//
// A countdown fault hook cuts the store dead after N operations, freezing
// the migration at every possible point — exactly the states a crash would
// leave behind. After each "crash": reads must return the acked bytes,
// reconcile must converge to a single resident copy, and a second
// reconcile must find nothing left to sweep.

class Countdown {
 public:
  ChaosStore::FaultFn Hook() {
    return [this](std::string_view, const std::string&) {
      if (!armed_.load(std::memory_order_relaxed)) return Errc::kOk;
      if (budget_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
        return Errc::kIo;
      }
      return Errc::kOk;
    };
  }
  void Arm(int ops) {
    budget_.store(ops, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_relaxed);
  }
  void Disarm() { armed_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<int> budget_{0};
};

class TieringCrashSafetyTest : public ::testing::Test {
 protected:
  TieringCrashSafetyTest() {
    mem_ = std::make_shared<MemoryObjectStore>();
    faulty_ =
        std::make_shared<ChaosStore>(mem_, ChaosConfig{}, countdown_.Hook());
    TieringOptions options;
    options.should_tier = IsDataKey;
    tiering_ = std::make_shared<TieringStore>(faulty_, options);
  }

  // Drives reconcile to a fixed point and checks the invariants every crash
  // state must satisfy afterwards: the acked bytes are readable and at most
  // one data copy is resident.
  void VerifyConverges(const std::string& key, const Bytes& expect) {
    auto got = tiering_->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": acked bytes lost after crash";
    EXPECT_EQ(*got, expect) << key;
    auto swept = tiering_->ReconcileObject(key);
    ASSERT_TRUE(swept.ok()) << key;
    swept = tiering_->ReconcileObject(key);
    ASSERT_TRUE(swept.ok()) << key;
    EXPECT_EQ(*swept, 0) << key << ": reconcile did not converge";
    auto probe = tiering_->ProbeTier(key);
    ASSERT_TRUE(probe.ok()) << key;
    EXPECT_FALSE(probe->hot_exists && probe->cold_exists)
        << key << ": double-resident after reconcile";
    EXPECT_TRUE(probe->hot_exists || probe->cold_exists) << key;
    got = tiering_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, expect) << key;
  }

  Countdown countdown_;
  std::shared_ptr<MemoryObjectStore> mem_;
  std::shared_ptr<ChaosStore> faulty_;
  TieringStorePtr tiering_;
};

TEST_F(TieringCrashSafetyTest, DemotionCrashesAtEveryStep) {
  // Demotion touches the store ~5 times (hot get, cold put, pointer get,
  // pointer put, hot delete); budgets 0..6 cover every torn prefix plus the
  // clean run.
  for (int budget = 0; budget <= 6; ++budget) {
    const std::string key = "d-crash-demote-" + std::to_string(budget);
    const Bytes data = Payload(40 + budget, 300 + 7 * budget);
    ASSERT_TRUE(tiering_->Put(key, data).ok());
    countdown_.Arm(budget);
    (void)tiering_->DemoteObject(key);  // may fail at any step: a "crash"
    countdown_.Disarm();
    VerifyConverges(key, data);
  }
}

TEST_F(TieringCrashSafetyTest, PromotionCrashesAtEveryStep) {
  for (int budget = 0; budget <= 6; ++budget) {
    const std::string key = "d-crash-promote-" + std::to_string(budget);
    const Bytes data = Payload(50 + budget, 300 + 7 * budget);
    ASSERT_TRUE(tiering_->Put(key, data).ok());
    ASSERT_TRUE(tiering_->DemoteObject(key).ok());
    countdown_.Arm(budget);
    (void)tiering_->PromoteObject(key);
    countdown_.Disarm();
    VerifyConverges(key, data);
  }
}

TEST_F(TieringCrashSafetyTest, OverwriteAfterCrashedDemotionWins) {
  for (int budget = 0; budget <= 6; ++budget) {
    const std::string key = "d-crash-ow-" + std::to_string(budget);
    ASSERT_TRUE(tiering_->Put(key, Payload(60 + budget, 200)).ok());
    countdown_.Arm(budget);
    (void)tiering_->DemoteObject(key);
    countdown_.Disarm();
    // New acked bytes land on top of whatever the crash left behind; they
    // must win over any stale cold copy or pointer.
    const Bytes fresh = Payload(70 + budget, 250);
    ASSERT_TRUE(tiering_->Put(key, fresh).ok());
    VerifyConverges(key, fresh);
  }
}

TEST_F(TieringCrashSafetyTest, MigratorPassSweepsCrashLeftovers) {
  // Leave a mix of crash states behind, then let one unpaced migrator pass
  // reconcile the lot (the "orphans swept next pass" acceptance).
  std::vector<std::pair<std::string, Bytes>> acked;
  for (int budget = 1; budget <= 4; ++budget) {
    const std::string key = "d-sweep-" + std::to_string(budget);
    const Bytes data = Payload(80 + budget, 128);
    ASSERT_TRUE(tiering_->Put(key, data).ok());
    countdown_.Arm(budget);
    (void)tiering_->DemoteObject(key);
    countdown_.Disarm();
    acked.emplace_back(key, data);
  }
  MigratorOptions mopts;
  mopts.demote_after = Seconds(3600);  // no fresh demotions this pass
  mopts.promote_reads = 0;
  Migrator migrator(
      tiering_, mopts,
      std::make_shared<AsyncObjectIo>(mem_, AsyncIoConfig::ForTests()));
  auto report = migrator.RunOnce();
  ASSERT_TRUE(report.ok());
  // A second pass finds a clean namespace.
  report = migrator.RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->orphans_swept, 0u);
  for (const auto& [key, data] : acked) {
    auto probe = tiering_->ProbeTier(key);
    ASSERT_TRUE(probe.ok());
    EXPECT_FALSE(probe->hot_exists && probe->cold_exists) << key;
    auto got = tiering_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, data) << key;
  }
}

// --- cross-instance races: the store orders writers from two processes ---
//
// A second TieringStore over the same memory store stands in for another
// process (an `arkfs_cli put` next to a migrating client): it shares no
// memory with the migrating instance. The migrating instance's store hook
// runs one foreground op through the other instance at each step of a
// demotion (of a fresh key, and of one whose pointer an earlier promotion
// left behind) and of a promotion. The migration may return any status; after
// it and one reconcile, reads return what the foreground op acked, a
// deleted key leaves no hot copy, pointer or cold copy, and at most one
// data copy is resident. No threads, no sleeps: the hook is the schedule.

enum class Foreground { kPut, kPutRange, kDelete };
enum class Migration { kDemote, kDemotePromoted, kPromote };

struct RaceStep {
  const char* name;
  std::string_view op;                         // the hooked store op
  std::string (*target)(const std::string&);  // the key it touches
};

std::string HotCopyKey(const std::string& key) { return key; }

const RaceStep kDemoteSteps[] = {{"before copy", "put", ColdCopyKey},
                                 {"before flip", "put", TierPointerKey},
                                 {"before sweep", "delete", HotCopyKey}};
const RaceStep kPromoteSteps[] = {{"before hot write", "put", HotCopyKey},
                                  {"before flip", "put", TierPointerKey},
                                  {"before cold sweep", "delete", ColdCopyKey}};

class TieringCrossInstanceTest : public ::testing::Test {
 protected:
  TieringCrossInstanceTest() {
    mem_ = std::make_shared<MemoryObjectStore>();
    auto hook = [this](std::string_view op, const std::string& key) {
      if (armed_ && op == armed_op_ && key == armed_key_) {
        armed_ = false;
        inject_();
      }
      return Errc::kOk;
    };
    auto hooked = std::make_shared<ChaosStore>(mem_, ChaosConfig{}, hook);
    TieringOptions options;
    options.should_tier = IsDataKey;
    migrating_ = std::make_shared<TieringStore>(hooked, options);
    other_ = std::make_shared<TieringStore>(mem_, options);
  }

  void RunCell(Migration migration, const RaceStep& step, Foreground fg) {
    static const char* const kMigrations[] = {"demote ", "demote promoted ",
                                              "promote "};
    static const char* const kOps[] = {"Put", "PutRange", "Delete"};
    SCOPED_TRACE(std::string(kMigrations[static_cast<int>(migration)]) +
                 step.name + " / " + kOps[static_cast<int>(fg)]);
    const std::string key = "d-race." + std::to_string(next_key_++);
    const Bytes v1 = Payload(1, 256);
    ASSERT_TRUE(migrating_->Put(key, v1).ok());
    if (migration != Migration::kDemote) {
      ASSERT_TRUE(migrating_->DemoteObject(key).ok());
    }
    if (migration == Migration::kDemotePromoted) {
      ASSERT_TRUE(migrating_->PromoteObject(key).ok());
    }

    Bytes expect = v1;
    bool deleted = false;
    inject_ = [&] {
      switch (fg) {
        case Foreground::kPut:
          expect = Payload(2, 300);
          EXPECT_TRUE(other_->Put(key, expect).ok());
          break;
        case Foreground::kPutRange: {
          const Bytes patch = Payload(99, 8);
          Status st = other_->PutRange(key, 16, patch);
          if (st.ok()) {
            std::copy(patch.begin(), patch.end(), expect.begin() + 16);
          } else {
            EXPECT_EQ(st.code(), Errc::kNotSup) << st.ToString();
          }
          break;
        }
        case Foreground::kDelete:
          EXPECT_TRUE(other_->Delete(key).ok());
          deleted = true;
          break;
      }
    };
    armed_op_ = step.op;
    armed_key_ = step.target(key);
    armed_ = true;
    (void)(migration == Migration::kPromote ? migrating_->PromoteObject(key)
                                            : migrating_->DemoteObject(key));
    ASSERT_FALSE(armed_) << "the migration never reached the hooked step";
    ASSERT_TRUE(migrating_->ReconcileObject(key).ok());

    for (TieringStore* reader : {migrating_.get(), other_.get()}) {
      auto got = reader->Get(key);
      if (deleted) {
        EXPECT_EQ(got.status().code(), Errc::kNoEnt) << "deleted key reads";
      } else {
        ASSERT_TRUE(got.ok()) << "acked bytes lost";
        EXPECT_EQ(*got, expect) << "reads do not return the acked bytes";
      }
    }
    if (deleted) {
      for (const std::string& k :
           {key, TierPointerKey(key), ColdCopyKey(key)}) {
        EXPECT_FALSE(mem_->Head(k).ok()) << k << " outlived the Delete";
      }
    }
    EXPECT_FALSE(mem_->Head(key).ok() && mem_->Head(ColdCopyKey(key)).ok())
        << "both data copies resident";
  }

  std::shared_ptr<MemoryObjectStore> mem_;
  TieringStorePtr migrating_;
  TieringStorePtr other_;
  bool armed_ = false;
  std::string_view armed_op_;
  std::string armed_key_;
  std::function<void()> inject_;
  int next_key_ = 0;
};

TEST_F(TieringCrossInstanceTest, ForegroundOpsRacingADemotion) {
  for (Migration migration : {Migration::kDemote, Migration::kDemotePromoted}) {
    for (const RaceStep& step : kDemoteSteps) {
      for (Foreground fg :
           {Foreground::kPut, Foreground::kPutRange, Foreground::kDelete}) {
        RunCell(migration, step, fg);
      }
    }
  }
}

TEST_F(TieringCrossInstanceTest, ForegroundOpsRacingAPromotion) {
  for (const RaceStep& step : kPromoteSteps) {
    for (Foreground fg :
         {Foreground::kPut, Foreground::kPutRange, Foreground::kDelete}) {
      RunCell(Migration::kPromote, step, fg);
    }
  }
}

// A demotion's sweep lands at the store but its ack is lost (the hook
// applies the guarded delete, then fails the call); the retry finds no hot
// copy. That is this demotion's own sweep, not a racing Delete: the
// demotion completes, the key reads back from cold, and no race is counted.
TEST_F(TieringCrossInstanceTest, AmbiguousSweepAckCompletesTheDemotion) {
  const std::string key = "d-ambiguous";
  const Bytes data = Payload(5, 320);
  bool lost_ack = false;
  auto faulty = std::make_shared<ChaosStore>(
      mem_, ChaosConfig{},
      [&](std::string_view op, const std::string& k) {
        if (op != "delete" || k != key || lost_ack) return Errc::kOk;
        lost_ack = true;
        EXPECT_TRUE(mem_->DeleteIf(k, WriteGuard{0, data, true}).ok());
        return Errc::kIo;
      });
  TieringOptions options;
  options.should_tier = IsDataKey;
  TieringStore tiering(
      std::make_shared<RetryingStore>(faulty, RetryPolicy::ForTests()),
      options);
  ASSERT_TRUE(tiering.Put(key, data).ok());
  ASSERT_TRUE(tiering.DemoteObject(key).ok());
  EXPECT_TRUE(lost_ack);
  auto got = tiering.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
  EXPECT_TRUE(mem_->Head(ColdCopyKey(key)).ok());
  EXPECT_EQ(tiering.counters().races, 0u);
  EXPECT_EQ(tiering.counters().demotions, 1u);
}

// The same lost ack on a promotion's flip: the retry misses on the record
// the flip itself wrote. The promotion completes instead of taking back its
// hot copy, which another instance (it has only the store to go by) reads.
TEST_F(TieringCrossInstanceTest, AmbiguousFlipAckCompletesThePromotion) {
  const std::string key = "d-ambiguous-promote";
  const Bytes data = Payload(6, 320);
  bool armed = false;
  bool lost_ack = false;
  auto faulty = std::make_shared<ChaosStore>(
      mem_, ChaosConfig{},
      [&](std::string_view op, const std::string& k) {
        if (!armed || op != "put" || k != TierPointerKey(key)) {
          return Errc::kOk;
        }
        armed = false;
        lost_ack = true;
        auto prior = DecodeTierPointer(mem_->Get(k).value());
        EXPECT_TRUE(prior.ok());
        TierPointer next = *prior;
        next.tier = Tier::kHot;
        next.gen++;
        EXPECT_TRUE(mem_->Put(k, EncodeTierPointer(next)).ok());
        return Errc::kIo;
      });
  TieringOptions options;
  options.should_tier = IsDataKey;
  TieringStore tiering(
      std::make_shared<RetryingStore>(faulty, RetryPolicy::ForTests()),
      options);
  ASSERT_TRUE(tiering.Put(key, data).ok());
  ASSERT_TRUE(tiering.DemoteObject(key).ok());
  armed = true;
  ASSERT_TRUE(tiering.PromoteObject(key).ok());
  EXPECT_TRUE(lost_ack);
  auto got = other_->Get(key);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, data);
  EXPECT_TRUE(mem_->Head(key).ok());
  EXPECT_FALSE(mem_->Head(ColdCopyKey(key)).ok());
  EXPECT_EQ(tiering.counters().races, 0u);
  EXPECT_EQ(tiering.counters().promotions, 1u);
}

// --- an overwrite of a demoted key under a hot-primary outage ---
//
// Reads fall back to the cold copy on any hot error, so the pointer must
// stop saying "cold" once newer bytes land hot. With the overwritten hot
// copy's primary down, a read may fail, but it must never serve the
// pre-overwrite bytes: not in the writing instance, and not in a fresh one.

TEST(TieringOutageTest, OverwriteOfDemotedKeyNeverServesStaleCold) {
  TieringOptions topts;
  topts.should_tier = IsDataKey;
  auto built = objstore::StackBuilder()
                   .Cluster(ClusterConfig::Instant(8))
                   .Tiering(topts, MigratorOptions{})
                   .Build();
  ASSERT_TRUE(built.ok());
  objstore::StoreStack stack = *built;
  const std::string key = "d-outage";
  const Bytes v1 = Payload(11, 2048);
  const Bytes v2 = Payload(12, 2100);
  ASSERT_TRUE(stack.store->Put(key, v1).ok());
  ASSERT_TRUE(stack.tiering->DemoteObject(key).ok());
  ASSERT_TRUE(stack.store->Put(key, v2).ok());

  TieringStore restarted(stack.cluster, stack.tiering->options());
  auto expect_no_stale_read = [&] {
    for (ObjectStore* reader :
         {stack.store.get(), static_cast<ObjectStore*>(&restarted)}) {
      auto got = reader->Get(key);
      EXPECT_FALSE(got.ok() && *got == v1) << "stale bytes served by Get";
      auto range = reader->GetRange(key, 0, 64);
      EXPECT_FALSE(range.ok() && *range == Bytes(v1.begin(), v1.begin() + 64))
          << "stale bytes served by GetRange";
      auto head = reader->Head(key);
      EXPECT_FALSE(head.ok() && head->size == v1.size())
          << "stale size served by Head";
    }
  };
  // The hot copy's primary down: the pointer says hot, so no cold read.
  const int primary = stack.cluster->ReplicaNodes(key).front();
  stack.cluster->SetNodeDown(primary, true);
  {
    SCOPED_TRACE("hot primary down");
    expect_no_stale_read();
  }
  // The pointer's primary down too (the EC cold copy still reads through
  // two outages): an unreachable pointer is no licence to read cold.
  const int pointer_primary =
      stack.cluster->ReplicaNodes(TierPointerKey(key)).front();
  stack.cluster->SetNodeDown(pointer_primary, true);
  {
    SCOPED_TRACE("hot and pointer primaries down");
    expect_no_stale_read();
  }
  stack.cluster->SetNodeDown(pointer_primary, false);
  stack.cluster->SetNodeDown(primary, false);
  auto got = restarted.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, v2);
}

// --- PRT writes over a demoted chunk ---
//
// The tiering store refuses a ranged write to a cold-resident chunk
// (kNotSup); the PRT must then rewrite the chunk whole instead of failing
// the write.

TEST(TieringPrtTest, OverwriteOfDemotedChunkFallsBackToRewrite) {
  TieringOptions topts;
  topts.should_tier = IsDataKey;
  auto built = objstore::StackBuilder()
                   .Cluster(ClusterConfig::Instant(8))
                   .Tiering(topts, MigratorOptions{})
                   .Build();
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->store->supports_partial_write());
  constexpr std::uint64_t kChunk = 4096;
  Prt prt(built->store, kChunk, AsyncIoConfig::ForTests());
  const Uuid ino = NewUuid();
  Bytes expected = Payload(21, 2 * kChunk);
  ASSERT_TRUE(prt.WriteData(ino, 0, expected).ok());
  ASSERT_TRUE(built->tiering->DemoteObject(DataKey(ino, 0)).ok());
  ASSERT_EQ(built->store->PutRange(DataKey(ino, 0), 100, AsBytes("x")).code(),
            Errc::kNotSup);

  // A 4-byte overwrite inside the cold chunk.
  const Bytes small = Payload(22, 4);
  ASSERT_TRUE(prt.WriteData(ino, 100, small).ok());
  std::copy(small.begin(), small.end(), expected.begin() + 100);
  auto read = prt.ReadData(ino, 0, 2 * kChunk, 2 * kChunk);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, expected);

  // A write across a cold chunk and a hot one: one batch of ranged writes,
  // with only the refused piece rewritten.
  ASSERT_TRUE(built->tiering->DemoteObject(DataKey(ino, 0)).ok());
  const Bytes span = Payload(23, 200);
  ASSERT_TRUE(prt.WriteData(ino, kChunk - 100, span).ok());
  std::copy(span.begin(), span.end(), expected.begin() + kChunk - 100);
  read = prt.ReadData(ino, 0, 2 * kChunk, 2 * kChunk);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, expected);
}

// --- StackBuilder: the one canonical assembly path ---

TEST(StackBuilderTest, CanonicalFullStackBuilds) {
  obs::MetricsRegistry registry;
  TieringOptions topts;
  topts.should_tier = IsDataKey;
  ChaosConfig quiet;  // all rates zero: composition only
  auto built = objstore::StackBuilder()
                   .Metrics(&registry)
                   .Base(std::make_shared<MemoryObjectStore>())
                   .Tiering(topts, MigratorOptions::ForTests())
                   .Scrub()
                   .Chaos(quiet)
                   .Retrying(RetryPolicy::ForTests())
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const objstore::StoreStack& stack = *built;
  EXPECT_NE(stack.base, nullptr);
  EXPECT_NE(stack.ec, nullptr);  // the synthesized cold tier
  EXPECT_NE(stack.tiering, nullptr);
  EXPECT_NE(stack.migrator, nullptr);
  EXPECT_NE(stack.scrubber, nullptr);
  EXPECT_NE(stack.chaos, nullptr);
  EXPECT_NE(stack.retrying, nullptr);
  ASSERT_NE(stack.instrumented, nullptr);
  ASSERT_EQ(stack.store, stack.instrumented);  // top of the stack
  EXPECT_EQ(stack.instrumented->inner(), stack.retrying);

  const Bytes data = Payload(90, 128);
  ASSERT_TRUE(stack.store->Put("d-sb", data).ok());
  auto got = stack.store->Get("d-sb");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
}

TEST(StackBuilderTest, ClusterEcScrubExposesTypedHandles) {
  auto built = objstore::StackBuilder()
                   .Cluster(ClusterConfig::Instant(6))
                   .Ec(EcStoreOptions{})
                   .Scrub()
                   .Build();
  ASSERT_TRUE(built.ok());
  EXPECT_NE(built->cluster, nullptr);
  EXPECT_NE(built->ec, nullptr);
  EXPECT_NE(built->scrubber, nullptr);
  EXPECT_EQ(built->tiering, nullptr);
  EXPECT_EQ(built->store, built->instrumented);
  EXPECT_EQ(built->instrumented->inner(), built->ec);
}

TEST(StackBuilderTest, RejectsEveryOrderViolation) {
  auto mem = [] { return std::make_shared<MemoryObjectStore>(); };
  // Empty builder: nothing to stand on.
  EXPECT_EQ(objstore::StackBuilder().Build().status().code(), Errc::kInval);
  // A decorator before the bottom layer.
  EXPECT_FALSE(objstore::StackBuilder()
                   .Retrying(RetryPolicy::ForTests())
                   .Base(mem())
                   .Build()
                   .ok());
  // Reordered stages (retrying must sit ABOVE chaos).
  EXPECT_FALSE(objstore::StackBuilder()
                   .Base(mem())
                   .Retrying(RetryPolicy::ForTests())
                   .Chaos(ChaosConfig{})
                   .Build()
                   .ok());
  // Repeated stage.
  EXPECT_FALSE(objstore::StackBuilder().Base(mem()).Base(mem()).Build().ok());
  // Two data-placement layers.
  TieringOptions topts;
  EXPECT_FALSE(objstore::StackBuilder()
                   .Base(mem())
                   .Ec(EcStoreOptions{})
                   .Tiering(topts, MigratorOptions::ForTests())
                   .Build()
                   .ok());
  // Scrub with no EC tier below it.
  EXPECT_FALSE(objstore::StackBuilder()
                   .Base(mem())
                   .Scrub()
                   .Build()
                   .ok());
  EXPECT_FALSE(objstore::StackBuilder().Base(nullptr).Build().ok());
}

// --- TieringSmoke: the ctest gate (ctest -L chaos) ---
//
// The full composition the cluster deploys under DataPlacement::kTiered:
// cluster -> tiering with an EC cold tier. Ingest hot, demote (encode), read
// the cold copies through a node outage (reconstruct-on-read), then promote
// on read heat — one fast end-to-end pass CI can gate merges on.

TEST(TieringSmoke, DemoteReadUnderOutagePromote) {
  obs::MetricsRegistry registry;
  TieringOptions topts;
  topts.should_tier = IsDataKey;
  MigratorOptions mopts;
  mopts.demote_after = Nanos(0);
  mopts.promote_reads = 2;
  auto built = objstore::StackBuilder()
                   .Metrics(&registry)
                   .Cluster(ClusterConfig::Instant(8))
                   .Tiering(topts, mopts)
                   .Build();
  ASSERT_TRUE(built.ok());
  objstore::StoreStack stack = *built;
  ASSERT_NE(stack.cluster, nullptr);
  ASSERT_NE(stack.ec, nullptr);

  const int kObjects = 8;
  std::vector<Bytes> payloads;
  for (int i = 0; i < kObjects; ++i) {
    payloads.push_back(Payload(100 + i, 4096 + 257 * i));
    ASSERT_TRUE(
        stack.store->Put("dsmoke." + std::to_string(i), payloads.back()).ok());
  }

  // Demote everything: the cold copies are EC-encoded behind the pointers.
  auto report = stack.migrator->RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->demoted, static_cast<std::uint64_t>(kObjects));
  for (int i = 0; i < kObjects; ++i) {
    auto probe = stack.tiering->ProbeTier("dsmoke." + std::to_string(i));
    ASSERT_TRUE(probe.ok());
    EXPECT_FALSE(probe->hot_exists);
    EXPECT_TRUE(probe->cold_exists);
  }

  // Cold reads survive a node outage (k=4, m=2 tolerates it).
  stack.cluster->SetNodeDown(0, true);
  for (int i = 0; i < kObjects; ++i) {
    auto got = stack.store->Get("dsmoke." + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "cold read failed with node 0 down";
    EXPECT_EQ(*got, payloads[static_cast<std::size_t>(i)]);
  }
  stack.cluster->SetNodeDown(0, false);

  // A second read round crosses the promote threshold.
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(stack.store->Get("dsmoke." + std::to_string(i)).ok());
  }
  report = stack.migrator->RunOnce();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->promoted, static_cast<std::uint64_t>(kObjects));
  for (int i = 0; i < kObjects; ++i) {
    const std::string key = "dsmoke." + std::to_string(i);
    auto probe = stack.tiering->ProbeTier(key);
    ASSERT_TRUE(probe.ok());
    EXPECT_TRUE(probe->hot_exists);
    EXPECT_FALSE(probe->cold_exists);
    auto got = stack.store->Get(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, payloads[static_cast<std::size_t>(i)]);
  }
  const TieringStore::Counters c = stack.tiering->counters();
  EXPECT_EQ(c.demotions, static_cast<std::uint64_t>(kObjects));
  EXPECT_EQ(c.promotions, static_cast<std::uint64_t>(kObjects));
  EXPECT_EQ(c.races, 0u);
}

}  // namespace
}  // namespace arkfs
