// Tests for the PRT: key schema and POSIX<->REST data translation.
#include <gtest/gtest.h>

#include "objstore/instrumented_store.h"
#include "objstore/memory_store.h"
#include "obs/metrics.h"
#include "prt/key_schema.h"
#include "prt/translator.h"

namespace arkfs {
namespace {

TEST(KeySchemaTest, PrefixesMatchPaper) {
  const Uuid u = DeterministicUuid(1, 1);
  EXPECT_EQ(InodeKey(u)[0], 'i');
  EXPECT_EQ(DentryKey(u)[0], 'e');
  EXPECT_EQ(JournalKey(u)[0], 'j');
  EXPECT_EQ(DataKey(u, 0)[0], 'd');
  EXPECT_EQ(InodeKey(u).size(), 33u);
}

TEST(KeySchemaTest, DataKeysSortNumerically) {
  const Uuid u = DeterministicUuid(2, 2);
  EXPECT_LT(DataKey(u, 9), DataKey(u, 10));
  EXPECT_LT(DataKey(u, 255), DataKey(u, 256));
  EXPECT_LT(DataKey(u, 0), DataKey(u, 1ull << 40));
}

TEST(KeySchemaTest, ParseRoundTrip) {
  const Uuid u = DeterministicUuid(3, 3);
  auto parsed = ParseKey(DataKey(u, 77));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, KeyKind::kData);
  EXPECT_EQ(parsed->ino, u);
  EXPECT_EQ(parsed->chunk_index, 77u);

  auto inode = ParseKey(InodeKey(u));
  ASSERT_TRUE(inode.ok());
  EXPECT_EQ(inode->kind, KeyKind::kInode);

  EXPECT_FALSE(ParseKey("x" + u.ToString()).ok());
  EXPECT_FALSE(ParseKey("i123").ok());
  EXPECT_FALSE(ParseKey(InodeKey(u) + "junk").ok());
}

class PrtTest : public ::testing::Test {
 protected:
  PrtTest()
      : store_(std::make_shared<InstrumentedStore>(
            std::make_shared<MemoryObjectStore>(1024))),
        prt_(store_, 1024, [this] {
          AsyncIoConfig cfg;
          cfg.metrics = &registry_;
          return cfg;
        }()) {}

  std::uint64_t AsyncBatches() {
    return registry_.Snapshot().counter("asyncio.batches");
  }

  Bytes Pattern(std::size_t n, int seed = 0) {
    Bytes b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = static_cast<std::uint8_t>((i * 31 + seed) & 0xFF);
    }
    return b;
  }

  std::shared_ptr<InstrumentedStore> store_;
  obs::MetricsRegistry registry_;
  Prt prt_;
};

TEST_F(PrtTest, InodeRoundTrip) {
  Inode i = MakeInode(NewUuid(), FileType::kRegular, 0644, 5, 6, kRootIno);
  ASSERT_TRUE(prt_.StoreInode(i).ok());
  auto loaded = prt_.LoadInode(i.ino);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->uid, 5u);
  ASSERT_TRUE(prt_.store().Delete(InodeKey(i.ino)).ok());
  EXPECT_EQ(prt_.LoadInode(i.ino).code(), Errc::kNoEnt);
}

TEST_F(PrtTest, WriteReadWithinOneChunk) {
  const Uuid ino = NewUuid();
  Bytes data = Pattern(100);
  ASSERT_TRUE(prt_.WriteData(ino, 10, data).ok());
  auto read = prt_.ReadData(ino, 10, 100, 110);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(PrtTest, WriteSpansChunks) {
  const Uuid ino = NewUuid();
  // 1024-byte chunks; write 3000 bytes at offset 500 -> chunks 0..3.
  Bytes data = Pattern(3000);
  ASSERT_TRUE(prt_.WriteData(ino, 500, data).ok());
  EXPECT_TRUE(prt_.store().Head(DataKey(ino, 0)).ok());
  EXPECT_TRUE(prt_.store().Head(DataKey(ino, 3)).ok());
  auto read = prt_.ReadData(ino, 500, 3000, 3500);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(PrtTest, HolesReadAsZeros) {
  const Uuid ino = NewUuid();
  ASSERT_TRUE(prt_.WriteData(ino, 3000, Pattern(10)).ok());
  // Chunks 0-1 were never written.
  auto read = prt_.ReadData(ino, 0, 3010, 3010);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->size(), 3010u);
  EXPECT_EQ((*read)[0], 0);
  EXPECT_EQ((*read)[2999], 0);
  EXPECT_EQ((*read)[3000], Pattern(10)[0]);
}

TEST_F(PrtTest, ReadClampsToFileSize) {
  const Uuid ino = NewUuid();
  ASSERT_TRUE(prt_.WriteData(ino, 0, Pattern(100)).ok());
  auto read = prt_.ReadData(ino, 50, 1000, 100);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 50u);
  EXPECT_TRUE(prt_.ReadData(ino, 200, 10, 100)->empty());
}

TEST_F(PrtTest, TruncateDropsAndTrimsChunks) {
  const Uuid ino = NewUuid();
  ASSERT_TRUE(prt_.WriteData(ino, 0, Pattern(4096)).ok());  // 4 chunks
  ASSERT_TRUE(prt_.TruncateData(ino, 4096, 1500).ok());
  EXPECT_TRUE(prt_.store().Head(DataKey(ino, 0)).ok());
  EXPECT_EQ(prt_.store().Head(DataKey(ino, 1))->size, 1500u - 1024u);
  EXPECT_EQ(prt_.store().Head(DataKey(ino, 2)).code(), Errc::kNoEnt);
  EXPECT_EQ(prt_.store().Head(DataKey(ino, 3)).code(), Errc::kNoEnt);
}

TEST_F(PrtTest, TruncateToZeroAndDelete) {
  const Uuid ino = NewUuid();
  ASSERT_TRUE(prt_.WriteData(ino, 0, Pattern(2500)).ok());
  ASSERT_TRUE(prt_.DeleteData(ino, 2500).ok());
  for (std::uint64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(prt_.store().Head(DataKey(ino, c)).code(), Errc::kNoEnt);
  }
}

TEST_F(PrtTest, ChunkMath) {
  EXPECT_EQ(prt_.NumChunksFor(0), 0u);
  EXPECT_EQ(prt_.NumChunksFor(1), 1u);
  EXPECT_EQ(prt_.NumChunksFor(1024), 1u);
  EXPECT_EQ(prt_.NumChunksFor(1025), 2u);
}

TEST(KeySchemaTest, ShardedDentryKeysParse) {
  const Uuid u = DeterministicUuid(4, 4);

  auto manifest = ParseKey(DentryManifestKey(u));
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->kind, KeyKind::kDentryManifest);
  EXPECT_EQ(manifest->ino, u);

  auto shard = ParseKey(DentryShardKey(u, 16, 5, 0));
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ(shard->kind, KeyKind::kDentryShard);
  EXPECT_EQ(shard->ino, u);
  EXPECT_EQ(shard->dentry_shard_count, 16u);
  EXPECT_EQ(shard->dentry_shard, 5u);
  EXPECT_EQ(shard->dentry_slot, 0u);

  // Max-generation keys and the second slot round-trip too.
  auto wide = ParseKey(DentryShardKey(u, kMaxDentryShards, 255, 1));
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->dentry_shard_count, kMaxDentryShards);
  EXPECT_EQ(wide->dentry_shard, 255u);
  EXPECT_EQ(wide->dentry_slot, 1u);

  // The reserved unsharded-block name still parses as plain kDentry.
  auto reserved = ParseKey(DentryKey(u));
  ASSERT_TRUE(reserved.ok());
  EXPECT_EQ(reserved->kind, KeyKind::kDentry);

  // Malformed variants are rejected.
  EXPECT_FALSE(ParseKey(DentryManifestKey(u) + "x").ok());
  EXPECT_FALSE(ParseKey(DentryKey(u) + ".zz.0005.0").ok());
  EXPECT_FALSE(ParseKey(DentryKey(u) + ".04.00zz.0").ok());
  EXPECT_FALSE(ParseKey(DentryKey(u) + ".04.0005").ok());    // slotless (old)
  EXPECT_FALSE(ParseKey(DentryKey(u) + ".04.0005.2").ok());  // slot not 0/1
  // A generation byte beyond log2(kMaxDentryShards) must be rejected, not
  // shifted (1u << 0xff is undefined behavior).
  EXPECT_FALSE(ParseKey(DentryKey(u) + ".ff.0000.0").ok());
  EXPECT_FALSE(ParseKey(DentryKey(u) + ".09.0000.0").ok());
}

TEST(KeySchemaTest, DentryObjectPrefixCoversShardedNotLegacy) {
  const Uuid u = DeterministicUuid(5, 5);
  const std::string prefix = DentryObjectPrefix(u);
  auto starts_with = [&](const std::string& key) {
    return key.compare(0, prefix.size(), prefix) == 0;
  };
  EXPECT_TRUE(starts_with(DentryManifestKey(u)));
  EXPECT_TRUE(starts_with(DentryShardKey(u, 1, 0, 0)));
  EXPECT_TRUE(starts_with(DentryShardKey(u, 64, 63, 1)));
  EXPECT_FALSE(starts_with(DentryKey(u)));  // reserved name has no '.'
}

TEST(KeySchemaTest, DentryShardOfIsStableAndInRange) {
  // Placement is persisted, so the hash must be deterministic across runs:
  // pin a few FNV-1a values.
  EXPECT_EQ(DentryShardOf("a", 1), 0u);
  const std::uint32_t b16 = DentryShardOf("hello", 16);
  EXPECT_EQ(DentryShardOf("hello", 16), b16);
  for (std::uint32_t b : {1u, 2u, 16u, 64u, 256u}) {
    for (const char* name : {"a", "bb", "file-000123", "x.y.z", ""}) {
      EXPECT_LT(DentryShardOf(name, b), b);
    }
  }
  // Doubling the shard count only refines placement (mask extension):
  // shard-at-B equals shard-at-2B modulo B for a power-of-two mask hash.
  for (const char* name : {"alpha", "beta", "gamma", "delta"}) {
    EXPECT_EQ(DentryShardOf(name, 8) % 4, DentryShardOf(name, 4));
  }
}

TEST(KeySchemaTest, DentryManifestCodecRoundTrip) {
  DentryManifest m{16, 123456};
  auto decoded = DecodeDentryManifest(EncodeDentryManifest(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, m);

  // Slot bits survive the round trip (including the high shard of the
  // bitmap's second byte), and an all-zero bitmap decodes to the canonical
  // empty form so manifests compare equal either way.
  DentryManifest slotted{16, 7};
  slotted.SetSlot(0, 1);
  slotted.SetSlot(9, 1);
  slotted.SetSlot(15, 1);
  auto slots = DecodeDentryManifest(EncodeDentryManifest(slotted));
  ASSERT_TRUE(slots.ok());
  EXPECT_EQ(*slots, slotted);
  EXPECT_EQ(slots->SlotOf(0), 1);
  EXPECT_EQ(slots->SlotOf(1), 0);
  EXPECT_EQ(slots->SlotOf(9), 1);
  EXPECT_EQ(slots->SlotOf(15), 1);
  DentryManifest zeroed{16, 7};
  zeroed.SetSlot(3, 1);
  zeroed.SetSlot(3, 0);
  auto canon = DecodeDentryManifest(EncodeDentryManifest(zeroed));
  ASSERT_TRUE(canon.ok());
  EXPECT_TRUE(canon->slots.empty());
  EXPECT_EQ(*canon, (DentryManifest{16, 7}));

  // Rejects: non-pow2 count, zero count, count over the format cap,
  // truncated buffer.
  EXPECT_FALSE(DecodeDentryManifest(EncodeDentryManifest({3, 0})).ok());
  EXPECT_FALSE(DecodeDentryManifest(EncodeDentryManifest({0, 0})).ok());
  EXPECT_FALSE(
      DecodeDentryManifest(EncodeDentryManifest({kMaxDentryShards * 2, 0}))
          .ok());
  Bytes enc = EncodeDentryManifest(m);
  enc.resize(1);
  EXPECT_FALSE(DecodeDentryManifest(enc).ok());
  EXPECT_FALSE(DecodeDentryManifest(Bytes{}).ok());
}

TEST_F(PrtTest, DentryManifestRoundTrip) {
  const Uuid dir = NewUuid();
  EXPECT_EQ(prt_.LoadDentryManifest(dir).code(), Errc::kNoEnt);  // fresh
  ASSERT_TRUE(prt_.StoreDentryManifest(dir, {4, 10}).ok());
  auto m = prt_.LoadDentryManifest(dir);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->shard_count, 4u);
  EXPECT_EQ(m->entry_count, 10u);
}

TEST_F(PrtTest, DentryShardRoundTrip) {
  const Uuid dir = NewUuid();
  std::vector<Dentry> entries{{"p", NewUuid(), FileType::kRegular},
                              {"q", NewUuid(), FileType::kDirectory}};
  ASSERT_TRUE(prt_.StoreDentryShard(dir, 4, 2, entries).ok());
  // The two slots of a shard are independent objects.
  ASSERT_TRUE(prt_.StoreDentryShard(dir, 4, 2, {entries[0]}, /*slot=*/1,
                                    /*epoch=*/2)
                  .ok());
  DentryManifest manifest{4, 3};
  auto slot0 = prt_.LoadDentryShards(dir, manifest, {2, 3});
  ASSERT_TRUE(slot0.ok());
  EXPECT_EQ((*slot0)[0].entries, entries);
  EXPECT_TRUE((*slot0)[1].entries.empty());  // missing shard reads as empty
  manifest.SetSlot(2, 1);
  auto slot1 = prt_.LoadDentryShards(dir, manifest, {2});
  ASSERT_TRUE(slot1.ok());
  EXPECT_EQ((*slot1)[0].entries.size(), 1u);
  EXPECT_EQ((*slot1)[0].epoch, 2u);
}

TEST_F(PrtTest, LoadDentryShardsIsStrictAndSlotAware) {
  const Uuid dir = NewUuid();
  ASSERT_TRUE(
      prt_.StoreDentryShard(dir, 4, 0, {{"a", NewUuid(), FileType::kRegular}})
          .ok());
  DentryManifest manifest{4, 1};

  // Missing live shards read as empty; intact ones decode with their epoch.
  auto ok_load = prt_.LoadDentryShards(dir, manifest, {0, 2});
  ASSERT_TRUE(ok_load.ok());
  ASSERT_EQ(ok_load->size(), 2u);
  EXPECT_EQ((*ok_load)[0].entries.size(), 1u);
  EXPECT_TRUE((*ok_load)[1].entries.empty());

  // Garbage at a manifest-referenced live slot is REAL corruption (the
  // manifest only ever references fully landed objects) and must fail
  // loudly, never silently read as an empty shard.
  ASSERT_TRUE(
      prt_.store().Put(DentryShardKey(dir, 4, 1, 0), Bytes{0xFF, 0xFF}).ok());
  auto strict = prt_.LoadDentryShards(dir, manifest, {0, 1, 2});
  EXPECT_FALSE(strict.ok());

  // The manifest's slot bits pick which object is live: garbage parked in
  // the INACTIVE slot (a torn checkpoint artifact) is invisible.
  ASSERT_TRUE(prt_.StoreDentryShard(dir, 4, 1,
                                    {{"b", NewUuid(), FileType::kRegular}},
                                    /*slot=*/1, /*epoch=*/3)
                  .ok());
  manifest.SetSlot(1, 1);
  auto live = prt_.LoadDentryShards(dir, manifest, {0, 1, 2});
  ASSERT_TRUE(live.ok());
  EXPECT_EQ((*live)[1].entries.size(), 1u);
  EXPECT_EQ((*live)[1].epoch, 3u);
}

TEST_F(PrtTest, LoadDentriesHandlesBothLayouts) {
  // Entries spread over a 4-way generation.
  const Uuid sharded = NewUuid();
  std::vector<Dentry> all;
  for (int i = 0; i < 20; ++i) {
    all.push_back({"f" + std::to_string(i), NewUuid(), FileType::kRegular});
  }
  std::vector<std::vector<Dentry>> buckets(4);
  for (const auto& d : all) buckets[DentryShardOf(d.name, 4)].push_back(d);
  for (std::uint32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(prt_.StoreDentryShard(sharded, 4, s, buckets[s]).ok());
  }
  ASSERT_TRUE(
      prt_.StoreDentryManifest(sharded, {4, all.size()}).ok());
  auto from_shards = prt_.LoadDentries(sharded);
  ASSERT_TRUE(from_shards.ok());
  EXPECT_EQ(from_shards->size(), all.size());

  // A never-checkpointed directory (no manifest) reads as empty, even if
  // a stray object sits at the reserved unsharded-block name.
  const Uuid fresh = NewUuid();
  ASSERT_TRUE(prt_.store().Put(DentryKey(fresh), Bytes{1, 2, 3}).ok());
  EXPECT_TRUE(prt_.LoadDentries(fresh)->empty());
}

TEST_F(PrtTest, BootstrapIsOneBatchWhenHintMatches) {
  // Acceptance criterion: leader bootstrap of a sharded directory issues one
  // overlapped batch. With a correct hint the whole load is 3 + 2B gets
  // (inode, journal, manifest, both slots of B shards) in a single
  // MultiGet.
  const Uuid dir = NewUuid();
  const std::uint32_t kShards = 8;
  Inode di = MakeInode(dir, FileType::kDirectory, 0755, 0, 0, kRootIno);
  ASSERT_TRUE(prt_.StoreInode(di).ok());
  std::vector<std::vector<Dentry>> buckets(kShards);
  for (int i = 0; i < 32; ++i) {
    Dentry d{"n" + std::to_string(i), NewUuid(), FileType::kRegular};
    buckets[DentryShardOf(d.name, kShards)].push_back(d);
  }
  for (std::uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(prt_.StoreDentryShard(dir, kShards, s, buckets[s]).ok());
  }
  ASSERT_TRUE(prt_.StoreDentryManifest(dir, {kShards, 32}).ok());

  store_->Reset();
  const auto batches_before = AsyncBatches();
  auto objs = prt_.LoadDirObjects(dir, kShards);
  ASSERT_TRUE(objs.inode.ok());
  ASSERT_TRUE(objs.dentries.ok());
  EXPECT_EQ(objs.dentries->size(), 32u);
  EXPECT_EQ(objs.shard_count, kShards);
  EXPECT_EQ(store_->Snapshot().gets, 3u + 2u * kShards);
  EXPECT_EQ(AsyncBatches() - batches_before, 1u);

  // A stale hint costs exactly one extra overlapped batch for the real
  // live shard set — never a per-shard serial loop.
  store_->Reset();
  const auto batches_mid = AsyncBatches();
  auto cold = prt_.LoadDirObjects(dir, /*shard_hint=*/1);
  ASSERT_TRUE(cold.dentries.ok());
  EXPECT_EQ(cold.dentries->size(), 32u);
  EXPECT_EQ(cold.shard_count, kShards);
  EXPECT_EQ(store_->Snapshot().gets, (3u + 2u) + kShards);
  EXPECT_EQ(AsyncBatches() - batches_mid, 2u);
}

TEST_F(PrtTest, BootstrapNeverCheckpointedDirIsOneBatch) {
  // A directory with no manifest (created, never checkpointed) bootstraps
  // as empty in one batch: inode, journal, manifest and both slots of the
  // hinted shard — 5 gets, and nothing at the reserved e<uuid> name.
  const Uuid dir = NewUuid();
  Inode di = MakeInode(dir, FileType::kDirectory, 0755, 0, 0, kRootIno);
  ASSERT_TRUE(prt_.StoreInode(di).ok());

  store_->Reset();
  const auto batches_before = AsyncBatches();
  auto objs = prt_.LoadDirObjects(dir, /*shard_hint=*/1);
  ASSERT_TRUE(objs.inode.ok());
  ASSERT_TRUE(objs.dentries.ok());
  EXPECT_TRUE(objs.dentries->empty());
  EXPECT_EQ(objs.shard_count, 0u);  // no layout yet
  EXPECT_EQ(store_->Snapshot().gets, 5u);
  EXPECT_EQ(AsyncBatches() - batches_before, 1u);
}

TEST(PrtS3Test, PartialWriteAmplifiesToWholeChunk) {
  // On a whole-object store, a tiny overwrite must rewrite the full chunk —
  // the S3FS amplification the paper calls out (§II-C).
  auto base = std::make_shared<MemoryObjectStore>(4096, /*partial=*/false);
  auto counting = std::make_shared<InstrumentedStore>(base);
  Prt prt(counting, 4096);
  const Uuid ino = NewUuid();
  Bytes initial(4096, 1);
  ASSERT_TRUE(prt.WriteData(ino, 0, initial).ok());
  counting->Reset();

  ASSERT_TRUE(prt.WriteData(ino, 100, Bytes(8, 2)).ok());
  auto c = counting->Snapshot();
  EXPECT_EQ(c.gets, 1u);                   // read-modify-write
  EXPECT_EQ(c.bytes_written, 4096u);       // whole chunk rewritten for 8 bytes
  auto read = prt.ReadData(ino, 98, 12, 4096);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)[0], 1);
  EXPECT_EQ((*read)[2], 2);
}

TEST(PrtS3Test, AlignedFullChunkWriteAvoidsRmw) {
  auto base = std::make_shared<MemoryObjectStore>(4096, /*partial=*/false);
  auto counting = std::make_shared<InstrumentedStore>(base);
  Prt prt(counting, 4096);
  const Uuid ino = NewUuid();
  ASSERT_TRUE(prt.WriteData(ino, 0, Bytes(8192, 3)).ok());
  auto c = counting->Snapshot();
  EXPECT_EQ(c.gets, 0u);  // two aligned chunk PUTs, no read-modify-write
  EXPECT_EQ(c.puts, 2u);
}

}  // namespace
}  // namespace arkfs
