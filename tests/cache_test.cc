// Tests for the data object cache: write-back, read-ahead, LRU, truncate.
#include <gtest/gtest.h>

#include <atomic>

#include "cache/object_cache.h"
#include "objstore/chaos_store.h"
#include "objstore/instrumented_store.h"
#include "objstore/memory_store.h"

namespace arkfs {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() {
    auto base = std::make_shared<MemoryObjectStore>();
    counting_ = std::make_shared<InstrumentedStore>(base);
    prt_ = std::make_shared<Prt>(counting_, 4096);
    config_ = CacheConfig::ForTests();  // 4096-byte entries, 16 max
    cache_ = std::make_unique<ObjectCache>(prt_, config_);
    ino_ = DeterministicUuid(5, 5);
  }

  Bytes Pattern(std::size_t n, int seed = 0) {
    Bytes b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = static_cast<std::uint8_t>((i * 7 + seed) & 0xFF);
    }
    return b;
  }

  std::shared_ptr<InstrumentedStore> counting_;
  std::shared_ptr<Prt> prt_;
  CacheConfig config_;
  std::unique_ptr<ObjectCache> cache_;
  Uuid ino_;
};

TEST_F(CacheTest, WriteBackIsDeferredUntilFlush) {
  Bytes data = Pattern(100);
  ASSERT_TRUE(cache_->Write(ino_, 0, 0, data).ok());
  EXPECT_EQ(counting_->Snapshot().puts, 0u);  // nothing written yet
  ASSERT_TRUE(cache_->FlushFile(ino_).ok());
  EXPECT_GE(counting_->Snapshot().puts, 1u);
  auto from_store = prt_->ReadData(ino_, 0, 100, 100);
  ASSERT_TRUE(from_store.ok());
  EXPECT_EQ(*from_store, data);
}

TEST_F(CacheTest, ReadServesFromCacheAfterLoad) {
  Bytes data = Pattern(4096);
  ASSERT_TRUE(prt_->WriteData(ino_, 0, data).ok());
  auto first = cache_->Read(ino_, 4096, 0, 4096);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, data);
  const auto gets_after_first = counting_->Snapshot().gets;
  auto second = cache_->Read(ino_, 4096, 0, 4096);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(counting_->Snapshot().gets, gets_after_first);  // pure cache hit
  EXPECT_GT(cache_->stats().hits, 0u);
}

TEST_F(CacheTest, ReadYourOwnWriteBeforeFlush) {
  Bytes data = Pattern(300, 3);
  ASSERT_TRUE(cache_->Write(ino_, 0, 1000, data).ok());
  auto read = cache_->Read(ino_, 1300, 1000, 300);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST_F(CacheTest, PartialEntryWriteMergesWithStoreData) {
  // Pre-existing store data, then a small cached overwrite in the middle.
  ASSERT_TRUE(prt_->WriteData(ino_, 0, Bytes(4096, 0xAA)).ok());
  ASSERT_TRUE(cache_->Write(ino_, 4096, 100, Bytes(8, 0xBB)).ok());
  auto read = cache_->Read(ino_, 4096, 96, 16);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)[0], 0xAA);
  EXPECT_EQ((*read)[4], 0xBB);
  EXPECT_EQ((*read)[12], 0xAA);
  ASSERT_TRUE(cache_->FlushFile(ino_).ok());
  auto from_store = prt_->ReadData(ino_, 100, 8, 4096);
  EXPECT_EQ(*from_store, Bytes(8, 0xBB));
}

TEST_F(CacheTest, EvictionFlushesDirtyEntries) {
  // Write 32 entries through a 16-entry cache: evictions must write back.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(cache_->Write(ino_, static_cast<std::uint64_t>(i) * 4096,
                              static_cast<std::uint64_t>(i) * 4096,
                              Pattern(4096, i))
                    .ok());
  }
  EXPECT_LE(cache_->entry_count(), config_.max_entries + 1);
  EXPECT_GT(cache_->stats().evictions, 0u);
  ASSERT_TRUE(cache_->FlushFile(ino_).ok());
  for (int i = 0; i < 32; ++i) {
    auto data = prt_->ReadData(ino_, static_cast<std::uint64_t>(i) * 4096,
                               4096, 32 * 4096);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, Pattern(4096, i)) << "entry " << i;
  }
}

TEST_F(CacheTest, SequentialReadTriggersReadAhead) {
  const std::uint64_t file_size = 16 * 4096;
  ASSERT_TRUE(prt_->WriteData(ino_, 0, Pattern(file_size)).ok());
  // Read from offset 0: window jumps to max (paper's optimization), so
  // read-ahead loads should be recorded.
  ASSERT_TRUE(cache_->Read(ino_, file_size, 0, 4096).ok());
  // Give the async loader a moment.
  for (int i = 0; i < 100 && cache_->stats().readahead_loads == 0; ++i) {
    SleepFor(Millis(2));
  }
  EXPECT_GT(cache_->stats().readahead_loads, 0u);
}

TEST_F(CacheTest, RandomReadsDoNotReadAhead) {
  const std::uint64_t file_size = 64 * 4096;
  ASSERT_TRUE(prt_->WriteData(ino_, 0, Pattern(file_size)).ok());
  // Jump around (never sequential, never offset 0).
  for (std::uint64_t off : {5u * 4096, 20u * 4096, 9u * 4096}) {
    ASSERT_TRUE(cache_->Read(ino_, file_size, off, 100).ok());
  }
  EXPECT_EQ(cache_->stats().readahead_loads, 0u);
}

TEST_F(CacheTest, ReadAheadWindowDoublesOnSequentialAccess) {
  const std::uint64_t file_size = 64 * 4096;
  ASSERT_TRUE(prt_->WriteData(ino_, 0, Pattern(file_size)).ok());
  // Start sequential at a non-zero offset: window starts at initial and
  // doubles; eventually read-ahead kicks in.
  std::uint64_t off = 4096;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cache_->Read(ino_, file_size, off, 4096).ok());
    off += 4096;
  }
  EXPECT_GT(cache_->stats().readahead_loads, 0u);
}

TEST_F(CacheTest, DropFileForgetsCleanAndFlushesDirty) {
  ASSERT_TRUE(cache_->Write(ino_, 0, 0, Pattern(100)).ok());
  ASSERT_TRUE(cache_->DropFile(ino_, /*flush_dirty=*/true).ok());
  EXPECT_EQ(cache_->entry_count(), 0u);
  auto from_store = prt_->ReadData(ino_, 0, 100, 100);
  ASSERT_TRUE(from_store.ok());
  EXPECT_EQ(*from_store, Pattern(100));
}

TEST_F(CacheTest, TruncateDiscardsTailEntries) {
  ASSERT_TRUE(cache_->Write(ino_, 0, 0, Pattern(3 * 4096)).ok());
  cache_->TruncateFile(ino_, 4096 + 100);
  // Only the first entry (trimmed) may remain dirty; flush and verify size.
  ASSERT_TRUE(cache_->FlushFile(ino_).ok());
  auto read = cache_->Read(ino_, 4096 + 100, 4096, 200);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 100u);
}

TEST_F(CacheTest, HolesReadAsZeros) {
  ASSERT_TRUE(cache_->Write(ino_, 0, 2 * 4096, Pattern(10)).ok());
  auto read = cache_->Read(ino_, 2 * 4096 + 10, 0, 4096);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Bytes(4096, 0));
}

TEST_F(CacheTest, FlushAllCoversMultipleFiles) {
  const Uuid other = DeterministicUuid(6, 6);
  ASSERT_TRUE(cache_->Write(ino_, 0, 0, Pattern(10, 1)).ok());
  ASSERT_TRUE(cache_->Write(other, 0, 0, Pattern(10, 2)).ok());
  ASSERT_TRUE(cache_->FlushAll().ok());
  EXPECT_EQ(*prt_->ReadData(ino_, 0, 10, 10), Pattern(10, 1));
  EXPECT_EQ(*prt_->ReadData(other, 0, 10, 10), Pattern(10, 2));
}

TEST_F(CacheTest, WriteBeyondEofDoesNotLoadFromStore) {
  counting_->Reset();
  // Entry starts beyond current file size: no read-modify-write needed.
  ASSERT_TRUE(cache_->Write(ino_, 0, 0, Pattern(4096)).ok());
  EXPECT_EQ(counting_->Snapshot().gets, 0u);
}

// --- writeback retention under store faults ---
//
// A failed writeback must surface the error AND keep the entry dirty, so a
// later flush (fsync retry, eviction, shutdown) still carries the data. Data
// acked only into the cache may not be silently dropped by a transient store
// fault.

TEST(CacheWritebackRetryTest, FlushFileRetainsDirtyUntilStoreHeals) {
  auto base = std::make_shared<MemoryObjectStore>();
  std::atomic<int> put_failures_left{3};
  auto faulty = std::make_shared<ChaosStore>(
      base, ChaosConfig{}, [&](std::string_view op, const std::string&) {
        if (op.starts_with("put") &&
            put_failures_left.fetch_sub(1, std::memory_order_relaxed) > 0) {
          return Errc::kIo;
        }
        return Errc::kOk;
      });
  auto prt = std::make_shared<Prt>(faulty, 4096);
  ObjectCache cache(prt, CacheConfig::ForTests());
  const Uuid ino = DeterministicUuid(7, 7);

  Bytes data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13);
  }
  ASSERT_TRUE(cache.Write(ino, 0, 0, data).ok());

  // While the store faults, every flush fails but the entry stays dirty.
  EXPECT_FALSE(cache.FlushFile(ino).ok());
  EXPECT_TRUE(cache.HasDirty(ino));

  // The fault clears after three attempts; re-driving the flush must then
  // write back the retained bytes without the caller re-writing anything.
  Status st;
  for (int attempt = 0; attempt < 8 && !(st = cache.FlushFile(ino)).ok();
       ++attempt) {
  }
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(cache.HasDirty(ino));
  auto from_store = prt->ReadData(ino, 0, 100, 100);
  ASSERT_TRUE(from_store.ok());
  EXPECT_EQ(*from_store, data);
}

TEST(CacheWritebackRetryTest, FlushAllRetainsDirtyAcrossFiles) {
  auto base = std::make_shared<MemoryObjectStore>();
  std::atomic<bool> fail_puts{true};
  auto faulty = std::make_shared<ChaosStore>(
      base, ChaosConfig{}, [&](std::string_view op, const std::string&) {
        return (fail_puts && op.starts_with("put")) ? Errc::kIo : Errc::kOk;
      });
  auto prt = std::make_shared<Prt>(faulty, 4096);
  ObjectCache cache(prt, CacheConfig::ForTests());
  const Uuid a = DeterministicUuid(8, 8);
  const Uuid b = DeterministicUuid(9, 9);
  ASSERT_TRUE(cache.Write(a, 0, 0, Bytes(64, 0xA1)).ok());
  ASSERT_TRUE(cache.Write(b, 0, 0, Bytes(64, 0xB2)).ok());

  EXPECT_FALSE(cache.FlushAll().ok());
  EXPECT_TRUE(cache.HasDirty(a));
  EXPECT_TRUE(cache.HasDirty(b));

  fail_puts = false;
  ASSERT_TRUE(cache.FlushAll().ok());
  EXPECT_FALSE(cache.HasDirty(a));
  EXPECT_FALSE(cache.HasDirty(b));
  EXPECT_EQ(*prt->ReadData(a, 0, 64, 64), Bytes(64, 0xA1));
  EXPECT_EQ(*prt->ReadData(b, 0, 64, 64), Bytes(64, 0xB2));
}

}  // namespace
}  // namespace arkfs
