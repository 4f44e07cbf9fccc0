// Robustness tests: store fault injection, lease churn, concurrency stress,
// large directories, deep paths, and ArkFS over an S3-style (whole-object)
// backend.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/cluster.h"
#include "objstore/chaos_store.h"
#include "objstore/memory_store.h"

namespace arkfs {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  std::unique_ptr<ArkFsCluster> MakeCluster(ObjectStorePtr store) {
    return ArkFsCluster::Create(store, ArkFsClusterOptions::ForTests()).value();
  }
  UserCred root_ = UserCred::Root();
};

// --- fault injection on the store ---

TEST_F(RobustnessTest, StorePutFailuresSurfaceOnFsync) {
  auto base = std::make_shared<MemoryObjectStore>();
  std::atomic<bool> fail_puts{false};
  auto faulty = std::make_shared<ChaosStore>(
      base, ChaosConfig{}, [&](std::string_view op, const std::string&) {
        return (fail_puts && op.starts_with("put")) ? Errc::kIo : Errc::kOk;
      });
  auto cluster = MakeCluster(faulty);
  auto fs = cluster->AddClient().value();

  OpenOptions create;
  create.write = true;
  create.create = true;
  auto fd = fs->Open("/f", create, root_);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs->Write(*fd, 0, Bytes(8192, 1)).ok());  // buffered, no error

  fail_puts = true;
  EXPECT_FALSE(fs->Fsync(*fd).ok());  // flush must report the store failure

  // Recovery: once the store heals, the same data flushes cleanly.
  fail_puts = false;
  EXPECT_TRUE(fs->Fsync(*fd).ok());
  ASSERT_TRUE(fs->Close(*fd).ok());
  EXPECT_EQ(fs->ReadWholeFile("/f", root_)->size(), 8192u);
}

TEST_F(RobustnessTest, TransientGetFailuresDoNotCorruptCache) {
  auto base = std::make_shared<MemoryObjectStore>();
  std::atomic<bool> fail_data_reads{false};
  auto faulty = std::make_shared<ChaosStore>(
      base, ChaosConfig{}, [&](std::string_view op, const std::string& key) {
        return (fail_data_reads && op.starts_with("get") && key[0] == 'd')
                   ? Errc::kIo
                   : Errc::kOk;
      });
  auto cluster = MakeCluster(faulty);
  auto fs = cluster->AddClient().value();
  ASSERT_TRUE(fs->WriteFileAt("/data", Bytes(10000, 7), root_).ok());
  ASSERT_TRUE(fs->DropCaches().ok());

  fail_data_reads = true;
  OpenOptions read;
  auto fd = fs->Open("/data", read, root_);
  ASSERT_TRUE(fd.ok());
  auto first = fs->Read(*fd, 0, 10000);
  EXPECT_FALSE(first.ok());  // injected failure surfaces

  // After the fault clears, a retry returns correct data — failed loads
  // must not leave zero-filled ghost entries in the cache.
  fail_data_reads = false;
  auto second = fs->Read(*fd, 0, 10000);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, Bytes(10000, 7));
  ASSERT_TRUE(fs->Close(*fd).ok());
}

TEST_F(RobustnessTest, MetatableBuildFailureDoesNotWedgeDirectory) {
  auto base = std::make_shared<MemoryObjectStore>();
  std::atomic<bool> fail_dentry_reads{false};
  auto faulty = std::make_shared<ChaosStore>(
      base, ChaosConfig{}, [&](std::string_view op, const std::string& key) {
        return (fail_dentry_reads && op.starts_with("get") && key[0] == 'e')
                   ? Errc::kIo
                   : Errc::kOk;
      });
  auto cluster = MakeCluster(faulty);
  auto c1 = cluster->AddClient().value();
  ASSERT_TRUE(c1->Mkdir("/dir", 0755, root_).ok());
  ASSERT_TRUE(c1->WriteFileAt("/dir/f", AsBytes("x"), root_).ok());
  ASSERT_TRUE(c1->Shutdown().ok());  // checkpoints + releases the lease

  fail_dentry_reads = true;
  auto c2 = cluster->AddClient().value();
  EXPECT_FALSE(c2->ReadDir("/dir", root_).ok());  // build fails cleanly
  fail_dentry_reads = false;
  auto entries = c2->ReadDir("/dir", root_);  // and succeeds on retry
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
}

// --- lease churn ---

TEST_F(RobustnessTest, OpsSurviveContinuousLeaseExpiry) {
  auto store = std::make_shared<MemoryObjectStore>();
  ArkFsClusterOptions options = ArkFsClusterOptions::ForTests();
  options.lease.lease_period = Millis(30);  // expire constantly
  auto cluster = ArkFsCluster::Create(store, options).value();
  auto c1 = cluster->AddClient().value();
  auto c2 = cluster->AddClient().value();

  ASSERT_TRUE(c1->Mkdir("/churn", 0777, root_).ok());
  // Interleave two clients against one directory across many lease terms.
  for (int i = 0; i < 30; ++i) {
    auto& fs = (i % 2 == 0) ? c1 : c2;
    ASSERT_TRUE(fs->WriteFileAt("/churn/f" + std::to_string(i),
                                AsBytes("v"), root_)
                    .ok())
        << i;
    if (i % 5 == 4) SleepFor(Millis(40));  // force an expiry window
  }
  auto entries = c1->ReadDir("/churn", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 30u);
}

// --- concurrency stress ---

TEST_F(RobustnessTest, ParallelMixedOpsSingleClient) {
  auto cluster = MakeCluster(std::make_shared<MemoryObjectStore>());
  auto fs = cluster->AddClient().value();
  ASSERT_TRUE(fs->Mkdir("/stress", 0777, root_).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      const std::string mine = "/stress/t" + std::to_string(t);
      if (!fs->Mkdir(mine, 0777, root_).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 30; ++i) {
        const std::string f = mine + "/f" + std::to_string(i);
        if (!fs->WriteFileAt(f, Bytes(200 + i, static_cast<std::uint8_t>(i)),
                             root_)
                 .ok()) {
          ++failures;
        }
        if (i % 3 == 0) {
          if (!fs->Stat(f, root_).ok()) ++failures;
        }
        if (i % 7 == 6) {
          if (!fs->Rename(f, f + ".renamed", root_).ok()) ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(fs->SyncAll().ok());
  for (int t = 0; t < 6; ++t) {
    auto entries = fs->ReadDir("/stress/t" + std::to_string(t), root_);
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), 30u);
  }
}

TEST_F(RobustnessTest, ParallelWritersDistinctRangesSameFile) {
  auto cluster = MakeCluster(std::make_shared<MemoryObjectStore>());
  auto fs = cluster->AddClient().value();
  OpenOptions create;
  create.write = true;
  create.create = true;
  auto fd = fs->Open("/big", create, root_);
  ASSERT_TRUE(fd.ok());

  constexpr int kThreads = 4;
  constexpr std::uint64_t kSlice = 64 * 1024;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Bytes data(kSlice, static_cast<std::uint8_t>(t + 1));
      ASSERT_TRUE(fs->Write(*fd, t * kSlice, data).ok());
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(fs->Fsync(*fd).ok());
  ASSERT_TRUE(fs->Close(*fd).ok());

  auto back = fs->ReadWholeFile("/big", root_);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), kThreads * kSlice);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ((*back)[t * kSlice], t + 1) << t;
    EXPECT_EQ((*back)[(t + 1) * kSlice - 1], t + 1) << t;
  }
}

// --- scale edges ---

TEST_F(RobustnessTest, LargeDirectorySurvivesCheckpointAndReload) {
  auto store = std::make_shared<MemoryObjectStore>();
  auto cluster = MakeCluster(store);
  auto c1 = cluster->AddClient().value();
  ASSERT_TRUE(c1->Mkdir("/big", 0755, root_).ok());
  constexpr int kFiles = 1500;
  OpenOptions create;
  create.write = true;
  create.create = true;
  for (int i = 0; i < kFiles; ++i) {
    auto fd = c1->Open("/big/f" + std::to_string(i), create, root_);
    ASSERT_TRUE(fd.ok()) << i;
    ASSERT_TRUE(c1->Close(*fd).ok());
  }
  ASSERT_TRUE(c1->Shutdown().ok());  // full checkpoint to dentry block

  auto c2 = cluster->AddClient().value();
  auto entries = c2->ReadDir("/big", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<std::size_t>(kFiles));
  EXPECT_TRUE(c2->Stat("/big/f777", root_).ok());
}

TEST_F(RobustnessTest, DeepDirectoryHierarchy) {
  auto cluster = MakeCluster(std::make_shared<MemoryObjectStore>());
  auto fs = cluster->AddClient().value();
  std::string path;
  for (int depth = 0; depth < 24; ++depth) {
    path += "/d" + std::to_string(depth);
    ASSERT_TRUE(fs->Mkdir(path, 0755, root_).ok()) << depth;
  }
  ASSERT_TRUE(fs->WriteFileAt(path + "/leaf", AsBytes("deep"), root_).ok());
  EXPECT_EQ(ToString(*fs->ReadWholeFile(path + "/leaf", root_)), "deep");
  // Tear it back down bottom-up.
  ASSERT_TRUE(fs->Unlink(path + "/leaf", root_).ok());
  for (int depth = 23; depth >= 0; --depth) {
    ASSERT_TRUE(fs->Rmdir(path, root_).ok()) << depth;
    auto slash = path.find_last_of('/');
    path = path.substr(0, slash);
  }
}

// --- ArkFS over a whole-object (S3-style) backend end to end ---

TEST_F(RobustnessTest, FullStackOnWholeObjectStore) {
  // No partial writes anywhere: journal appends and cache flushes must all
  // go through read-modify-write, and still be correct.
  auto store = std::make_shared<MemoryObjectStore>(kDefaultMaxObjectSize,
                                                   /*partial=*/false);
  auto cluster = MakeCluster(store);
  auto fs = cluster->AddClient().value();

  ASSERT_TRUE(fs->MkdirAll("/s3/nested", 0755, root_).ok());
  Bytes data(100000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131);
  }
  ASSERT_TRUE(fs->WriteFileAt("/s3/nested/blob", data, root_).ok());
  ASSERT_TRUE(fs->Rename("/s3/nested/blob", "/s3/moved", root_).ok());
  ASSERT_TRUE(fs->SyncAll().ok());
  ASSERT_TRUE(fs->DropCaches().ok());
  EXPECT_EQ(*fs->ReadWholeFile("/s3/moved", root_), data);

  // Crash + recover on the whole-object backend too.
  OpenOptions create;
  create.write = true;
  create.create = true;
  auto fd = fs->Open("/s3/crashy", create, root_);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs->Write(*fd, 0, AsBytes("durable")).ok());
  ASSERT_TRUE(fs->Fsync(*fd).ok());
  fs->CrashHard();
  SleepFor(cluster->lease_manager().config().lease_period + Millis(100));
  auto fresh = cluster->AddClient("fresh").value();
  EXPECT_EQ(ToString(*fresh->ReadWholeFile("/s3/crashy", root_)), "durable");
}

TEST_F(RobustnessTest, PcacheOffStillCorrect) {
  auto store = std::make_shared<MemoryObjectStore>();
  ArkFsClusterOptions options = ArkFsClusterOptions::ForTests();
  options.client_template.permission_cache = false;
  auto cluster = ArkFsCluster::Create(store, options).value();
  auto c1 = cluster->AddClient().value();
  auto c2 = cluster->AddClient().value();
  ASSERT_TRUE(c1->MkdirAll("/a/b/c", 0755, root_).ok());
  ASSERT_TRUE(c2->WriteFileAt("/a/b/c/f", AsBytes("no-pcache"), root_).ok());
  EXPECT_EQ(ToString(*c1->ReadWholeFile("/a/b/c/f", root_)), "no-pcache");
  EXPECT_EQ(c1->stats().perm_cache_hits + c2->stats().perm_cache_hits, 0u);
}

TEST_F(RobustnessTest, ReaddirWhileMutating) {
  auto cluster = MakeCluster(std::make_shared<MemoryObjectStore>());
  auto fs = cluster->AddClient().value();
  ASSERT_TRUE(fs->Mkdir("/live", 0777, root_).ok());
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    int i = 0;
    while (!stop) {
      (void)fs->WriteFileAt("/live/m" + std::to_string(i % 50), AsBytes("x"),
                            root_);
      if (i % 3 == 2) (void)fs->Unlink("/live/m" + std::to_string((i - 2) % 50), root_);
      ++i;
    }
  });
  for (int i = 0; i < 50; ++i) {
    auto entries = fs->ReadDir("/live", root_);
    ASSERT_TRUE(entries.ok());
    // Every returned entry must be stat-able or racily deleted (ENOENT),
    // never a corrupt record.
    for (const auto& d : *entries) {
      auto st = fs->Stat("/live/" + d.name, root_);
      EXPECT_TRUE(st.ok() || st.code() == Errc::kNoEnt);
    }
  }
  stop = true;
  mutator.join();
}

}  // namespace
}  // namespace arkfs
