// Multi-client tests: forwarding to directory leaders, lease handoff,
// shared-file read/write leases, permission caching, and size commits that
// race writes from another thread of the same client.
#include <gtest/gtest.h>

#include <thread>

#include "core/cluster.h"
#include "hold_store.h"
#include "objstore/memory_store.h"
#include "prt/key_schema.h"

namespace arkfs {
namespace {

class MultiClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_shared<MemoryObjectStore>();
    cluster_ =
        ArkFsCluster::Create(store_, ArkFsClusterOptions::ForTests()).value();
    c1_ = cluster_->AddClient("c1").value();
    c2_ = cluster_->AddClient("c2").value();
  }

  ObjectStorePtr store_;
  std::unique_ptr<ArkFsCluster> cluster_;
  std::shared_ptr<Client> c1_, c2_;
  UserCred root_ = UserCred::Root();
};

TEST_F(MultiClientTest, SecondClientSeesFirstClientsFiles) {
  ASSERT_TRUE(c1_->WriteFileAt("/shared.txt", AsBytes("from-c1"), root_).ok());
  // c2 must see it immediately (the leader serves from its metatable even
  // though nothing is checkpointed yet).
  auto data = c2_->ReadWholeFile("/shared.txt", root_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "from-c1");
  EXPECT_GT(c2_->stats().forwarded_ops, 0u);
  EXPECT_GT(c1_->stats().served_remote_ops, 0u);
}

TEST_F(MultiClientTest, CreateForwardedToLeader) {
  // c1 becomes leader of root; c2's create is served by c1.
  ASSERT_TRUE(c1_->Mkdir("/by_c1", 0755, root_).ok());
  ASSERT_TRUE(c2_->WriteFileAt("/by_c2.txt", AsBytes("x"), root_).ok());
  EXPECT_TRUE(c1_->Stat("/by_c2.txt", root_).ok());
  auto entries = c1_->ReadDir("/", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(MultiClientTest, NonOverlappingDirectoriesNoForwarding) {
  // The paper's controlled environment: each client works in its own dir.
  ASSERT_TRUE(c1_->Mkdir("/dir1", 0755, root_).ok());
  ASSERT_TRUE(c2_->Mkdir("/dir2", 0755, root_).ok());
  const auto fwd1_before = c1_->stats().forwarded_ops;
  const auto fwd2_before = c2_->stats().forwarded_ops;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        c1_->WriteFileAt("/dir1/f" + std::to_string(i), AsBytes("1"), root_).ok());
    ASSERT_TRUE(
        c2_->WriteFileAt("/dir2/f" + std::to_string(i), AsBytes("2"), root_).ok());
  }
  // c1 leads /dir1 and c2 leads /dir2: per-file operations are local. Only
  // path resolution in / may forward (and the permission cache kills most
  // of that).
  const auto fwd1 = c1_->stats().forwarded_ops - fwd1_before;
  const auto fwd2 = c2_->stats().forwarded_ops - fwd2_before;
  EXPECT_LT(fwd1 + fwd2, 100u);
  EXPECT_GT(c1_->stats().local_meta_ops, 40u);
  EXPECT_GT(c2_->stats().local_meta_ops, 40u);
}

TEST_F(MultiClientTest, InTermRenewalExtendsTheLeaderLease) {
  // A leader working through the last quarter of its term renews once and
  // runs on the renewed term from then on; a peer's op forwarded after the
  // first term is served by that leader rather than bounced with EAGAIN.
  const Nanos term = cluster_->lease_manager().config().lease_period;
  ASSERT_TRUE(c1_->Mkdir("/hot", 0755, root_).ok());
  const TimePoint t0 = Now();
  ASSERT_TRUE(c1_->WriteFileAt("/hot/f", AsBytes("x"), root_).ok());
  const TimePoint granted = Now();  // c1's /hot term started in [t0, here]
  SleepFor(granted + term * 3 / 4 + Millis(5) - Now());

  // The last quarter of both c1 terms (/ and /hot): at most one renewal each.
  const auto acquires_before = c1_->stats().lease_acquires;
  int ops = 0;
  while (Now() < t0 + term - Millis(5)) {
    ASSERT_TRUE(c1_->Stat("/hot/f", root_).ok());
    ASSERT_TRUE(c1_->ReadDir("/", root_).ok());
    ++ops;
    SleepFor(Millis(2));
  }
  EXPECT_GT(ops, 0);
  EXPECT_LE(c1_->stats().lease_acquires - acquires_before, 2u);

  // Past the first term: c2's create is forwarded to c1, which still leads.
  SleepFor(granted + term + Millis(20) - Now());
  const auto served_before = c1_->stats().served_remote_ops;
  const auto c2_acquires_before = c2_->stats().lease_acquires;
  ASSERT_TRUE(c2_->WriteFileAt("/hot/g", AsBytes("y"), root_).ok());
  EXPECT_GT(c1_->stats().served_remote_ops, served_before);
  EXPECT_EQ(c2_->stats().lease_acquires, c2_acquires_before)
      << "c2 took /hot over instead of being served by its leader";
  EXPECT_EQ(c1_->stats().recoveries, 0u);
}

TEST_F(MultiClientTest, LeaseHandoffAfterExpiry) {
  ASSERT_TRUE(c1_->Mkdir("/handoff", 0755, root_).ok());
  ASSERT_TRUE(c1_->WriteFileAt("/handoff/f1", AsBytes("a"), root_).ok());
  // Wait out c1's lease so c2 can take leadership of /handoff.
  SleepFor(cluster_->lease_manager().config().lease_period + Millis(100));
  ASSERT_TRUE(c2_->WriteFileAt("/handoff/f2", AsBytes("b"), root_).ok());
  auto entries = c2_->ReadDir("/handoff", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);  // the handoff preserved f1
  EXPECT_EQ(ToString(*c2_->ReadWholeFile("/handoff/f1", root_)), "a");
}

TEST_F(MultiClientTest, ConcurrentCreatesInSameDirectory) {
  ASSERT_TRUE(c1_->Mkdir("/contended", 0755, root_).ok());
  auto worker = [&](const std::shared_ptr<Client>& c, int base) {
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(c->WriteFileAt(
                       "/contended/f" + std::to_string(base + i),
                       AsBytes("v"), root_)
                      .ok());
    }
  };
  std::thread t1(worker, c1_, 0);
  std::thread t2(worker, c2_, 1000);
  t1.join();
  t2.join();
  auto entries = c1_->ReadDir("/contended", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 50u);
}

TEST_F(MultiClientTest, ConcurrentCreatesInDistinctDirectories) {
  ASSERT_TRUE(c1_->Mkdir("/p1", 0755, root_).ok());
  ASSERT_TRUE(c2_->Mkdir("/p2", 0755, root_).ok());
  std::thread t1([&] {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          c1_->WriteFileAt("/p1/f" + std::to_string(i), AsBytes("1"), root_).ok());
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          c2_->WriteFileAt("/p2/f" + std::to_string(i), AsBytes("2"), root_).ok());
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(c1_->ReadDir("/p1", root_)->size(), 40u);
  EXPECT_EQ(c1_->ReadDir("/p2", root_)->size(), 40u);
}

TEST_F(MultiClientTest, WriterFlushMakesDataVisibleToSecondReader) {
  // c1 writes with a write lease (cached); c2 opening for read triggers the
  // leader's coordination so it never reads stale data.
  OpenOptions create;
  create.write = true;
  create.create = true;
  auto w = c1_->Open("/wfile", create, root_);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(c1_->Write(*w, 0, AsBytes("cached-write")).ok());
  ASSERT_TRUE(c1_->Fsync(*w).ok());

  auto data = c2_->ReadWholeFile("/wfile", root_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "cached-write");
  ASSERT_TRUE(c1_->Close(*w).ok());
}

TEST_F(MultiClientTest, ConcurrentWriterAndReaderForceDirectIo) {
  OpenOptions create;
  create.write = true;
  create.create = true;
  auto w = c1_->Open("/shared_rw", create, root_);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(c1_->Write(*w, 0, AsBytes("v1")).ok());  // upgrades to write lease

  // c2 opens for read while c1 holds the write lease: the leader broadcasts
  // a flush and everyone goes direct.
  OpenOptions read;
  auto r = c2_->Open("/shared_rw", read, root_);
  ASSERT_TRUE(r.ok());
  auto seen = c2_->Read(*r, 0, 10);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(ToString(*seen), "v1");  // flushed by the broadcast

  // Subsequent writes are direct and visible after size commit.
  ASSERT_TRUE(c1_->Write(*w, 2, AsBytes("+direct")).ok());
  ASSERT_TRUE(c1_->Fsync(*w).ok());
  auto grown = c2_->ReadWholeFile("/shared_rw", root_);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(ToString(*grown), "v1+direct");
  ASSERT_TRUE(c1_->Close(*w).ok());
  ASSERT_TRUE(c2_->Close(*r).ok());
}

TEST_F(MultiClientTest, PermissionChangeVisibleAfterPcacheTtl) {
  // pcache mode relaxes ACL visibility to the lease period (paper §III-C).
  UserCred alice{1000, 1000, {}};
  ASSERT_TRUE(c1_->Mkdir("/relaxed", 0755, root_).ok());
  ASSERT_TRUE(c2_->Stat("/relaxed", root_).ok());  // c2 caches perms
  ASSERT_TRUE(c1_->WriteFileAt("/relaxed/f", AsBytes("x"), root_).ok());
  ASSERT_TRUE(c2_->Stat("/relaxed/f", root_).ok());

  // Tighten the directory; c2 may still pass traversal checks from cache
  // until the TTL lapses, but must see the denial afterwards.
  ASSERT_TRUE(c1_->Chmod("/relaxed", 0700, root_).ok());
  SleepFor(c2_->config().perm_cache_ttl + Millis(50));
  EXPECT_EQ(c2_->Stat("/relaxed/f", alice).code(), Errc::kAccess);
}

TEST_F(MultiClientTest, ThirdClientJoinsLate) {
  ASSERT_TRUE(c1_->MkdirAll("/a/b", 0755, root_).ok());
  ASSERT_TRUE(c2_->WriteFileAt("/a/b/f", AsBytes("zzz"), root_).ok());
  auto c3 = cluster_->AddClient("c3").value();
  EXPECT_EQ(ToString(*c3->ReadWholeFile("/a/b/f", root_)), "zzz");
  ASSERT_TRUE(c3->Unlink("/a/b/f", root_).ok());
  EXPECT_EQ(c1_->Stat("/a/b/f", root_).code(), Errc::kNoEnt);
}

TEST_F(MultiClientTest, RemoteRenameWithinLeaderDirectory) {
  ASSERT_TRUE(c1_->Mkdir("/rn", 0755, root_).ok());
  ASSERT_TRUE(c1_->WriteFileAt("/rn/x", AsBytes("X"), root_).ok());
  // c2 renames within a directory led by c1 -> forwarded kRenameLocal.
  ASSERT_TRUE(c2_->Rename("/rn/x", "/rn/y", root_).ok());
  EXPECT_EQ(c1_->Stat("/rn/x", root_).code(), Errc::kNoEnt);
  EXPECT_EQ(ToString(*c1_->ReadWholeFile("/rn/y", root_)), "X");
}

// Fsync and SyncAll push an open file's buffered size to its parent's leader
// from a snapshot of the fd table. A Write landing while that commit is in
// flight must keep its own size pending, so Close still commits it. The
// hold parks the snapshotted file's size commit (sync durability: the
// journal append of its parent) while the racing write runs.
class SizeCommitRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hold_ = std::make_shared<HoldStore>(std::make_shared<MemoryObjectStore>());
    ArkFsClusterOptions options = ArkFsClusterOptions::ForTests();
    options.client_template.journal.durability =
        journal::DurabilityMode::kSync;
    cluster_ = ArkFsCluster::Create(hold_, options).value();
    client_ = cluster_->AddClient("c1").value();
    ASSERT_TRUE(client_->Mkdir("/a", 0755, root_).ok());
    ASSERT_TRUE(client_->Mkdir("/b", 0755, root_).ok());
  }

  Fd OpenForWrite(const std::string& path) {
    OpenOptions options;
    options.write = true;
    options.create = true;
    auto fd = client_->Open(path, options, root_);
    EXPECT_TRUE(fd.ok()) << path;
    return fd.value_or(-1);
  }

  void WriteAt(Fd fd, std::uint64_t offset, std::size_t n) {
    auto wrote = client_->Write(fd, offset, Bytes(n, 0x6b));
    ASSERT_TRUE(wrote.ok());
    ASSERT_EQ(*wrote, n);
  }

  // Holds the next journal append of `dir`.
  void HoldNextAppendTo(const std::string& dir) {
    auto st = client_->Stat(dir, root_);
    ASSERT_TRUE(st.ok());
    const std::string journal = JournalKey(st->ino);
    hold_->Arm([journal](std::string_view op, const std::string& key) {
      return op == "putrangeif" && key == journal;
    });
  }

  std::uint64_t SizeOf(const std::string& path) {
    auto st = client_->Stat(path, root_);
    EXPECT_TRUE(st.ok()) << path;
    return st.ok() ? st->size : 0;
  }

  std::shared_ptr<HoldStore> hold_;
  std::unique_ptr<ArkFsCluster> cluster_;
  std::shared_ptr<Client> client_;
  UserCred root_ = UserCred::Root();
};

TEST_F(SizeCommitRaceTest, SyncAllKeepsTheSizeOfAFileWrittenDuringIt) {
  const Fd a = OpenForWrite("/a/f");
  WriteAt(a, 0, 4096);
  HoldNextAppendTo("/a");
  Status synced;
  std::thread sync([&] { synced = client_->SyncAll(); });
  ASSERT_TRUE(hold_->AwaitHeld());
  // /a/f's size commit is in flight; another file is created and written.
  const Fd b = OpenForWrite("/b/g");
  WriteAt(b, 0, 5000);
  hold_->Release();
  sync.join();
  ASSERT_TRUE(synced.ok()) << synced.ToString();
  ASSERT_TRUE(client_->Close(b).ok());
  ASSERT_TRUE(client_->Close(a).ok());
  EXPECT_EQ(SizeOf("/b/g"), 5000u);
  EXPECT_EQ(SizeOf("/a/f"), 4096u);
}

TEST_F(SizeCommitRaceTest, FsyncKeepsTheSizeOfAWriteDuringIt) {
  const Fd a = OpenForWrite("/a/f");
  WriteAt(a, 0, 4096);
  HoldNextAppendTo("/a");
  Status synced;
  std::thread sync([&] { synced = client_->Fsync(a); });
  ASSERT_TRUE(hold_->AwaitHeld());
  // The snapshotted size (4096) is being committed; the same fd grows.
  WriteAt(a, 4096, 4096);
  hold_->Release();
  sync.join();
  ASSERT_TRUE(synced.ok()) << synced.ToString();
  ASSERT_TRUE(client_->Close(a).ok());
  EXPECT_EQ(SizeOf("/a/f"), 8192u);
}

}  // namespace
}  // namespace arkfs
