// End-to-end single-client tests of the ArkFS file system.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "objstore/memory_store.h"

namespace arkfs {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_shared<MemoryObjectStore>();
    cluster_ =
        ArkFsCluster::Create(store_, ArkFsClusterOptions::ForTests()).value();
    client_ = cluster_->AddClient().value();
  }

  Bytes Pattern(std::size_t n, int seed = 0) {
    Bytes b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = static_cast<std::uint8_t>((i * 13 + seed) & 0xFF);
    }
    return b;
  }

  ObjectStorePtr store_;
  std::unique_ptr<ArkFsCluster> cluster_;
  std::shared_ptr<Client> client_;
  UserCred root_ = UserCred::Root();
  UserCred alice_{1000, 1000, {}};
  UserCred bob_{1001, 1001, {}};
};

TEST_F(ClientTest, FormatIsRequiredAndIdempotentlyGuarded) {
  auto fresh = std::make_shared<MemoryObjectStore>();
  EXPECT_TRUE(Client::Format(fresh).ok());
  EXPECT_EQ(Client::Format(fresh).code(), Errc::kExist);
  EXPECT_TRUE(Client::Format(fresh, /*force=*/true).ok());
}

// The mount check: ArkFsCluster::Create (the one mount path) accepts only
// an image stamped with this build's format version.
TEST(FormatGateTest, MountRefusesUnstampedTornAndForeignImages) {
  ArkFsClusterOptions mount = ArkFsClusterOptions::ForTests();
  mount.format_store = false;
  auto refused = [&](const ObjectStorePtr& store) {
    auto cluster = ArkFsCluster::Create(store, mount);
    EXPECT_EQ(cluster.status().code(), Errc::kInval);
    return cluster.ok() ? std::string() : cluster.status().detail();
  };
  auto store = std::make_shared<MemoryObjectStore>();
  ASSERT_TRUE(Client::Format(store).ok());
  ASSERT_TRUE(ArkFsCluster::Create(store, mount).ok());

  const Bytes stamp = EncodeFormatStamp(kFormatVersion);
  ASSERT_TRUE(store->Delete(kFormatKey).ok());
  EXPECT_NE(refused(store).find("no format stamp"), std::string::npos);
  ASSERT_TRUE(store->Put(kFormatKey, ByteSpan(stamp).first(5)).ok());
  EXPECT_NE(refused(store).find("unreadable"), std::string::npos);
  ASSERT_TRUE(store->Put(kFormatKey, EncodeFormatStamp(2)).ok());
  EXPECT_NE(refused(store).find("format v2 unsupported; reformat"),
            std::string::npos);

  // Formatting an existing image is refused, and leaves the stamp alone;
  // force restamps it.
  EXPECT_EQ(Client::Format(store).code(), Errc::kExist);
  EXPECT_EQ(Client::CheckFormat(*store).code(), Errc::kInval);
  ASSERT_TRUE(Client::Format(store, /*force=*/true).ok());
  EXPECT_TRUE(ArkFsCluster::Create(store, mount).ok());
}

TEST_F(ClientTest, RootStat) {
  auto st = client_->Stat("/", root_);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->ino, kRootIno);
  EXPECT_EQ(st->type, FileType::kDirectory);
  EXPECT_EQ(st->mode, 0755u);
}

TEST_F(ClientTest, CreateWriteReadRoundTrip) {
  OpenOptions create;
  create.write = true;
  create.create = true;
  auto fd = client_->Open("/hello.txt", create, root_);
  ASSERT_TRUE(fd.ok());
  Bytes data = Pattern(10000);
  auto written = client_->Write(*fd, 0, data);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(*written, data.size());
  ASSERT_TRUE(client_->Fsync(*fd).ok());
  ASSERT_TRUE(client_->Close(*fd).ok());

  auto st = client_->Stat("/hello.txt", root_);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, data.size());

  auto back = client_->ReadWholeFile("/hello.txt", root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(ClientTest, OpenMissingFileFails) {
  OpenOptions read;
  EXPECT_EQ(client_->Open("/nope", read, root_).code(), Errc::kNoEnt);
  EXPECT_EQ(client_->Stat("/nope", root_).code(), Errc::kNoEnt);
}

TEST_F(ClientTest, ExclusiveCreateConflict) {
  OpenOptions create;
  create.write = true;
  create.create = true;
  create.exclusive = true;
  ASSERT_TRUE(client_->Open("/x", create, root_).ok());
  EXPECT_EQ(client_->Open("/x", create, root_).code(), Errc::kExist);
  // Non-exclusive create opens the existing file.
  create.exclusive = false;
  EXPECT_TRUE(client_->Open("/x", create, root_).ok());
}

TEST_F(ClientTest, MkdirHierarchyAndReaddir) {
  ASSERT_TRUE(client_->Mkdir("/a", 0755, root_).ok());
  ASSERT_TRUE(client_->Mkdir("/a/b", 0755, root_).ok());
  ASSERT_TRUE(client_->WriteFileAt("/a/b/f.txt", AsBytes("content"), root_).ok());

  auto entries = client_->ReadDir("/a/b", root_);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "f.txt");

  auto root_entries = client_->ReadDir("/", root_);
  ASSERT_TRUE(root_entries.ok());
  EXPECT_EQ(root_entries->size(), 1u);

  EXPECT_EQ(client_->Mkdir("/a", 0755, root_).code(), Errc::kExist);
  EXPECT_EQ(client_->Mkdir("/missing/sub", 0755, root_).code(), Errc::kNoEnt);
}

TEST_F(ClientTest, MkdirAllCreatesChain) {
  ASSERT_TRUE(client_->MkdirAll("/deep/nested/dirs", 0755, root_).ok());
  auto st = client_->Stat("/deep/nested/dirs", root_);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->type, FileType::kDirectory);
}

TEST_F(ClientTest, UnlinkRemovesFileAndData) {
  Bytes data = Pattern(5000);
  ASSERT_TRUE(client_->WriteFileAt("/victim", data, root_).ok());
  ASSERT_TRUE(client_->Unlink("/victim", root_).ok());
  EXPECT_EQ(client_->Stat("/victim", root_).code(), Errc::kNoEnt);
  EXPECT_EQ(client_->Unlink("/victim", root_).code(), Errc::kNoEnt);
  // Unlink of a directory is rejected.
  ASSERT_TRUE(client_->Mkdir("/d", 0755, root_).ok());
  EXPECT_EQ(client_->Unlink("/d", root_).code(), Errc::kIsDir);
}

TEST_F(ClientTest, RmdirSemantics) {
  ASSERT_TRUE(client_->Mkdir("/dir", 0755, root_).ok());
  ASSERT_TRUE(client_->WriteFileAt("/dir/f", AsBytes("x"), root_).ok());
  EXPECT_EQ(client_->Rmdir("/dir", root_).code(), Errc::kNotEmpty);
  ASSERT_TRUE(client_->Unlink("/dir/f", root_).ok());
  EXPECT_TRUE(client_->Rmdir("/dir", root_).ok());
  EXPECT_EQ(client_->Stat("/dir", root_).code(), Errc::kNoEnt);
  // Rmdir of a file is ENOTDIR.
  ASSERT_TRUE(client_->WriteFileAt("/file", AsBytes("x"), root_).ok());
  EXPECT_EQ(client_->Rmdir("/file", root_).code(), Errc::kNotDir);
}

TEST_F(ClientTest, SameDirectoryRename) {
  ASSERT_TRUE(client_->WriteFileAt("/old", AsBytes("payload"), root_).ok());
  ASSERT_TRUE(client_->Rename("/old", "/new", root_).ok());
  EXPECT_EQ(client_->Stat("/old", root_).code(), Errc::kNoEnt);
  auto back = client_->ReadWholeFile("/new", root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(ToString(*back), "payload");
}

TEST_F(ClientTest, SameDirectoryRenameReplacesTarget) {
  ASSERT_TRUE(client_->WriteFileAt("/src", AsBytes("SRC"), root_).ok());
  ASSERT_TRUE(client_->WriteFileAt("/dst", AsBytes("DST"), root_).ok());
  ASSERT_TRUE(client_->Rename("/src", "/dst", root_).ok());
  EXPECT_EQ(client_->Stat("/src", root_).code(), Errc::kNoEnt);
  EXPECT_EQ(ToString(*client_->ReadWholeFile("/dst", root_)), "SRC");
}

TEST_F(ClientTest, CrossDirectoryRename) {
  ASSERT_TRUE(client_->Mkdir("/from", 0755, root_).ok());
  ASSERT_TRUE(client_->Mkdir("/to", 0755, root_).ok());
  Bytes data = Pattern(3000, 9);
  ASSERT_TRUE(client_->WriteFileAt("/from/file", data, root_).ok());

  ASSERT_TRUE(client_->Rename("/from/file", "/to/moved", root_).ok());
  EXPECT_EQ(client_->Stat("/from/file", root_).code(), Errc::kNoEnt);
  auto st = client_->Stat("/to/moved", root_);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, data.size());
  EXPECT_EQ(*client_->ReadWholeFile("/to/moved", root_), data);
  // Directory listings reflect the move.
  EXPECT_TRUE(client_->ReadDir("/from", root_)->empty());
  EXPECT_EQ(client_->ReadDir("/to", root_)->size(), 1u);
}

TEST_F(ClientTest, CrossDirectoryRenameOfDirectory) {
  ASSERT_TRUE(client_->MkdirAll("/p1/sub", 0755, root_).ok());
  ASSERT_TRUE(client_->Mkdir("/p2", 0755, root_).ok());
  ASSERT_TRUE(client_->WriteFileAt("/p1/sub/f", AsBytes("deep"), root_).ok());
  ASSERT_TRUE(client_->Rename("/p1/sub", "/p2/moved_sub", root_).ok());
  EXPECT_EQ(ToString(*client_->ReadWholeFile("/p2/moved_sub/f", root_)),
            "deep");
  EXPECT_EQ(client_->Stat("/p1/sub", root_).code(), Errc::kNoEnt);
}

TEST_F(ClientTest, SetAttrChmodChownTruncate) {
  ASSERT_TRUE(client_->WriteFileAt("/f", Pattern(1000), root_).ok());
  ASSERT_TRUE(client_->Chmod("/f", 0600, root_).ok());
  EXPECT_EQ(client_->Stat("/f", root_)->mode, 0600u);
  ASSERT_TRUE(client_->Chown("/f", 1000, 1000, root_).ok());
  EXPECT_EQ(client_->Stat("/f", root_)->uid, 1000u);

  ASSERT_TRUE(client_->Truncate("/f", 100, root_).ok());
  EXPECT_EQ(client_->Stat("/f", root_)->size, 100u);
  auto data = client_->ReadWholeFile("/f", root_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 100u);
  EXPECT_EQ(*data, Pattern(100));
}

TEST_F(ClientTest, ChmodOnDirectory) {
  ASSERT_TRUE(client_->Mkdir("/d", 0755, root_).ok());
  ASSERT_TRUE(client_->Chmod("/d", 0700, root_).ok());
  EXPECT_EQ(client_->Stat("/d", root_)->mode, 0700u);
}

TEST_F(ClientTest, PermissionEnforcement) {
  ASSERT_TRUE(client_->Mkdir("/secure", 0700, root_).ok());
  ASSERT_TRUE(client_->Chown("/secure", 1000, 1000, root_).ok());
  ASSERT_TRUE(
      client_->WriteFileAt("/secure/data", AsBytes("secret"), alice_).ok());

  // bob cannot traverse /secure (no exec) nor create inside it.
  EXPECT_EQ(client_->Stat("/secure/data", bob_).code(), Errc::kAccess);
  EXPECT_EQ(client_->WriteFileAt("/secure/other", AsBytes("x"), bob_).code(),
            Errc::kAccess);
  // bob cannot read a 0600 file even in an open directory.
  ASSERT_TRUE(client_->Chmod("/", 0777, root_).ok());
  ASSERT_TRUE(client_->WriteFileAt("/shared", AsBytes("mine"), alice_).ok());
  ASSERT_TRUE(client_->Chmod("/shared", 0600, alice_).ok());
  OpenOptions read;
  EXPECT_EQ(client_->Open("/shared", read, bob_).code(), Errc::kAccess);
  // Only the owner (or root) may chmod.
  EXPECT_EQ(client_->Chmod("/shared", 0666, bob_).code(), Errc::kPerm);
}

TEST_F(ClientTest, AclGrantsAccessBeyondModeBits) {
  ASSERT_TRUE(client_->Chmod("/", 0777, root_).ok());
  ASSERT_TRUE(client_->WriteFileAt("/acl_file", AsBytes("data"), alice_).ok());
  ASSERT_TRUE(client_->Chmod("/acl_file", 0600, alice_).ok());
  OpenOptions read;
  EXPECT_EQ(client_->Open("/acl_file", read, bob_).code(), Errc::kAccess);

  Acl acl;
  acl.Set({AclTag::kUserObj, 0, 7});
  acl.Set({AclTag::kGroupObj, 0, 0});
  acl.Set({AclTag::kMask, 0, 7});
  acl.Set({AclTag::kOther, 0, 0});
  acl.Set({AclTag::kUser, bob_.uid, kPermRead});
  ASSERT_TRUE(client_->SetAcl("/acl_file", acl, alice_).ok());

  auto got = client_->GetAcl("/acl_file", alice_);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, acl);
  EXPECT_TRUE(client_->Open("/acl_file", read, bob_).ok());
}

TEST_F(ClientTest, SymlinkAndReadlink) {
  ASSERT_TRUE(client_->WriteFileAt("/target", AsBytes("pointed-at"), root_).ok());
  ASSERT_TRUE(client_->Symlink("/target", "/link", root_).ok());
  auto target = client_->ReadLink("/link", root_);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*target, "/target");
  // Open follows the final symlink.
  OpenOptions read;
  auto fd = client_->Open("/link", read, root_);
  ASSERT_TRUE(fd.ok());
  auto data = client_->Read(*fd, 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "pointed-at");
  ASSERT_TRUE(client_->Close(*fd).ok());
}

TEST_F(ClientTest, SymlinkedDirectoryInPath) {
  ASSERT_TRUE(client_->MkdirAll("/real/dir", 0755, root_).ok());
  ASSERT_TRUE(client_->WriteFileAt("/real/dir/f", AsBytes("via-link"), root_).ok());
  ASSERT_TRUE(client_->Symlink("/real/dir", "/shortcut", root_).ok());
  auto data = client_->ReadWholeFile("/shortcut/f", root_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "via-link");
}

TEST_F(ClientTest, SymlinkLoopDetected) {
  ASSERT_TRUE(client_->Symlink("/loop_b", "/loop_a", root_).ok());
  ASSERT_TRUE(client_->Symlink("/loop_a", "/loop_b", root_).ok());
  EXPECT_EQ(client_->Stat("/loop_a/x", root_).code(), Errc::kLoop);
}

TEST_F(ClientTest, AppendMode) {
  OpenOptions append;
  append.write = true;
  append.create = true;
  append.append = true;
  auto fd = client_->Open("/log", append, root_);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client_->Write(*fd, 0, AsBytes("one")).ok());
  ASSERT_TRUE(client_->Write(*fd, 0, AsBytes("two")).ok());
  ASSERT_TRUE(client_->Close(*fd).ok());
  EXPECT_EQ(ToString(*client_->ReadWholeFile("/log", root_)), "onetwo");
}

TEST_F(ClientTest, TruncateOnOpen) {
  ASSERT_TRUE(client_->WriteFileAt("/t", Pattern(1000), root_).ok());
  OpenOptions trunc;
  trunc.write = true;
  trunc.truncate = true;
  auto fd = client_->Open("/t", trunc, root_);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client_->Close(*fd).ok());
  EXPECT_EQ(client_->Stat("/t", root_)->size, 0u);
}

TEST_F(ClientTest, LargeFileSpansManyChunks) {
  // Test-config cache has 4 KiB entries; the store chunks at 4 MiB. Write
  // enough to exercise multi-chunk paths end to end.
  Bytes data = Pattern(300000, 4);
  ASSERT_TRUE(client_->WriteFileAt("/big", data, root_).ok());
  auto back = client_->ReadWholeFile("/big", root_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST_F(ClientTest, RandomOffsetReadsAfterSequentialWrite) {
  Bytes data = Pattern(50000, 5);
  ASSERT_TRUE(client_->WriteFileAt("/r", data, root_).ok());
  OpenOptions read;
  auto fd = client_->Open("/r", read, root_);
  ASSERT_TRUE(fd.ok());
  for (std::uint64_t off : {49999u, 0u, 31111u, 4096u, 12345u}) {
    auto got = client_->Read(*fd, off, 17);
    ASSERT_TRUE(got.ok());
    const std::size_t expect_len = std::min<std::size_t>(17, 50000 - off);
    ASSERT_EQ(got->size(), expect_len);
    EXPECT_TRUE(std::equal(got->begin(), got->end(), data.begin() + off));
  }
  ASSERT_TRUE(client_->Close(*fd).ok());
}

TEST_F(ClientTest, MetadataSurvivesClientRestart) {
  ASSERT_TRUE(client_->MkdirAll("/persist/dir", 0750, root_).ok());
  ASSERT_TRUE(client_->WriteFileAt("/persist/dir/f", Pattern(777), root_).ok());
  ASSERT_TRUE(client_->Shutdown().ok());

  auto reborn = cluster_->AddClient("client-reborn").value();
  auto st = reborn->Stat("/persist/dir/f", root_);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 777u);
  EXPECT_EQ(*reborn->ReadWholeFile("/persist/dir/f", root_), Pattern(777));
  EXPECT_EQ(reborn->Stat("/persist/dir", root_)->mode, 0750u);
}

TEST_F(ClientTest, ManyFilesInOneDirectory) {
  ASSERT_TRUE(client_->Mkdir("/many", 0755, root_).ok());
  const int kFiles = 200;
  OpenOptions create;
  create.write = true;
  create.create = true;
  for (int i = 0; i < kFiles; ++i) {
    auto fd = client_->Open("/many/f" + std::to_string(i), create, root_);
    ASSERT_TRUE(fd.ok()) << i;
    ASSERT_TRUE(client_->Close(*fd).ok());
  }
  EXPECT_EQ(client_->ReadDir("/many", root_)->size(),
            static_cast<std::size_t>(kFiles));
  for (int i = 0; i < kFiles; i += 17) {
    EXPECT_TRUE(client_->Stat("/many/f" + std::to_string(i), root_).ok());
  }
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(client_->Unlink("/many/f" + std::to_string(i), root_).ok());
  }
  EXPECT_TRUE(client_->ReadDir("/many", root_)->empty());
}

TEST_F(ClientTest, Utimens) {
  ASSERT_TRUE(client_->WriteFileAt("/t", AsBytes("x"), root_).ok());
  SetAttrRequest req;
  req.mask = kSetAtime | kSetMtime;
  req.atime_sec = 1111111111;
  req.mtime_sec = 2222222222;
  ASSERT_TRUE(client_->SetAttr("/t", req, root_).ok());
  auto st = client_->Stat("/t", root_);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->atime_sec, 1111111111);
  EXPECT_EQ(st->mtime_sec, 2222222222);
}

TEST_F(ClientTest, LeaseExtensionReusesMetatable) {
  // Paper §III-B: a leader that re-acquires its lease before anyone else
  // led the directory keeps its metatable — no reload from the store.
  ASSERT_TRUE(client_->Mkdir("/mine", 0755, root_).ok());
  ASSERT_TRUE(client_->WriteFileAt("/mine/f", AsBytes("x"), root_).ok());
  const auto acquires_before = client_->stats().lease_acquires;
  // Work across several lease periods (test config: 200 ms leases, renewal
  // at 25% remaining) — each op revalidates and extends as needed.
  for (int round = 0; round < 3; ++round) {
    SleepFor(Millis(120));
    ASSERT_TRUE(client_->Stat("/mine/f", root_).ok());
  }
  // Leases were re-acquired (extension), yet no recovery or rebuild ran:
  EXPECT_GT(client_->stats().lease_acquires, acquires_before);
  EXPECT_EQ(client_->stats().recoveries, 0u);
}

TEST_F(ClientTest, LocalOpsDominateForOwnDirectory) {
  ASSERT_TRUE(client_->Mkdir("/mine", 0755, root_).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(client_
                    ->WriteFileAt("/mine/f" + std::to_string(i),
                                  AsBytes("x"), root_)
                    .ok());
  }
  auto stats = client_->stats();
  // Single client: everything is a local metadata op; nothing forwarded.
  EXPECT_GT(stats.local_meta_ops, 0u);
  EXPECT_EQ(stats.forwarded_ops, 0u);
}

}  // namespace
}  // namespace arkfs
