// Unit tests for src/meta: inode codec, ACL evaluation, metatable, paths.
#include <gtest/gtest.h>

#include "meta/acl.h"
#include "meta/dentry.h"
#include "meta/inode.h"
#include "meta/metatable.h"
#include "meta/path.h"

namespace arkfs {
namespace {

Inode FileInode(std::uint32_t mode, std::uint32_t uid, std::uint32_t gid) {
  Inode i = MakeInode(NewUuid(), FileType::kRegular, mode, uid, gid, kRootIno);
  return i;
}

TEST(InodeCodecTest, RoundTrip) {
  Inode i = FileInode(0640, 1000, 2000);
  i.size = 123456789;
  i.symlink_target = "";
  i.chunk_size = 1 << 20;
  i.version = 17;
  i.acl.Set({AclTag::kUserObj, 0, 7});
  i.acl.Set({AclTag::kUser, 1001, 5});
  i.acl.Set({AclTag::kGroupObj, 0, 5});
  i.acl.Set({AclTag::kMask, 0, 5});
  i.acl.Set({AclTag::kOther, 0, 0});

  auto decoded = Inode::Decode(i.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ino, i.ino);
  EXPECT_EQ(decoded->mode, i.mode);
  EXPECT_EQ(decoded->size, i.size);
  EXPECT_EQ(decoded->chunk_size, i.chunk_size);
  EXPECT_EQ(decoded->version, i.version);
  EXPECT_EQ(decoded->acl, i.acl);
  EXPECT_EQ(decoded->parent, kRootIno);
}

TEST(InodeCodecTest, SymlinkTargetSurvives) {
  Inode i = MakeInode(NewUuid(), FileType::kSymlink, 0777, 0, 0, kRootIno);
  i.symlink_target = "/some/where/else";
  auto decoded = Inode::Decode(i.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->IsSymlink());
  EXPECT_EQ(decoded->symlink_target, "/some/where/else");
}

TEST(InodeCodecTest, CorruptBufferRejected) {
  Inode i = FileInode(0644, 0, 0);
  Bytes data = i.Encode();
  data.resize(data.size() / 2);
  EXPECT_FALSE(Inode::Decode(data).ok());
  Bytes bad_version = i.Encode();
  bad_version[0] = 99;
  EXPECT_FALSE(Inode::Decode(bad_version).ok());
}

// --- classic mode-bit permission checks ---

TEST(PermTest, OwnerUsesOwnerBits) {
  Inode i = FileInode(0640, 1000, 2000);
  UserCred owner{1000, 999, {}};
  EXPECT_TRUE(CheckAccess(i, owner, kPermRead).ok());
  EXPECT_TRUE(CheckAccess(i, owner, kPermWrite).ok());
  EXPECT_FALSE(CheckAccess(i, owner, kPermExec).ok());
}

TEST(PermTest, GroupUsesGroupBits) {
  Inode i = FileInode(0640, 1000, 2000);
  UserCred member{1001, 2000, {}};
  EXPECT_TRUE(CheckAccess(i, member, kPermRead).ok());
  EXPECT_FALSE(CheckAccess(i, member, kPermWrite).ok());
  UserCred supplementary{1001, 3000, {2000}};
  EXPECT_TRUE(CheckAccess(i, supplementary, kPermRead).ok());
}

TEST(PermTest, OtherUsesOtherBits) {
  Inode i = FileInode(0604, 1000, 2000);
  UserCred other{1001, 3000, {}};
  EXPECT_TRUE(CheckAccess(i, other, kPermRead).ok());
  EXPECT_FALSE(CheckAccess(i, other, kPermWrite).ok());
}

TEST(PermTest, OwnerBitsShadowGroupAndOther) {
  // Classic POSIX subtlety: the owner is matched first even if owner bits
  // grant *less* than group/other bits.
  Inode i = FileInode(0066, 1000, 2000);
  UserCred owner{1000, 2000, {}};
  EXPECT_FALSE(CheckAccess(i, owner, kPermRead).ok());
}

TEST(PermTest, RootBypassesReadWrite) {
  Inode i = FileInode(0000, 1000, 2000);
  EXPECT_TRUE(CheckAccess(i, UserCred::Root(), kPermRead).ok());
  EXPECT_TRUE(CheckAccess(i, UserCred::Root(), kPermWrite).ok());
  // Exec needs at least one exec bit even for root.
  EXPECT_FALSE(CheckAccess(i, UserCred::Root(), kPermExec).ok());
  i.mode = 0100;
  EXPECT_TRUE(CheckAccess(i, UserCred::Root(), kPermExec).ok());
}

// --- POSIX.1e ACL evaluation ---

Acl MakeBaseAcl() {
  Acl acl;
  acl.Set({AclTag::kUserObj, 0, 7});
  acl.Set({AclTag::kGroupObj, 0, 5});
  acl.Set({AclTag::kMask, 0, 7});
  acl.Set({AclTag::kOther, 0, 0});
  return acl;
}

TEST(AclTest, NamedUserEntryGrants) {
  Inode i = FileInode(0600, 1000, 2000);
  i.acl = MakeBaseAcl();
  i.acl.Set({AclTag::kUser, 1005, kPermRead | kPermWrite});
  UserCred named{1005, 9999, {}};
  EXPECT_TRUE(CheckAccess(i, named, kPermRead).ok());
  EXPECT_TRUE(CheckAccess(i, named, kPermWrite).ok());
  EXPECT_FALSE(CheckAccess(i, named, kPermExec).ok());
  UserCred stranger{1006, 9999, {}};
  EXPECT_FALSE(CheckAccess(i, stranger, kPermRead).ok());
}

TEST(AclTest, MaskCapsNamedEntries) {
  Inode i = FileInode(0600, 1000, 2000);
  i.acl = MakeBaseAcl();
  i.acl.Set({AclTag::kMask, 0, kPermRead});  // mask caps to read-only
  i.acl.Set({AclTag::kUser, 1005, kPermRead | kPermWrite});
  UserCred named{1005, 9999, {}};
  EXPECT_TRUE(CheckAccess(i, named, kPermRead).ok());
  EXPECT_FALSE(CheckAccess(i, named, kPermWrite).ok());
}

TEST(AclTest, NamedGroupEntryGrants) {
  Inode i = FileInode(0600, 1000, 2000);
  i.acl = MakeBaseAcl();
  i.acl.Set({AclTag::kGroup, 4242, kPermRead});
  UserCred member{1007, 1, {4242}};
  EXPECT_TRUE(CheckAccess(i, member, kPermRead).ok());
  EXPECT_FALSE(CheckAccess(i, member, kPermWrite).ok());
}

TEST(AclTest, GroupClassDenyDoesNotFallThroughToOther) {
  Inode i = FileInode(0600, 1000, 2000);
  i.acl = MakeBaseAcl();
  i.acl.Set({AclTag::kOther, 0, 7});         // other would grant everything
  i.acl.Set({AclTag::kGroup, 4242, kPermRead});
  UserCred member{1007, 1, {4242}};
  // Member matched the named group; write must NOT fall through to other.
  EXPECT_FALSE(CheckAccess(i, member, kPermWrite).ok());
}

TEST(AclTest, ValidationRules) {
  Acl incomplete;
  incomplete.Set({AclTag::kUserObj, 0, 7});
  EXPECT_FALSE(incomplete.Validate().ok());

  Acl named_without_mask = MakeBaseAcl();
  named_without_mask.Remove(AclTag::kMask, 0);
  named_without_mask.Set({AclTag::kUser, 5, 7});
  EXPECT_FALSE(named_without_mask.Validate().ok());

  EXPECT_TRUE(MakeBaseAcl().Validate().ok());
  EXPECT_TRUE(Acl{}.Validate().ok());  // empty = classic mode bits
}

TEST(AclTest, CodecRoundTrip) {
  Acl acl = MakeBaseAcl();
  acl.Set({AclTag::kUser, 77, 5});
  Encoder enc;
  acl.EncodeTo(enc);
  Decoder dec(enc.buffer());
  auto decoded = Acl::DecodeFrom(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, acl);
}

// --- dentry shard objects and manifests ---

TEST(DentryTest, ShardObjectRoundTripCarriesEpoch) {
  std::vector<Dentry> entries;
  for (int i = 0; i < 50; ++i) {
    entries.push_back({"e" + std::to_string(i), NewUuid(), FileType::kRegular});
  }
  auto decoded = DecodeDentryShardObject(EncodeDentryShardObject(7, entries));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->epoch, 7u);
  ASSERT_EQ(decoded->entries.size(), entries.size());
  EXPECT_EQ(decoded->entries[13], entries[13]);

  auto empty = DecodeDentryShardObject(EncodeDentryShardObject(1, {}));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->epoch, 1u);
  EXPECT_TRUE(empty->entries.empty());
}

TEST(DentryTest, ShardObjectRejectsTornPrefix) {
  // A torn whole-object put persists a strict prefix of the payload. The
  // trailing CRC must make EVERY proper prefix undecodable — a prefix that
  // decoded as a shorter-but-valid shard would silently drop entries.
  std::vector<Dentry> entries;
  for (int i = 0; i < 10; ++i) {
    entries.push_back({"t" + std::to_string(i), NewUuid(), FileType::kRegular});
  }
  const Bytes full = EncodeDentryShardObject(3, entries);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Bytes torn(full.begin(), full.begin() + cut);
    EXPECT_FALSE(DecodeDentryShardObject(torn).ok()) << "cut=" << cut;
  }
  // Flipped payload byte fails the CRC too.
  Bytes corrupt = full;
  corrupt[6] ^= 0x40;
  EXPECT_FALSE(DecodeDentryShardObject(corrupt).ok());
}

TEST(DentryTest, NameValidation) {
  EXPECT_TRUE(ValidateName("ok-name.txt").ok());
  EXPECT_FALSE(ValidateName("").ok());
  EXPECT_FALSE(ValidateName(".").ok());
  EXPECT_FALSE(ValidateName("..").ok());
  EXPECT_FALSE(ValidateName("a/b").ok());
  EXPECT_FALSE(ValidateName(std::string("a\0b", 3)).ok());
  EXPECT_FALSE(ValidateName(std::string(300, 'x')).ok());
  EXPECT_TRUE(ValidateName(std::string(255, 'x')).ok());
}

// --- metatable ---

TEST(MetatableTest, InsertLookupErase) {
  Metatable mt(MakeInode(kRootIno, FileType::kDirectory, 0755, 0, 0, Uuid{}));
  Inode child = FileInode(0644, 1, 1);
  ASSERT_TRUE(mt.Insert({"a.txt", child.ino, FileType::kRegular}, child).ok());
  EXPECT_EQ(mt.entry_count(), 1u);
  EXPECT_TRUE(mt.Contains("a.txt"));

  auto found = mt.Lookup("a.txt");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->ino, child.ino);
  ASSERT_NE(mt.FindChildInode(child.ino), nullptr);
  EXPECT_EQ(mt.FindChildInode(child.ino)->mode, 0644u);

  EXPECT_EQ(mt.Insert({"a.txt", NewUuid(), FileType::kRegular}, std::nullopt)
                .code(),
            Errc::kExist);
  ASSERT_TRUE(mt.Erase("a.txt").ok());
  EXPECT_EQ(mt.Lookup("a.txt").code(), Errc::kNoEnt);
  EXPECT_EQ(mt.FindChildInode(child.ino), nullptr);
  EXPECT_EQ(mt.Erase("a.txt").code(), Errc::kNoEnt);
}

TEST(MetatableTest, ListIsSorted) {
  Metatable mt(MakeInode(kRootIno, FileType::kDirectory, 0755, 0, 0, Uuid{}));
  for (const char* name : {"zeta", "alpha", "mid"}) {
    ASSERT_TRUE(
        mt.Insert({name, NewUuid(), FileType::kRegular}, std::nullopt).ok());
  }
  auto entries = mt.ListEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "alpha");
  EXPECT_EQ(entries[1].name, "mid");
  EXPECT_EQ(entries[2].name, "zeta");
}

// --- path helpers ---

TEST(PathTest, SplitBasics) {
  auto comps = SplitPath("/a/b/c");
  ASSERT_TRUE(comps.ok());
  EXPECT_EQ(*comps, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitPath("/")->empty());
  EXPECT_EQ(SplitPath("//a///b/")->size(), 2u);
}

TEST(PathTest, RejectsBadPaths) {
  EXPECT_FALSE(SplitPath("relative/path").ok());
  EXPECT_FALSE(SplitPath("").ok());
  EXPECT_FALSE(SplitPath("/a/../b").ok());
  EXPECT_FALSE(SplitPath("/a/./b").ok());
}

TEST(PathTest, JoinInvertsSplit) {
  EXPECT_EQ(JoinPath({"a", "b"}), "/a/b");
  EXPECT_EQ(JoinPath({}), "/");
}

TEST(PathTest, SplitParent) {
  auto sp = SplitParentOf("/a/b/c.txt");
  ASSERT_TRUE(sp.ok());
  EXPECT_EQ(sp->parent, "/a/b");
  EXPECT_EQ(sp->name, "c.txt");
  auto top = SplitParentOf("/top");
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->parent, "/");
  EXPECT_FALSE(SplitParentOf("/").ok());
}

}  // namespace
}  // namespace arkfs
