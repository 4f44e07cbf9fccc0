// Tests for the workload generators: minitar (USTAR), dataset, mdtest, fio.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "objstore/memory_store.h"
#include "workloads/dataset.h"
#include "workloads/fio_like.h"
#include "workloads/mdtest.h"
#include "workloads/minitar.h"

namespace arkfs::workloads {
namespace {

// --- USTAR codec ---

TEST(TarHeaderTest, RoundTrip) {
  TarEntry entry;
  entry.name = "dir/sub/file.dat";
  entry.mode = 0640;
  entry.uid = 1000;
  entry.gid = 2000;
  entry.size = 123456;
  entry.mtime = 1700000000;
  entry.typeflag = '0';

  Bytes block = EncodeTarHeader(entry);
  ASSERT_EQ(block.size(), kTarBlock);
  auto decoded = DecodeTarHeader(block);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, entry.name);
  EXPECT_EQ(decoded->mode, entry.mode);
  EXPECT_EQ(decoded->uid, entry.uid);
  EXPECT_EQ(decoded->gid, entry.gid);
  EXPECT_EQ(decoded->size, entry.size);
  EXPECT_EQ(decoded->mtime, entry.mtime);
  EXPECT_EQ(decoded->typeflag, '0');
}

TEST(TarHeaderTest, ChecksumDetectsCorruption) {
  TarEntry entry;
  entry.name = "x";
  entry.size = 1;
  Bytes block = EncodeTarHeader(entry);
  block[0] ^= 0xFF;
  EXPECT_FALSE(DecodeTarHeader(block).ok());
}

TEST(TarHeaderTest, NonUstarRejected) {
  Bytes block(kTarBlock, 0);
  EXPECT_FALSE(DecodeTarHeader(block).ok());
  EXPECT_TRUE(IsZeroBlock(block));
}

TEST(TarHeaderTest, LongNameUsesPrefixField) {
  // 172 chars: splits as prefix "aaa.../bbb..." (111 <= 155) + name (60).
  TarEntry entry;
  entry.name = std::string(80, 'a') + "/" + std::string(30, 'b') + "/" +
               std::string(60, 'c');
  entry.size = 0;
  auto decoded = DecodeTarHeader(EncodeTarHeader(entry));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, entry.name);
}

TEST(TarHeaderTest, UnsplittableLongNameTruncates) {
  // No '/' placement satisfies USTAR's prefix(155)/name(100) limits; the
  // writer truncates rather than corrupting the archive (documented).
  TarEntry entry;
  entry.name = std::string(80, 'a') + "/" + std::string(80, 'b') + "/" +
               std::string(40, 'c');
  entry.size = 0;
  auto decoded = DecodeTarHeader(EncodeTarHeader(entry));
  ASSERT_TRUE(decoded.ok());
  EXPECT_LE(decoded->name.size(), 100u);
}

TEST(TarHeaderTest, SymlinkEntry) {
  TarEntry entry;
  entry.name = "link";
  entry.typeflag = '2';
  entry.linkname = "/target/elsewhere";
  entry.size = 0;
  auto decoded = DecodeTarHeader(EncodeTarHeader(entry));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->typeflag, '2');
  EXPECT_EQ(decoded->linkname, "/target/elsewhere");
}

TEST(TarStreamTest, WriterReaderRoundTrip) {
  Bytes archive;
  TarWriter writer([&](ByteSpan b) {
    archive.insert(archive.end(), b.begin(), b.end());
    return Status::Ok();
  });
  ASSERT_TRUE(writer.AddDirectory("d").ok());
  TarEntry f1;
  f1.name = "d/one.txt";
  f1.size = 5;
  ASSERT_TRUE(writer.AddFile(f1, AsBytes("hello")).ok());
  TarEntry f2;
  f2.name = "d/empty";
  f2.size = 0;
  ASSERT_TRUE(writer.AddFile(f2, {}).ok());
  ASSERT_TRUE(writer.Finish().ok());
  // Everything is 512-aligned, trailer included.
  EXPECT_EQ(archive.size() % kTarBlock, 0u);

  TarReader reader(
      [&](std::uint64_t off, std::uint64_t len) -> Result<Bytes> {
        len = std::min<std::uint64_t>(len, archive.size() - off);
        return Bytes(archive.begin() + off, archive.begin() + off + len);
      },
      archive.size());
  auto e1 = reader.NextEntry();
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1->entry.name, "d/");
  EXPECT_EQ(e1->entry.typeflag, '5');
  auto e2 = reader.NextEntry();
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2->entry.name, "d/one.txt");
  auto content = reader.ReadContent(e2->entry, e2->content_offset);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(ToString(*content), "hello");
  auto e3 = reader.NextEntry();
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(e3->entry.size, 0u);
  auto done = reader.NextEntry();
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->done);
}

TEST(TarStreamTest, FinishTwiceRejected) {
  TarWriter writer([](ByteSpan) { return Status::Ok(); });
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_FALSE(writer.Finish().ok());
  TarEntry f;
  f.name = "late";
  f.size = 0;
  EXPECT_FALSE(writer.AddFile(f, {}).ok());
}

TEST(TarStreamTest, SizeMismatchRejected) {
  TarWriter writer([](ByteSpan) { return Status::Ok(); });
  TarEntry f;
  f.name = "f";
  f.size = 10;
  EXPECT_EQ(writer.AddFile(f, AsBytes("short")).code(), Errc::kInval);
}

TEST(TarStreamTest, TruncatedArchiveEndsCleanly) {
  Bytes archive;
  TarWriter writer([&](ByteSpan b) {
    archive.insert(archive.end(), b.begin(), b.end());
    return Status::Ok();
  });
  TarEntry f;
  f.name = "f";
  f.size = 100;
  ASSERT_TRUE(writer.AddFile(f, Bytes(100, 1)).ok());
  // No Finish() — simulate a torn archive missing the trailer.
  TarReader reader(
      [&](std::uint64_t off, std::uint64_t len) -> Result<Bytes> {
        len = std::min<std::uint64_t>(len, archive.size() - off);
        return Bytes(archive.begin() + off, archive.begin() + off + len);
      },
      archive.size());
  ASSERT_TRUE(reader.NextEntry().ok());
  auto end = reader.NextEntry();
  ASSERT_TRUE(end.ok());
  EXPECT_TRUE(end->done);
}

// --- end-to-end tar over ArkFS ---

class TarVfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_shared<MemoryObjectStore>();
    cluster_ =
        ArkFsCluster::Create(store_, ArkFsClusterOptions::ForTests()).value();
    fs_ = cluster_->AddClient().value();
  }
  ObjectStorePtr store_;
  std::unique_ptr<ArkFsCluster> cluster_;
  std::shared_ptr<Client> fs_;
  UserCred root_ = UserCred::Root();
};

TEST_F(TarVfsTest, DiskToVfsToDiskRoundTrip) {
  sim::SimDisk disk(sim::DiskConfig::Instant());
  auto dataset = GenerateDataset(DatasetSpec::Scaled(25, 4000));
  ASSERT_TRUE(LoadDatasetToDisk(dataset, disk).ok());
  std::vector<std::string> names;
  for (const auto& f : dataset) names.push_back(f.name);

  ASSERT_TRUE(ArchiveDiskToVfs(disk, names, *fs_, "/a.tar", root_).ok());
  ASSERT_TRUE(ExtractVfsArchive(*fs_, "/a.tar", "/out", root_).ok());
  for (const auto& f : dataset) {
    auto data = fs_->ReadWholeFile("/out/" + f.name, root_);
    ASSERT_TRUE(data.ok()) << f.name;
    EXPECT_TRUE(VerifyDatasetFile(f, *data)) << f.name;
  }
  // And back out to the disk.
  ASSERT_TRUE(ArchiveVfsToDisk(*fs_, "/out", disk, "back.tar", root_).ok());
  EXPECT_TRUE(disk.Exists("back.tar"));
  auto back = disk.ReadFile("back.tar");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size() % kTarBlock, 0u);
}

TEST_F(TarVfsTest, ExtractCreatesMissingParents) {
  sim::SimDisk disk(sim::DiskConfig::Instant());
  ASSERT_TRUE(disk.WriteFile("deep/nested/file.bin", AsBytes("data")).ok());
  ASSERT_TRUE(
      ArchiveDiskToVfs(disk, {"deep/nested/file.bin"}, *fs_, "/t.tar", root_)
          .ok());
  ASSERT_TRUE(ExtractVfsArchive(*fs_, "/t.tar", "/x", root_).ok());
  EXPECT_EQ(ToString(*fs_->ReadWholeFile("/x/deep/nested/file.bin", root_)),
            "data");
}

// --- dataset generator ---

TEST(DatasetTest, DeterministicFromSeed) {
  auto a = GenerateDataset(DatasetSpec::Scaled(50));
  auto b = GenerateDataset(DatasetSpec::Scaled(50));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].content_seed, b[i].content_seed);
  }
}

TEST(DatasetTest, SizesWithinBounds) {
  auto spec = DatasetSpec::Scaled(500, 10000);
  for (const auto& f : GenerateDataset(spec)) {
    EXPECT_GE(f.size, static_cast<std::uint64_t>(spec.min_bytes));
    EXPECT_LE(f.size, static_cast<std::uint64_t>(spec.max_bytes));
  }
}

TEST(DatasetTest, VerifyCatchesTampering) {
  auto files = GenerateDataset(DatasetSpec::Scaled(3));
  Bytes content = DatasetFileContent(files[0]);
  EXPECT_TRUE(VerifyDatasetFile(files[0], content));
  content[content.size() / 2] ^= 1;
  EXPECT_FALSE(VerifyDatasetFile(files[0], content));
  content.pop_back();
  EXPECT_FALSE(VerifyDatasetFile(files[0], content));
}

TEST(DatasetTest, PaperScaleDistribution) {
  // The unscaled spec approximates MS-COCO: mean around 170 KB for ~7 GB /
  // 41K files. Check the mean lands in the tens-to-hundreds-of-KB band.
  DatasetSpec spec;
  spec.num_files = 2000;
  auto files = GenerateDataset(spec);
  const double mean =
      static_cast<double>(TotalBytes(files)) / files.size();
  EXPECT_GT(mean, 80e3);
  EXPECT_LT(mean, 350e3);
}

// --- mdtest / fio over the real stack ---

VfsPtr SharedArkMount(std::unique_ptr<ArkFsCluster>& cluster,
                      std::shared_ptr<Client>& keep) {
  keep = cluster->AddClient().value();
  return keep;
}

TEST(MdtestRunnerTest, EasyPhasesAccountOps) {
  auto store = std::make_shared<MemoryObjectStore>();
  auto cluster =
      ArkFsCluster::Create(store, ArkFsClusterOptions::ForTests()).value();
  std::shared_ptr<Client> client;
  VfsPtr mount = SharedArkMount(cluster, client);

  MdtestConfig config;
  config.num_processes = 4;
  config.files_per_process = 20;
  auto results = RunMdtestEasy([&](int) { return mount; }, config);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  for (const auto& phase : *results) {
    EXPECT_EQ(phase.ops, 80u) << phase.phase;
    EXPECT_EQ(phase.errors, 0u) << phase.phase << ": " << phase.first_error;
    EXPECT_GT(phase.ops_per_second, 0.0) << phase.phase;
  }
  // DELETE removed everything.
  for (int p = 0; p < 4; ++p) {
    auto entries =
        client->ReadDir("/mdtest/proc" + std::to_string(p), UserCred::Root());
    ASSERT_TRUE(entries.ok());
    EXPECT_TRUE(entries->empty());
  }
}

TEST(MdtestRunnerTest, HardPhasesWriteAndReadBack) {
  auto store = std::make_shared<MemoryObjectStore>();
  auto cluster =
      ArkFsCluster::Create(store, ArkFsClusterOptions::ForTests()).value();
  std::shared_ptr<Client> client;
  VfsPtr mount = SharedArkMount(cluster, client);

  MdtestConfig config;
  config.num_processes = 4;
  config.files_per_process = 10;
  config.file_size = 3901;
  config.shared_dirs = 3;
  auto results = RunMdtestHard([&](int) { return mount; }, config);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 4u);
  for (const auto& phase : *results) {
    // On failure, name the first failing step and its status.
    EXPECT_EQ(phase.errors, 0u) << phase.phase << ": " << phase.first_error;
  }
}

TEST(FioRunnerTest, WriteThenReadBandwidths) {
  auto store = std::make_shared<MemoryObjectStore>();
  auto cluster =
      ArkFsCluster::Create(store, ArkFsClusterOptions::ForTests()).value();
  std::shared_ptr<Client> client;
  VfsPtr mount = SharedArkMount(cluster, client);

  FioConfig config;
  config.num_jobs = 3;
  config.file_size = 64 * 1024;
  config.request_size = 8 * 1024;
  config.warmup = false;
  config.drop_caches = [&] { (void)mount->DropCaches(); };
  auto result = RunFio([&](int) { return mount; }, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->errors, 0u);
  EXPECT_GT(result->write_bw_bps, 0.0);
  EXPECT_GT(result->read_bw_bps, 0.0);
  // Data integrity through the whole stack.
  auto st = client->Stat("/fio/job0.dat", UserCred::Root());
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, config.file_size);
}

}  // namespace
}  // namespace arkfs::workloads
