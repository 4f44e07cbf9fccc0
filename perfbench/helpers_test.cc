// Unit tests of the benchmark's own helpers (ledger.h, probes.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "ledger.h"
#include "probes.h"
#include "workloads.h"
#include "prt/key_schema.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankAtSampleCounts) {
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.5), 7);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  EXPECT_EQ(Percentile({1, 2}, 0.5), 1);
  EXPECT_EQ(Percentile({1, 2, 3}, 0.5), 2);
  EXPECT_EQ(Percentile({1, 2, 3, 4}, 0.5), 2);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(Percentile(hundred, 0.5), 50);
  EXPECT_EQ(Percentile(hundred, 0.99), 99);  // not 100: 0.99*100 rounds up
  EXPECT_EQ(Percentile(hundred, 1.0), 100);
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  EXPECT_EQ(Percentile(thousand, 0.99), 990);
}

TEST(ClassifyKeyTest, SchemaKeysMapToLedgerKinds) {
  const arkfs::Uuid ino = arkfs::NewUuid();
  EXPECT_EQ(ClassifyKey(arkfs::JournalKey(ino)), KeyClass::kJournal);
  EXPECT_EQ(ClassifyKey(arkfs::FenceKey(ino)), KeyClass::kFence);
  EXPECT_EQ(ClassifyKey(arkfs::InodeKey(ino)), KeyClass::kInode);
  EXPECT_EQ(ClassifyKey(arkfs::DentryKey(ino)), KeyClass::kDentry);
  EXPECT_EQ(ClassifyKey(arkfs::DentryManifestKey(ino)), KeyClass::kDentry);
  EXPECT_EQ(ClassifyKey(arkfs::DentryShardKey(ino, 4, 3, 1)),
            KeyClass::kDentry);
  EXPECT_EQ(ClassifyKey(arkfs::DataKey(ino, 0)), KeyClass::kData);
  EXPECT_EQ(ClassifyKey(arkfs::DataKey(ino, 17)), KeyClass::kData);
  EXPECT_EQ(ClassifyKey("sys.lease-epoch"), KeyClass::kOther);
  EXPECT_EQ(ClassifyKey(""), KeyClass::kOther);
  EXPECT_EQ(ClassifyKey("jnot-a-uuid"), KeyClass::kOther);
}

TEST(AttributionTest, InlineOnlyWhileAnOpIsActiveOnTheThread) {
  TimingStore store(nullptr);
  store.Begin();
  const std::string journal = arkfs::JournalKey(arkfs::NewUuid());
  const std::string fence = arkfs::FenceKey(arkfs::NewUuid());
  OpScope scope;
  {
    ActiveOp active(&scope);
    store.Record(fence, Verb::kGet, 2000, 100, arkfs::Status::Ok(), 24, 0);
    store.Record(journal, Verb::kPutRange, 4000, 300, arkfs::Status::Ok(), 0,
                 512);
    store.Record(fence, Verb::kGet, 2000, 100, arkfs::Status::Ok(), 24, 0);
  }
  // Same thread, no op: background work such as a flusher round.
  store.Record(journal, Verb::kPutRange, 1000, 50,
               arkfs::Status(arkfs::Errc::kIo), 0, 64);
  // Another thread, even while this one has an op active.
  {
    ActiveOp active(&scope);
    std::thread other([&] {
      store.Record(fence, Verb::kGet, 1000, 10,
                   arkfs::Status(arkfs::Errc::kNoEnt), 0, 0);
    });
    other.join();
  }
  // A check or untimed step: counted apart from inline and offloaded calls.
  OpScope check;
  check.untimed = true;
  {
    ActiveOp active(&check);
    store.Record(fence, Verb::kGet, 500, 5, arkfs::Status::Ok(), 24, 0);
  }
  const StoreTotals t = store.End();
  EXPECT_EQ(t.inline_calls, 3u);
  EXPECT_EQ(t.offloaded_calls, 2u);
  EXPECT_EQ(t.untimed_calls, 1u);
  EXPECT_EQ(t.errors, 1u);  // kNoEnt is an answer, not an error
  EXPECT_EQ(t.bytes_read, 48u);
  EXPECT_EQ(t.bytes_written, 576u);
  EXPECT_EQ(t.busy_ns, 10500);
  const int fence_k = static_cast<int>(KeyClass::kFence);
  const int journal_k = static_cast<int>(KeyClass::kJournal);
  EXPECT_EQ(t.cells[fence_k][static_cast<int>(Verb::kGet)].calls, 3u);
  EXPECT_EQ(t.cells[journal_k][static_cast<int>(Verb::kPutRange)].calls, 2u);
  EXPECT_EQ(scope.store_calls[fence_k][static_cast<int>(Verb::kGet)], 2u);
  EXPECT_EQ(scope.store_calls[journal_k][static_cast<int>(Verb::kPutRange)],
            1u);
  EXPECT_EQ(scope.store_ns, 8000);
  EXPECT_EQ(scope.store_cpu_ns, 500);
  EXPECT_EQ(check.store_ns, 0);
  EXPECT_EQ(CurrentOp(), nullptr);
}

TEST(LedgerTest, SharesSumToOne) {
  const std::vector<std::vector<OpBreakdown>> cases = {
      {{1000, 900, 100, 600, 20}},
      {{10, 8, 8, 0, 0}, {14, 12, 11, 1, 1}},
      // CPU clock reading above wall: clamped, never negative.
      {{100, 50, 70, 10, 0}},
      // Store wall above client wall: clamped to client.
      {{100, 40, 0, 60, 0}},
      {{5, 0, 0, 0, 0}},
  };
  for (const auto& ops : cases) {
    const LedgerShares s = ComputeShares(ops);
    EXPECT_NEAR(s.fuse + s.cpu + s.store + s.other, 1.0, 1e-12);
    EXPECT_GE(s.fuse, 0);
    EXPECT_GE(s.cpu, 0);
    EXPECT_GE(s.store, 0);
    EXPECT_GE(s.other, -1e-12);
  }
  const LedgerShares s = ComputeShares({{1000, 900, 100, 600, 20}});
  EXPECT_DOUBLE_EQ(s.fuse, 0.1);
  EXPECT_DOUBLE_EQ(s.store, 0.6);
  EXPECT_DOUBLE_EQ(s.cpu, 0.08);
  EXPECT_NEAR(s.other, 0.22, 1e-12);
  const LedgerShares empty = ComputeShares({});
  EXPECT_EQ(empty.fuse + empty.cpu + empty.store + empty.other, 0);
}

TEST(LedgerTest, MedianBandIsTheMiddleTenth) {
  std::vector<OpBreakdown> ops;
  for (int i = 100; i >= 1; --i) ops.push_back({static_cast<double>(i)});
  const auto band = MedianBand(ops);
  ASSERT_EQ(band.size(), 10u);
  EXPECT_EQ(band.front().total_us, 46);
  EXPECT_EQ(band.back().total_us, 55);
  EXPECT_EQ(MedianBand({{3}}).size(), 1u);
  EXPECT_TRUE(MedianBand({}).empty());
}

TEST(OkCounterTest, FailedChecksCountAgainstAttempted) {
  OkCounter a;
  EXPECT_EQ(a.ratio(), 0);
  for (int i = 0; i < 3; ++i) a.Record(true);
  a.Record(false);
  EXPECT_EQ(a.attempted, 4u);
  EXPECT_EQ(a.failed, 1u);
  EXPECT_DOUBLE_EQ(a.ratio(), 0.75);
  OkCounter b;
  b.Record(true);
  a.Merge(b);
  EXPECT_EQ(a.attempted, 5u);
  EXPECT_DOUBLE_EQ(a.ratio(), 0.8);
}

TEST(PayloadTest, SeedDerivedAndRestampedPerFile) {
  const arkfs::Bytes a = MakePayload(7, 1, 3901);
  EXPECT_EQ(a.size(), 3901u);
  EXPECT_EQ(a, MakePayload(7, 1, 3901));
  EXPECT_NE(a, MakePayload(7, 2, 3901));
  EXPECT_NE(a, MakePayload(8, 1, 3901));

  StreamPayload p(7, 99, 64 << 10);
  p.Restamp(1);
  const arkfs::Bytes file1 = p.bytes();
  p.Restamp(2);
  // Every 4 KiB block of file 2 differs from file 1's.
  for (std::size_t off = 0; off < file1.size(); off += 4096) {
    EXPECT_FALSE(std::equal(file1.begin() + off, file1.begin() + off + 4096,
                            p.bytes().begin() + off));
  }
  p.Restamp(1);
  EXPECT_EQ(p.bytes(), file1);
  StreamPayload q(7, 99, 64 << 10);
  q.Restamp(1);
  EXPECT_EQ(q.bytes(), file1);
}

}  // namespace
}  // namespace perfbench
