// Crash-consistency tests (paper §III-E): client failure with journal
// recovery, lease-manager failure with quiet-period restart.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "core/cluster.h"
#include "objstore/chaos_store.h"
#include "objstore/memory_store.h"

namespace arkfs {
namespace {

class CrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // While checkpoints are held the store refuses dentry writes, so every
    // checkpoint fails and committed transactions stay in the journal: how
    // a test keeps the journal it crashes over, whatever checkpoints its
    // fsyncs ask for.
    store_ = std::make_shared<ChaosStore>(
        std::make_shared<MemoryObjectStore>(), ChaosConfig{},
        [held = hold_checkpoints_](std::string_view op, const std::string& key) {
          return held->load() && op.starts_with("put") && !key.empty() &&
                         key[0] == 'e'
                     ? Errc::kIo
                     : Errc::kOk;
        });
    auto options = ArkFsClusterOptions::ForTests();
    cluster_ = ArkFsCluster::Create(store_, options).value();
  }

  Nanos LeasePeriod() {
    return cluster_->lease_manager().config().lease_period;
  }

  void HoldCheckpoints(bool hold) { hold_checkpoints_->store(hold); }

  std::shared_ptr<std::atomic<bool>> hold_checkpoints_ =
      std::make_shared<std::atomic<bool>>(false);
  ObjectStorePtr store_;
  std::unique_ptr<ArkFsCluster> cluster_;
  UserCred root_ = UserCred::Root();
};

TEST_F(CrashTest, CommittedButNotCheckpointedSurvivesCrash) {
  auto c1 = cluster_->AddClient("crasher").value();
  ASSERT_TRUE(c1->Mkdir("/work", 0755, root_).ok());
  // The mkdir itself is async-acked into the ROOT journal; make it durable
  // before the burst — this test is about the fsynced files surviving, not
  // about the parent riding the async loss window.
  ASSERT_TRUE(c1->SyncAll().ok());
  HoldCheckpoints(true);
  OpenOptions create;
  create.write = true;
  create.create = true;
  for (int i = 0; i < 10; ++i) {
    auto fd = c1->Open("/work/f" + std::to_string(i), create, root_);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(c1->Write(*fd, 0, AsBytes("payload")).ok());
    ASSERT_TRUE(c1->Fsync(*fd).ok());  // data + journal commit, NO checkpoint
    ASSERT_TRUE(c1->Close(*fd).ok());
  }
  // Hard crash: no flush, no release, vanishes from the fabric.
  c1->CrashHard();
  HoldCheckpoints(false);

  // A new client takes over after the lease expires; finding valid journal
  // transactions it must replay them before serving the directory.
  SleepFor(LeasePeriod() + Millis(100));
  auto c2 = cluster_->AddClient("recoverer").value();
  auto entries = c2->ReadDir("/work", root_);
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  EXPECT_EQ(entries->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    auto data = c2->ReadWholeFile("/work/f" + std::to_string(i), root_);
    ASSERT_TRUE(data.ok()) << i;
    EXPECT_EQ(ToString(*data), "payload");
  }
  EXPECT_GT(c2->stats().recoveries, 0u);
}

TEST_F(CrashTest, ForwardedFsyncSurvivesLeaderCrash) {
  // Async durability with a long linger: a record commits only when an
  // fsync or sync asks for it.
  auto options = ArkFsClusterOptions::ForTests();
  options.client_template.journal.durability =
      journal::DurabilityMode::kAsync;
  options.client_template.journal.commit_interval = Seconds(5);
  cluster_.reset();
  cluster_ = ArkFsCluster::Create(store_, options).value();

  auto leader = cluster_->AddClient("leader").value();
  ASSERT_TRUE(leader->Mkdir("/d", 0755, root_).ok());
  ASSERT_TRUE(leader->SyncAll().ok());
  ASSERT_TRUE(leader->ReadDir("/d", root_).ok());  // leader now leads /d

  // Another client's create, write and fsync: every /d mutation is
  // forwarded to the leader and sits in the leader's journal.
  auto writer = cluster_->AddClient("writer").value();
  OpenOptions create;
  create.write = true;
  create.create = true;
  auto fd = writer->Open("/d/f", create, root_);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(writer->Write(*fd, 0, AsBytes("data")).ok());
  ASSERT_TRUE(writer->Fsync(*fd).ok());
  ASSERT_TRUE(writer->Close(*fd).ok());
  EXPECT_GT(writer->stats().forwarded_ops, 0u);
  // SyncAll commits at the leader of every directory it forwarded to.
  ASSERT_TRUE(writer->WriteFileAt("/d/g", AsBytes("synced"), root_).ok());
  ASSERT_TRUE(writer->SyncAll().ok());

  leader->CrashHard();
  SleepFor(LeasePeriod() + Millis(100));
  auto reader = cluster_->AddClient("reader").value();
  auto st = reader->Stat("/d/f", root_);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_EQ(st->size, 4u);
  EXPECT_EQ(ToString(*reader->ReadWholeFile("/d/f", root_)), "data");
  auto synced = reader->ReadWholeFile("/d/g", root_);
  ASSERT_TRUE(synced.ok()) << synced.status().ToString();
  EXPECT_EQ(ToString(*synced), "synced");
}

TEST_F(CrashTest, UnsyncedDataIsLostButFsConsistent) {
  auto c1 = cluster_->AddClient("crasher").value();
  ASSERT_TRUE(c1->Mkdir("/d", 0755, root_).ok());
  ASSERT_TRUE(c1->WriteFileAt("/d/durable", AsBytes("safe"), root_).ok());
  ASSERT_TRUE(c1->SyncAll().ok());

  // A create whose journal never committed (running txn only).
  OpenOptions create;
  create.write = true;
  create.create = true;
  auto fd = c1->Open("/d/volatile", create, root_);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(c1->Write(*fd, 0, AsBytes("gone")).ok());
  // No fsync. Crash immediately (before the 20 ms background commit).
  c1->CrashHard();

  SleepFor(LeasePeriod() + Millis(100));
  auto c2 = cluster_->AddClient("recoverer").value();
  EXPECT_EQ(ToString(*c2->ReadWholeFile("/d/durable", root_)), "safe");
  // The unsynced file may or may not exist depending on commit timing, but
  // the file system is consistent: stat either succeeds or says ENOENT.
  auto st = c2->Stat("/d/volatile", root_);
  if (!st.ok()) {
    EXPECT_EQ(st.code(), Errc::kNoEnt);
  }
  auto entries = c2->ReadDir("/d", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_GE(entries->size(), 1u);
}

TEST_F(CrashTest, UnrelatedDirectoriesUnaffectedByRecovery) {
  auto c1 = cluster_->AddClient("crasher").value();
  auto c2 = cluster_->AddClient("bystander").value();
  ASSERT_TRUE(c1->Mkdir("/doomed", 0755, root_).ok());
  ASSERT_TRUE(c2->Mkdir("/healthy", 0755, root_).ok());
  ASSERT_TRUE(c1->WriteFileAt("/doomed/f", AsBytes("x"), root_).ok());
  // Both mkdirs live in the ROOT journal, led by c1: flush it so /healthy
  // exists durably before c1 takes the root journal down with it.
  ASSERT_TRUE(c1->SyncAll().ok());
  c1->CrashHard();

  // The bystander keeps working in its own directory throughout.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        c2->WriteFileAt("/healthy/f" + std::to_string(i), AsBytes("y"), root_)
            .ok());
  }
  EXPECT_EQ(c2->ReadDir("/healthy", root_)->size(), 10u);
}

TEST_F(CrashTest, LeaseManagerRestartRecovers) {
  auto c1 = cluster_->AddClient("worker").value();
  ASSERT_TRUE(c1->Mkdir("/before", 0755, root_).ok());

  // Crash + restart, state lost.
  cluster_->lease_manager().Stop();
  ASSERT_TRUE(cluster_->lease_manager().Start().ok());

  // After the quiet period, normal operation resumes; leases are re-acquired
  // and no metadata was lost (it lives in the object store + journals).
  ASSERT_TRUE(c1->WriteFileAt("/before/f", AsBytes("alive"), root_).ok());
  EXPECT_EQ(ToString(*c1->ReadWholeFile("/before/f", root_)), "alive");
}

TEST_F(CrashTest, RecoveryReplaysRenameTwoPhaseCommit) {
  auto c1 = cluster_->AddClient("crasher").value();
  ASSERT_TRUE(c1->Mkdir("/src", 0755, root_).ok());
  ASSERT_TRUE(c1->Mkdir("/dst", 0755, root_).ok());
  ASSERT_TRUE(c1->WriteFileAt("/src/file", AsBytes("moving"), root_).ok());
  ASSERT_TRUE(c1->SyncAll().ok());
  // Cross-directory rename commits its 2PC durably, then crash before the
  // checkpoint can run.
  ASSERT_TRUE(c1->Rename("/src/file", "/dst/file", root_).ok());
  c1->CrashHard();

  SleepFor(LeasePeriod() + Millis(100));
  auto c2 = cluster_->AddClient("recoverer").value();
  EXPECT_EQ(c2->Stat("/src/file", root_).code(), Errc::kNoEnt);
  auto data = c2->ReadWholeFile("/dst/file", root_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "moving");
}

TEST_F(CrashTest, LeaderLosesLeaseMidBurst) {
  auto c1 = cluster_->AddClient("leader").value();
  ASSERT_TRUE(c1->Mkdir("/burst", 0755, root_).ok());
  HoldCheckpoints(true);  // the burst stays in the journal until the crash
  OpenOptions create;
  create.write = true;
  create.create = true;
  constexpr int kAcked = 6;
  for (int i = 0; i < kAcked; ++i) {
    auto fd = c1->Open("/burst/f" + std::to_string(i), create, root_);
    ASSERT_TRUE(fd.ok()) << i;
    ASSERT_TRUE(c1->Write(*fd, 0, AsBytes("acked-" + std::to_string(i))).ok());
    ASSERT_TRUE(c1->Fsync(*fd).ok());  // journal-committed: must survive
    ASSERT_TRUE(c1->Close(*fd).ok());
  }

  // The lease manager dies mid-burst. The lease itself is still valid, so
  // the leader keeps running — until proactive renewal starts failing.
  cluster_->lease_manager().Stop();
  SleepFor(LeasePeriod() * 4 / 5);  // into the proactive-renewal window

  // Lame duck: renewal fails while the lease is unexpired. New mutations
  // must be fenced with kStale (a successor could be elected any moment and
  // would never learn about them)...
  auto fenced = c1->Open("/burst/rejected", create, root_);
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.code(), Errc::kStale);
  // ...while reads keep being served from the in-memory metatable.
  auto dir = c1->ReadDir("/burst", root_);
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(dir->size(), static_cast<std::size_t>(kAcked));

  c1->CrashHard();
  HoldCheckpoints(false);

  // Manager comes back with all lease state lost (crash-restart semantics);
  // wait out the quiet period plus the dead leader's lease.
  ASSERT_TRUE(cluster_->lease_manager().Start().ok());
  SleepFor(LeasePeriod() + Millis(100));

  // The successor finds the journal and replays it: zero acked ops lost,
  // and the fenced create never happened.
  auto c2 = cluster_->AddClient("successor").value();
  auto entries = c2->ReadDir("/burst", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<std::size_t>(kAcked));
  for (int i = 0; i < kAcked; ++i) {
    auto data = c2->ReadWholeFile("/burst/f" + std::to_string(i), root_);
    ASSERT_TRUE(data.ok()) << i;
    EXPECT_EQ(ToString(*data), "acked-" + std::to_string(i));
  }
  EXPECT_EQ(c2->Stat("/burst/rejected", root_).code(), Errc::kNoEnt);
  EXPECT_GT(c2->stats().recoveries, 0u);
}

TEST_F(CrashTest, DeposedEpochGrantFencedAtJournalCommit) {
  // Split brain at the journal layer: two JournalManagers over one store
  // model a deposed leader (grant from epoch 1) and its successor (epoch 2).
  // The epoch-1 commit that races the takeover must be rejected kStale and
  // never acked; everything acked BEFORE the fence advanced must be replayed
  // by the successor.
  auto prt = std::make_shared<Prt>(store_);
  const Uuid dir = DeterministicUuid(3, 3);
  ASSERT_TRUE(
      prt->StoreInode(MakeInode(dir, FileType::kDirectory, 0755, 0, 0, kRootIno))
          .ok());
  ASSERT_TRUE(prt->StoreDentryManifest(dir, DentryManifest{}).ok());

  journal::JournalManager deposed(prt, journal::JournalConfig::ForTests());
  journal::JournalManager successor(prt, journal::JournalConfig::ForTests());
  // No background work: the test drives every commit and checkpoint, so
  // none of the checkpoints the commits ask for trims a journal behind it.
  deposed.Halt();
  successor.Halt();
  const FenceToken old_token{1, 1};
  const FenceToken new_token{2, 1};

  // Old leader fences the directory and commits one acked transaction.
  ASSERT_TRUE(deposed.FenceDir(dir, old_token).ok());
  deposed.RegisterDir(dir, old_token);
  (void)deposed.Append(dir, {journal::Record::DentryAdd(
                     Dentry{"acked", DeterministicUuid(3, 4)})});
  ASSERT_TRUE(deposed.CommitDir(dir).ok());

  // Failover: the successor advances the fence BEFORE touching the journal
  // (the BecomeLeader ordering). From here on the old grant is dead.
  ASSERT_TRUE(successor.FenceDir(dir, new_token).ok());

  // The deposed leader's in-flight commit is refused at the store and never
  // acked.
  (void)deposed.Append(dir, {journal::Record::DentryAdd(
                     Dentry{"lost", DeterministicUuid(3, 5)})});
  EXPECT_EQ(deposed.CommitDir(dir).code(), Errc::kStale);
  EXPECT_GE(deposed.metrics().fence_rejections.value(), 1u);
  EXPECT_EQ(deposed.metrics().fence_violations.value(), 0u);
  // Re-fencing with the stale token is just as dead.
  EXPECT_EQ(deposed.FenceDir(dir, old_token).code(), Errc::kStale);

  // The successor replays exactly the acked transaction.
  successor.RegisterDir(dir, new_token);
  auto report = successor.RecoverDir(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transactions_replayed, 1u);
  auto entries = prt->LoadDentries(dir);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "acked");
}

TEST_F(CrashTest, DeposedCheckpointTrimIsFenced) {
  // The checkpoint trim rewrites the journal object, so it must be fenced
  // like an append: a deposed leader's late trim would otherwise chop (here:
  // wipe) frames its successor already acked.
  auto prt = std::make_shared<Prt>(store_);
  const Uuid dir = DeterministicUuid(3, 6);
  ASSERT_TRUE(
      prt->StoreInode(MakeInode(dir, FileType::kDirectory, 0755, 0, 0, kRootIno))
          .ok());
  ASSERT_TRUE(prt->StoreDentryManifest(dir, DentryManifest{}).ok());

  journal::JournalManager deposed(prt, journal::JournalConfig::ForTests());
  journal::JournalManager successor(prt, journal::JournalConfig::ForTests());
  // No background work: the test drives every commit and checkpoint, so
  // none of the checkpoints the commits ask for trims a journal behind it.
  deposed.Halt();
  successor.Halt();
  const FenceToken old_token{1, 1};
  const FenceToken new_token{2, 1};

  // 1. The old leader commits, and keeps the frame queued for checkpoint.
  ASSERT_TRUE(deposed.FenceDir(dir, old_token).ok());
  deposed.RegisterDir(dir, old_token);
  (void)deposed.Append(dir, {journal::Record::DentryAdd(
                     Dentry{"old", DeterministicUuid(3, 7)})});
  ASSERT_TRUE(deposed.CommitDir(dir).ok());

  // 2. The successor fences, recovers, and commits one acked transaction.
  ASSERT_TRUE(successor.FenceDir(dir, new_token).ok());
  ASSERT_TRUE(successor.RecoverDir(dir).ok());
  successor.RegisterDir(dir, new_token);
  (void)successor.Append(dir, {journal::Record::DentryAdd(
                       Dentry{"acked", DeterministicUuid(3, 8)})});
  ASSERT_TRUE(successor.CommitDir(dir).ok());

  // 3. The deposed leader's checkpoint reaches its trim: refused.
  EXPECT_EQ(deposed.FlushDir(dir).code(), Errc::kStale);
  EXPECT_GE(deposed.metrics().fence_rejections.value(), 1u);
  EXPECT_EQ(deposed.metrics().fence_violations.value(), 0u);

  // The successor's acked frame is still there for its recovery to replay.
  auto report = successor.RecoverDir(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->transactions_replayed, 1u);
  auto entries = prt->LoadDentries(dir);
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> names;
  for (const auto& d : *entries) names.push_back(d.name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"acked", "old"}));
}

TEST_F(CrashTest, FencedWritesRedrivenUnderSuccessorEpoch) {
  // Full stack: the active lease-manager replica dies mid-burst; the client
  // rides the failover, reacquires under the bumped epoch, and every acked
  // write survives into the new epoch with zero fence violations.
  auto store = std::make_shared<MemoryObjectStore>();
  auto options = ArkFsClusterOptions::ForTests();
  options.lease_replicas = 3;
  auto cluster = ArkFsCluster::Create(store, options).value();
  const Nanos lease = cluster->lease_manager().config().lease_period;

  auto c1 = cluster->AddClient("writer").value();
  ASSERT_TRUE(c1->Mkdir("/ha", 0755, root_).ok());
  ASSERT_TRUE(c1->WriteFileAt("/ha/acked0", AsBytes("pre"), root_).ok());
  ASSERT_TRUE(c1->SyncAll().ok());

  const int active = cluster->ActiveLeaseReplica();
  ASSERT_GE(active, 0);
  ASSERT_TRUE(cluster->KillLeaseReplica(active).ok());

  // Wait for a standby to take over under a bumped epoch.
  const TimePoint deadline = Now() + Seconds(3);
  while (cluster->ActiveLeaseReplica() < 0 && Now() < deadline) {
    SleepFor(Millis(5));
  }
  const int successor = cluster->ActiveLeaseReplica();
  ASSERT_GE(successor, 0);
  ASSERT_NE(successor, active);
  EXPECT_GE(cluster->lease_manager(successor).epoch(), 2u);

  // Ride out the quiet period + the old lease, then write through the new
  // epoch. RunDirOp absorbs the kStale/kBusy churn of the reacquisition.
  SleepFor(lease + Millis(50));
  ASSERT_TRUE(c1->WriteFileAt("/ha/acked1", AsBytes("post"), root_).ok());
  ASSERT_TRUE(c1->SyncAll().ok());

  // A fresh client sees both writes; nobody ever observed a fence violation.
  auto c2 = cluster->AddClient("reader").value();
  EXPECT_EQ(ToString(*c2->ReadWholeFile("/ha/acked0", root_)), "pre");
  EXPECT_EQ(ToString(*c2->ReadWholeFile("/ha/acked1", root_)), "post");
  for (const auto& client : cluster->clients()) {
    EXPECT_EQ(client->journal_metrics().fence_violations.value(), 0u);
  }
}

TEST_F(CrashTest, RevivedLeaseReplicaIsAmnesiac) {
  // Revive must model a crash-restart, not a pause: the revived replica is a
  // fresh process over the shared store. Even if it wins its role back
  // before any standby notices the outage, it may only resume under a
  // bumped, persisted epoch — resuming at the old epoch with a reset grant
  // counter would re-mint the tokens its previous life handed out.
  auto store = std::make_shared<MemoryObjectStore>();
  auto options = ArkFsClusterOptions::ForTests();
  options.lease_replicas = 3;
  auto cluster = ArkFsCluster::Create(store, options).value();

  const int active = cluster->ActiveLeaseReplica();
  ASSERT_GE(active, 0);
  const std::uint64_t before = cluster->lease_manager(active).epoch();

  ASSERT_TRUE(cluster->KillLeaseReplica(active).ok());
  ASSERT_TRUE(cluster->ReviveLeaseReplica(active).ok());

  const TimePoint deadline = Now() + Seconds(3);
  int now_active = cluster->ActiveLeaseReplica();
  while (now_active < 0 && Now() < deadline) {
    SleepFor(Millis(5));
    now_active = cluster->ActiveLeaseReplica();
  }
  ASSERT_GE(now_active, 0);
  // Whoever serves now — the revived replica or a standby that took over —
  // does so under a strictly newer epoch than the pre-crash tenure.
  EXPECT_GE(cluster->lease_manager(now_active).epoch(), before + 1);
}

// --- durability-mode x kill-point matrix (DESIGN.md §4.7) ---
//
// Each cell pins the documented loss window for one durability mode at one
// kill point. The invariant across every cell: an op whose ack implied
// durability is NEVER lost, and every lost op is one that was sequenced but
// not yet flushed (group/async) or never acked at all (sync).
class DurabilityMatrixTest
    : public ::testing::TestWithParam<journal::DurabilityMode> {
 protected:
  void SetUp() override {
    base_ = std::make_shared<MemoryObjectStore>();
    armed_ = std::make_shared<std::atomic<bool>>(false);
    // Armed: journal objects (keys "j<uuid>") reject writes, so nothing
    // sequenced after arming can reach durability until the store heals.
    // This freezes the instant between ack and flush that a real crash
    // would have to hit by luck.
    store_ = std::make_shared<ChaosStore>(
        base_, ChaosConfig{},
        [armed = armed_](std::string_view op, const std::string& key) {
          return armed->load() && op.substr(0, 3) == "put" && !key.empty() &&
                         key[0] == 'j'
                     ? Errc::kIo
                     : Errc::kOk;
        });
    auto options = ArkFsClusterOptions::ForTests();
    options.client_template.journal.durability = GetParam();
    cluster_ = ArkFsCluster::Create(store_, options).value();
  }

  Nanos LeasePeriod() {
    return cluster_->lease_manager().config().lease_period;
  }

  // Creates /d/f<i> for i in [lo, hi) and returns how many creates acked.
  int CreateFiles(const std::shared_ptr<Client>& c, int lo, int hi) {
    OpenOptions create;
    create.write = true;
    create.create = true;
    int acked = 0;
    for (int i = lo; i < hi; ++i) {
      auto fd = c->Open("/d/f" + std::to_string(i), create, root_);
      if (!fd.ok()) continue;
      EXPECT_TRUE(c->Write(*fd, 0, AsBytes("payload")).ok());
      EXPECT_TRUE(c->Close(*fd).ok());
      ++acked;
    }
    return acked;
  }

  // Recover after a hard crash and assert /d holds EXACTLY f<i> for
  // i in [0, survivors) — the loss boundary, not just a lower bound.
  void ExpectExactlySurvivors(int survivors) {
    SleepFor(LeasePeriod() + Millis(100));
    auto c = cluster_->AddClient("recoverer").value();
    auto entries = c->ReadDir("/d", root_);
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<std::size_t>(survivors));
    for (int i = 0; i < survivors; ++i) {
      auto data = c->ReadWholeFile("/d/f" + std::to_string(i), root_);
      ASSERT_TRUE(data.ok()) << "durable f" << i << " lost";
      EXPECT_EQ(ToString(*data), "payload");
    }
    EXPECT_EQ(c->Stat("/d/f" + std::to_string(survivors), root_).code(),
              Errc::kNoEnt);
    EXPECT_EQ(c->journal_metrics().fence_violations.value(), 0u);
  }

  ObjectStorePtr base_;
  std::shared_ptr<std::atomic<bool>> armed_;
  ObjectStorePtr store_;
  std::unique_ptr<ArkFsCluster> cluster_;
  UserCred root_ = UserCred::Root();
};

TEST_P(DurabilityMatrixTest, KillBeforeSequencingLosesNothing) {
  auto c1 = cluster_->AddClient("crasher").value();
  ASSERT_TRUE(c1->Mkdir("/d", 0755, root_).ok());
  ASSERT_EQ(CreateFiles(c1, 0, 5), 5);
  ASSERT_TRUE(c1->SyncAll().ok());
  // The crash lands before f5..f9 are ever submitted: no mode may lose any
  // of the durable base, and nothing else ever entered the pipeline.
  c1->CrashHard();
  ExpectExactlySurvivors(5);
}

TEST_P(DurabilityMatrixTest, KillAfterAckBeforeFlushLosesExactlyTheWindow) {
  auto c1 = cluster_->AddClient("crasher").value();
  ASSERT_TRUE(c1->Mkdir("/d", 0755, root_).ok());
  ASSERT_EQ(CreateFiles(c1, 0, 5), 5);
  ASSERT_TRUE(c1->SyncAll().ok());  // f0..f4 are durable in every mode

  armed_->store(true);  // journal flushes now fail: acks cannot be backed
  const int acked = CreateFiles(c1, 5, 10);
  if (GetParam() == journal::DurabilityMode::kSync) {
    // Sync acks only after the commit: with the journal unwritable the ops
    // FAIL instead of acking, so the loss window is empty by construction.
    EXPECT_EQ(acked, 0);
  } else {
    // Group acks on sequence, async on buffer: all five ops ack while the
    // dirty window holds them.
    EXPECT_EQ(acked, 5);
  }
  c1->CrashHard();
  armed_->store(false);  // the store heals for the successor

  // Every cell converges to the same boundary: the durable base survives,
  // the sequenced-but-unflushed tail is the loss window (empty for sync —
  // those ops were never acked).
  ExpectExactlySurvivors(5);
}

TEST_P(DurabilityMatrixTest, FailedCommitNeverDivergesMemoryFromJournal) {
  // Regression: an op whose journal commit fails transiently leaves its
  // records sequenced (commit unwind) and a later drain redrives them
  // durable — so the leader's in-memory metatable must already reflect the
  // op when Append returns, success or not. LeaderUnlink once erased the
  // dentry only AFTER a successful Append: on a sync-mode IO error the
  // journal would eventually record an unlink the live leader still served,
  // and recovery would drop a dentry the tenure never stopped serving.
  auto c1 = cluster_->AddClient("crasher").value();
  ASSERT_TRUE(c1->Mkdir("/d", 0755, root_).ok());
  ASSERT_EQ(CreateFiles(c1, 0, 3), 3);
  ASSERT_TRUE(c1->SyncAll().ok());

  armed_->store(true);  // journal writes fail: sync-mode unlink errors out
  const Status unlinked = c1->Unlink("/d/f1", root_);
  if (GetParam() == journal::DurabilityMode::kSync) {
    EXPECT_FALSE(unlinked.ok());
  } else {
    EXPECT_TRUE(unlinked.ok());  // acked on sequence; flush is deferred
  }
  // Whatever the caller was told, the LIVE leader's view must match what
  // the sequenced records will (re)drive into the journal: f1 is gone.
  auto live = c1->ReadDir("/d", root_);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->size(), 2u);
  EXPECT_EQ(c1->Stat("/d/f1", root_).code(), Errc::kNoEnt);

  armed_->store(false);  // store heals: the unwound records redrive
  ASSERT_TRUE(c1->SyncAll().ok());
  c1->CrashHard();

  // Recovery agrees with the live view the tenure served all along.
  SleepFor(LeasePeriod() + Millis(100));
  auto c2 = cluster_->AddClient("recoverer").value();
  auto entries = c2->ReadDir("/d", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  EXPECT_EQ(c2->Stat("/d/f1", root_).code(), Errc::kNoEnt);
  for (int i : {0, 2}) {
    auto data = c2->ReadWholeFile("/d/f" + std::to_string(i), root_);
    ASSERT_TRUE(data.ok()) << "f" << i << " lost";
    EXPECT_EQ(ToString(*data), "payload");
  }
  EXPECT_EQ(c2->journal_metrics().fence_violations.value(), 0u);
}

TEST_P(DurabilityMatrixTest, KillAfterFlushLosesNothing) {
  auto c1 = cluster_->AddClient("crasher").value();
  ASSERT_TRUE(c1->Mkdir("/d", 0755, root_).ok());
  ASSERT_EQ(CreateFiles(c1, 0, 10), 10);
  // SyncAll is the forced drain: after it returns, every mode has pushed
  // the whole dirty window to the journal objects.
  ASSERT_TRUE(c1->SyncAll().ok());
  c1->CrashHard();
  ExpectExactlySurvivors(10);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, DurabilityMatrixTest,
    ::testing::Values(journal::DurabilityMode::kSync,
                      journal::DurabilityMode::kGroup,
                      journal::DurabilityMode::kAsync),
    [](const ::testing::TestParamInfo<journal::DurabilityMode>& info) {
      return std::string(journal::DurabilityModeName(info.param));
    });

TEST_F(CrashTest, RepeatedCrashesConverge) {
  for (int round = 0; round < 3; ++round) {
    auto c = cluster_->AddClient("round-" + std::to_string(round)).value();
    ASSERT_TRUE(c->MkdirAll("/persist", 0755, root_).ok());
    ASSERT_TRUE(c->WriteFileAt("/persist/r" + std::to_string(round),
                               AsBytes("data"), root_)
                    .ok());
    ASSERT_TRUE(c->SyncAll().ok());
    c->CrashHard();
    SleepFor(LeasePeriod() + Millis(100));
  }
  auto survivor = cluster_->AddClient("survivor").value();
  auto entries = survivor->ReadDir("/persist", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);
}

}  // namespace
}  // namespace arkfs
