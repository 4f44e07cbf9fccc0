// Tests for the replicated lease-manager group: epoch-fenced failover,
// standby redirects, quiet periods, and the late/stale-lease races the
// fencing tokens exist to win.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "lease/lease_client.h"
#include "lease/lease_manager.h"
#include "objstore/memory_store.h"
#include "objstore/store_decorator.h"

namespace arkfs::lease {
namespace {

// Routes every write of the epoch record (Put or PutIf) through a test hook
// that sees the record being written and the write itself; everything else
// passes straight through.
class EpochWriteHookStore : public StoreDecorator {
 public:
  using Write = std::function<Status()>;
  using Hook = std::function<Status(const EpochRecord&, const Write&)>;

  using StoreDecorator::StoreDecorator;

  void SetHook(Hook hook) {
    std::lock_guard lock(mu_);
    hook_ = std::move(hook);
  }

  Status Put(const std::string& key, ByteSpan data) override {
    return Route(key, data, [&] { return base()->Put(key, data); });
  }
  Status PutIf(const std::string& key, ByteSpan data,
               const WriteGuard& guard) override {
    return Route(key, data, [&] { return base()->PutIf(key, data, guard); });
  }

 private:
  Status Route(const std::string& key, ByteSpan data, const Write& write) {
    Hook hook;
    {
      std::lock_guard lock(mu_);
      hook = hook_;
    }
    Result<EpochRecord> rec = EpochRecord::Decode(data);
    if (!hook || key != kEpochRecordKey || !rec.ok()) return write();
    return hook(*rec, write);
  }

  std::mutex mu_;
  Hook hook_;
};

// Runs `fn` on scope exit, whether the test body passes or returns early.
struct OnExit {
  std::function<void()> fn;
  ~OnExit() { fn(); }
};

class LeaseHaTest : public ::testing::Test {
 protected:
  static constexpr int kReplicas = 3;

  void SetUp() override {
    fabric_ = std::make_shared<rpc::Fabric>(sim::NetworkProfile::Instant());
    hooks_ = std::make_shared<EpochWriteHookStore>(
        std::make_shared<MemoryObjectStore>());
    store_ = hooks_;
    for (int i = 0; i < kReplicas; ++i) {
      addresses_.push_back("lease-manager-" + std::to_string(i));
    }
    for (int i = 0; i < kReplicas; ++i) {
      LeaseManagerConfig config = LeaseManagerConfig::ForTests();
      config.self_address = addresses_[static_cast<std::size_t>(i)];
      config.group = addresses_;
      managers_.push_back(
          std::make_unique<LeaseManager>(fabric_, store_, config));
    }
    // In rank order: replica 0 creates the record and is active.
    for (auto& m : managers_) ASSERT_TRUE(m->Start().ok());
  }

  void TearDown() override { StopAll(); }

  // Joins every heartbeat thread, so no replica calls a test hook after.
  void StopAll() {
    for (auto& m : managers_) m->Stop();
  }

  LeaseClient MakeClient(const std::string& name) {
    LeaseClient::Options options;
    options.wait_budget = Seconds(2);
    options.initial_backoff = Millis(2);
    options.managers = addresses_;
    options.rpc_retry.max_attempts = 4;
    options.rpc_retry.initial_backoff = Millis(1);
    options.rpc_retry.max_backoff = Millis(5);
    options.rpc_retry.deadline = Millis(250);
    return LeaseClient(fabric_, name, options);
  }

  int ActiveReplica() const {
    for (int i = 0; i < kReplicas; ++i) {
      if (managers_[static_cast<std::size_t>(i)]->is_active()) return i;
    }
    return -1;
  }

  int ClaimingActiveCount() const {
    int n = 0;
    for (const auto& m : managers_) {
      if (m->is_active()) ++n;
    }
    return n;
  }

  bool WaitFor(const std::function<bool()>& pred,
               Nanos timeout = Seconds(3)) const {
    const TimePoint deadline = Now() + timeout;
    while (Now() < deadline) {
      if (pred()) return true;
      SleepFor(Millis(5));
    }
    return pred();
  }

  EpochRecord ReadRecord() const {
    auto raw = store_->Get(kEpochRecordKey);
    if (!raw.ok()) return {};
    auto rec = EpochRecord::Decode(*raw);
    return rec.ok() ? *rec : EpochRecord{};
  }

  LeaseManagerConfig config_ = LeaseManagerConfig::ForTests();
  rpc::FabricPtr fabric_;
  std::shared_ptr<EpochWriteHookStore> hooks_;
  ObjectStorePtr store_;
  std::vector<std::string> addresses_;
  std::vector<std::unique_ptr<LeaseManager>> managers_;
  Uuid dir_ = DeterministicUuid(1, 1);
};

TEST_F(LeaseHaTest, BootstrapElectsDesignatedReplica) {
  EXPECT_EQ(ActiveReplica(), 0);
  EXPECT_EQ(ClaimingActiveCount(), 1);
  EXPECT_EQ(managers_[0]->epoch(), 1u);

  auto raw = store_->Get(kEpochRecordKey);
  ASSERT_TRUE(raw.ok());
  auto rec = EpochRecord::Decode(*raw);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->epoch, 1u);
  EXPECT_EQ(rec->active, addresses_[0]);
}

TEST_F(LeaseHaTest, StandbyAnswersWithRedirectHint) {
  // In-process API: kNotActive with the active replica's address as hint.
  AcquireRequest req{dir_, "c1"};
  AcquireResponse resp = managers_[1]->Acquire(req);
  EXPECT_EQ(resp.outcome, AcquireOutcome::kNotActive);
  EXPECT_EQ(resp.leader, addresses_[0]);

  // RPC path: a status-level kAgain + hint that the client sweep consumes.
  auto raw = fabric_->Call(addresses_[2], kMethodAcquire, req.Encode());
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), Errc::kAgain);
  EXPECT_EQ(raw.status().detail(), addresses_[0]);
}

TEST_F(LeaseHaTest, ClientFollowsStandbyHintTransparently) {
  // Point the client's list at a standby first: the sweep must follow the
  // hint to the active replica without surfacing anything to the caller.
  LeaseClient::Options options;
  options.wait_budget = Seconds(2);
  options.initial_backoff = Millis(2);
  options.managers = {addresses_[1], addresses_[2], addresses_[0]};
  LeaseClient c1(fabric_, "c1", options);
  auto grant = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(grant);
  EXPECT_EQ(grant->token.epoch, 1u);
  ASSERT_TRUE(grant->token.valid());
}

TEST_F(LeaseHaTest, FailoverElectsStandbyAndBumpsEpoch) {
  auto c1 = MakeClient("c1");
  auto before = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(before);
  EXPECT_EQ(before->token.epoch, 1u);

  managers_[0]->Stop();
  ASSERT_TRUE(WaitFor([&] { return ActiveReplica() > 0; }));
  const int active = ActiveReplica();
  EXPECT_EQ(managers_[static_cast<std::size_t>(active)]->epoch(), 2u);

  // The persisted record names the winner.
  auto rec = EpochRecord::Decode(*store_->Get(kEpochRecordKey));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->epoch, 2u);
  EXPECT_EQ(rec->active, addresses_[static_cast<std::size_t>(active)]);

  // Acquisition works again once the quiet period drains (the client's wait
  // budget rides it out), and the new grant is strictly fence-ordered after
  // every old-epoch grant.
  auto after = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(after);
  EXPECT_EQ(after->token.epoch, 2u);
  EXPECT_TRUE(before->token < after->token);
  // The successor lost all lease state, so no previous leader is known.
  EXPECT_TRUE(after->prev_leader.empty());
}

TEST_F(LeaseHaTest, TakeoverServesQuietPeriodFirst) {
  auto c1 = MakeClient("c1");
  ASSERT_TRUE(GrantOf(c1.Acquire(dir_)));
  managers_[0]->Stop();
  ASSERT_TRUE(WaitFor([&] { return ActiveReplica() > 0; }));

  // Within the quiet period (one lease term) every acquire is told to wait:
  // the dead active's grants may still be live and the successor has no
  // record of them.
  LeaseClient::Options tight;
  tight.wait_budget = Millis(20);
  tight.initial_backoff = Millis(5);
  tight.managers = addresses_;
  LeaseClient c2(fabric_, "c2", tight);
  EXPECT_EQ(c2.Acquire(dir_).code(), Errc::kBusy);
}

TEST_F(LeaseHaTest, PartitionedActiveAbdicatesViaEpochRecord) {
  // Cut the active replica off from both standbys. The standbys elect a new
  // active through the store; the old active — which never receives the
  // announce ping — must notice its deposition from the epoch record audit.
  fabric_->BlockPair(addresses_[0], addresses_[1]);
  fabric_->BlockPair(addresses_[0], addresses_[2]);

  ASSERT_TRUE(WaitFor([&] { return ActiveReplica() > 0; }));
  ASSERT_TRUE(WaitFor([&] { return !managers_[0]->is_active(); }));
  EXPECT_EQ(ClaimingActiveCount(), 1);

  fabric_->HealPartitions();
  // Healing must not resurrect the deposed replica.
  SleepFor(Millis(50));
  EXPECT_FALSE(managers_[0]->is_active());
  EXPECT_EQ(ClaimingActiveCount(), 1);
  EXPECT_GE(managers_[0]->epoch(), 2u);
}

TEST_F(LeaseHaTest, SameEpochRecordNamingPeerForcesAbdication) {
  // Replicas only ever claim a new epoch, guarded on the record they read,
  // so no replica writes this; an outside writer does. The audit goes by
  // the record's named active, not by epoch comparison: rewrite the record
  // to name a peer at replica 0's OWN epoch.
  ASSERT_TRUE(managers_[0]->is_active());
  const EpochRecord rival{managers_[0]->epoch(), addresses_[1]};
  ASSERT_TRUE(store_->Put(kEpochRecordKey, rival.Encode()).ok());

  // The active audits the record every heartbeat tick and must abdicate on
  // the name mismatch even though the epoch never moved.
  ASSERT_TRUE(WaitFor([&] { return !managers_[0]->is_active(); }));
}

TEST_F(LeaseHaTest, RacingTakeoverClaimMissesAndFollowsTheWinner) {
  // Replica 1's takeover claim is held at the store until replica 2 has
  // claimed the same epoch over the same record. Released, the held claim
  // must miss: one owner per epoch, and the loser follows the winner.
  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool release = false;
  bool returned = false;
  Status held_status;
  hooks_->SetHook([&](const EpochRecord& rec,
                      const EpochWriteHookStore::Write& write) -> Status {
    {
      std::unique_lock lock(mu);
      if (rec.active != addresses_[1] || held) {
        lock.unlock();
        return write();
      }
      held = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    Status st = write();
    {
      std::lock_guard lock(mu);
      held_status = st;
      returned = true;
    }
    cv.notify_all();
    return st;
  });
  OnExit unblock{[&] {
    {
      std::lock_guard lock(mu);
      release = true;
    }
    cv.notify_all();
    StopAll();
  }};

  managers_[0]->Stop();
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(3), [&] { return held; }));
  }
  // Replica 2's takeover has returned once its announce reached replica 1.
  ASSERT_TRUE(WaitFor([&] {
    return managers_[2]->is_active() && managers_[1]->epoch() == 2u;
  }));
  EXPECT_EQ(ReadRecord().epoch, 2u);
  EXPECT_EQ(ReadRecord().active, addresses_[2]);

  {
    std::unique_lock lock(mu);
    release = true;
    cv.notify_all();
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(3), [&] { return returned; }));
    EXPECT_EQ(held_status.code(), Errc::kStale) << held_status.ToString();
  }
  const TimePoint until = Now() + Millis(100);
  do {
    ASSERT_EQ(ClaimingActiveCount(), 1);
    ASSERT_TRUE(managers_[2]->is_active());
    SleepFor(Millis(2));
  } while (Now() < until);
  const EpochRecord rec = ReadRecord();
  EXPECT_EQ(rec.epoch, 2u);
  EXPECT_EQ(rec.active, addresses_[2]);
  EXPECT_EQ(managers_[2]->epoch(), 2u);
  EXPECT_EQ(managers_[1]->epoch(), 2u);
  AcquireResponse resp = managers_[1]->Acquire(AcquireRequest{dir_, "c1"});
  EXPECT_EQ(resp.outcome, AcquireOutcome::kNotActive);
  EXPECT_EQ(resp.leader, addresses_[2]);
}

TEST_F(LeaseHaTest, ClaimLandedBehindAnErrorStillEndsWithOneActive) {
  // The first takeover claim lands at the store but its caller sees kIo.
  // The claimant stays standby (it never serves an epoch it does not know
  // it persisted); the group must still end with exactly one active, and
  // never show two.
  std::atomic<bool> faulted{false};
  hooks_->SetHook([&](const EpochRecord&,
                      const EpochWriteHookStore::Write& write) -> Status {
    Status st = write();
    if (st.ok() && !faulted.exchange(true)) {
      return ErrStatus(Errc::kIo, "claim landed, ack lost");
    }
    return st;
  });
  OnExit stop{[&] { StopAll(); }};

  managers_[0]->Stop();
  int most_claiming = 0;
  TimePoint settled{};
  const TimePoint deadline = Now() + Seconds(3);
  while (Now() < deadline) {
    const int claiming = ClaimingActiveCount();
    most_claiming = std::max(most_claiming, claiming);
    if (claiming == 1 && settled == TimePoint{}) settled = Now();
    if (settled != TimePoint{} && Now() > settled + Millis(100)) break;
    SleepFor(Millis(1));
  }
  EXPECT_TRUE(faulted);
  EXPECT_LE(most_claiming, 1);
  ASSERT_EQ(ClaimingActiveCount(), 1);
  const int active = ActiveReplica();
  ASSERT_GT(active, 0);
  const EpochRecord rec = ReadRecord();
  EXPECT_EQ(rec.active, addresses_[static_cast<std::size_t>(active)]);
  EXPECT_EQ(rec.epoch, managers_[static_cast<std::size_t>(active)]->epoch());
  // Epoch 2 is the claim whose ack was lost; the active claimed after it.
  EXPECT_GE(rec.epoch, 3u);
}

TEST(LeaseAmnesiacRestartTest, CrashRestartedActiveResumesUnderNewEpoch) {
  // A crashed active comes back as a FRESH process over the same store while
  // the epoch record still names it. It must not resume at the recorded
  // epoch with a reset grant counter — that would re-mint the tokens its
  // previous life granted — but bump the epoch and serve a quiet period,
  // exactly like Stop() + Start(). Single-replica group: no heartbeat
  // thread, so the test is deterministic.
  auto fabric = std::make_shared<rpc::Fabric>(sim::NetworkProfile::Instant());
  auto store = std::make_shared<MemoryObjectStore>();
  LeaseManagerConfig config = LeaseManagerConfig::ForTests();
  config.self_address = "lease-manager-0";
  config.group = {"lease-manager-0"};

  auto manager = std::make_unique<LeaseManager>(fabric, store, config);
  ASSERT_TRUE(manager->Start().ok());
  ASSERT_TRUE(manager->is_active());
  EXPECT_EQ(manager->epoch(), 1u);

  LeaseClient::Options options;
  options.wait_budget = Seconds(2);
  options.initial_backoff = Millis(2);
  options.managers = {config.self_address};
  LeaseClient c1(fabric, "c1", options);
  const Uuid dir = DeterministicUuid(2, 2);
  auto old_grant = GrantOf(c1.Acquire(dir));
  ASSERT_TRUE(old_grant);
  EXPECT_EQ(old_grant->token.epoch, 1u);

  // Hard crash: destroy the process's state, start a fresh manager.
  manager->Stop();
  manager = std::make_unique<LeaseManager>(fabric, store, config);
  ASSERT_TRUE(manager->Start().ok());
  EXPECT_TRUE(manager->is_active());
  EXPECT_EQ(manager->epoch(), 2u);

  // The bumped epoch is persisted, fencing the previous life durably.
  auto rec = EpochRecord::Decode(*store->Get(kEpochRecordKey));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->epoch, 2u);

  // Quiet period first: c1's pre-crash lease may still be live.
  LeaseClient::Options tight;
  tight.wait_budget = Millis(20);
  tight.initial_backoff = Millis(5);
  tight.managers = {config.self_address};
  LeaseClient c2(fabric, "c2", tight);
  EXPECT_EQ(c2.Acquire(dir).code(), Errc::kBusy);

  // Once the quiet period drains, the new tenure's grants strictly dominate
  // every pre-crash token — never equal one.
  auto new_grant = GrantOf(c1.Acquire(dir));
  ASSERT_TRUE(new_grant);
  EXPECT_EQ(new_grant->token.epoch, 2u);
  EXPECT_TRUE(old_grant->token < new_grant->token);
  manager->Stop();
}

TEST(LeaseDeposedRestartTest, RestartWhileDeposedDoesNotClobberSuccessor) {
  // A deposed-but-unaware active that restarts (Stop() + Start()) must
  // notice the successor in the epoch record and rejoin as a standby instead
  // of clobbering the record and seizing activeness outside the takeover
  // protocol. Single-replica group: no heartbeat/audit thread, so the
  // manager still believes it is active when it stops.
  auto fabric = std::make_shared<rpc::Fabric>(sim::NetworkProfile::Instant());
  auto store = std::make_shared<MemoryObjectStore>();
  LeaseManagerConfig config = LeaseManagerConfig::ForTests();
  config.self_address = "lease-manager-0";
  config.group = {"lease-manager-0"};

  LeaseManager manager(fabric, store, config);
  ASSERT_TRUE(manager.Start().ok());
  ASSERT_TRUE(manager.is_active());

  // Behind its back, a successor moved the record on.
  const EpochRecord successor{5, "lease-manager-1"};
  ASSERT_TRUE(store->Put(kEpochRecordKey, successor.Encode()).ok());

  manager.Stop();
  ASSERT_TRUE(manager.Start().ok());
  EXPECT_FALSE(manager.is_active());
  EXPECT_EQ(manager.epoch(), 5u);

  auto rec = EpochRecord::Decode(*store->Get(kEpochRecordKey));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->epoch, 5u);
  EXPECT_EQ(rec->active, "lease-manager-1");
  manager.Stop();
}

TEST_F(LeaseHaTest, ReleaseFromDeposedLeaderIgnored) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto old_grant = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(old_grant);

  managers_[0]->Stop();
  ASSERT_TRUE(WaitFor([&] { return ActiveReplica() > 0; }));

  // Successor takes the directory under the new epoch.
  auto new_grant = GrantOf(c2.Acquire(dir_));
  ASSERT_TRUE(new_grant);
  EXPECT_EQ(new_grant->token.epoch, 2u);

  // The deposed leader's release arrives late. Its token no longer matches
  // the live lease, so it must not evict the successor.
  ASSERT_TRUE(c1.Release(dir_, old_grant->token).ok());
  auto probe = RedirectOf(MakeClient("probe").Acquire(dir_));
  ASSERT_TRUE(probe);
  EXPECT_EQ(probe->leader, "c2");
}

TEST_F(LeaseHaTest, LateReleaseAfterReacquireBySameClientIgnored) {
  auto c1 = MakeClient("c1");
  auto first = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(first);
  SleepFor(config_.lease_period + Millis(50));

  // Same client, new tenure: a fresh fencing token.
  auto second = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(second);
  EXPECT_TRUE(first->token < second->token);

  // A delayed release from the first tenure must not kill the second.
  ASSERT_TRUE(c1.Release(dir_, first->token).ok());
  auto probe = MakeClient("probe");
  auto redirected = RedirectOf(probe.Acquire(dir_));
  ASSERT_TRUE(redirected);
  EXPECT_EQ(redirected->leader, "c1");

  // The live token does release it: no one leads, so the probe is granted.
  ASSERT_TRUE(c1.Release(dir_, second->token).ok());
  auto granted = GrantOf(probe.Acquire(dir_));
  ASSERT_TRUE(granted);
  EXPECT_EQ(granted->prev_leader, "c1");
}

TEST_F(LeaseHaTest, DoubleAcquireAcrossExpiryLeavesOneLiveLease) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto g1 = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(g1);
  SleepFor(config_.lease_period + Millis(50));

  auto g2 = GrantOf(c2.Acquire(dir_));
  ASSERT_TRUE(g2);
  EXPECT_TRUE(g1->token < g2->token);

  // The original holder's extension attempt is a redirect, not a grant:
  // exactly one live lease exists.
  auto denied = RedirectOf(c1.Acquire(dir_));
  ASSERT_TRUE(denied);
  EXPECT_EQ(denied->leader, "c2");
  EXPECT_EQ(managers_[0]->ActiveLeaseCount(), 1u);
}

TEST_F(LeaseHaTest, RevivedReplicaRejoinsAsStandby) {
  managers_[0]->Stop();
  ASSERT_TRUE(WaitFor([&] { return ActiveReplica() > 0; }));
  const int active = ActiveReplica();

  ASSERT_TRUE(managers_[0]->Start().ok());
  // The epoch moved on while replica 0 was down: it must come back standby.
  EXPECT_FALSE(managers_[0]->is_active());
  EXPECT_GE(managers_[0]->epoch(), 2u);
  EXPECT_EQ(ActiveReplica(), active);
  EXPECT_EQ(ClaimingActiveCount(), 1);
}

// Satellite regression: a transient manager blip (dropped packets, brief
// partition) must be absorbed by the transport retry policy instead of
// surfacing kTimedOut from one flaky RPC. Uses a single-replica manager so
// no failover machinery can mask the retry path under test.
TEST(LeaseFlakyFabricTest, AcquireRidesOutManagerBlip) {
  auto fabric = std::make_shared<rpc::Fabric>(sim::NetworkProfile::Instant());
  LeaseManager manager(fabric, std::make_shared<MemoryObjectStore>(),
                       LeaseManagerConfig::ForTests());
  ASSERT_TRUE(manager.Start().ok());

  LeaseClient::Options options;
  options.wait_budget = Millis(500);
  options.initial_backoff = Millis(1);
  options.rpc_retry.max_attempts = 30;
  options.rpc_retry.initial_backoff = Millis(1);
  options.rpc_retry.max_backoff = Millis(5);
  options.rpc_retry.deadline = Millis(500);
  LeaseClient c1(fabric, "c1", options);

  fabric->SetUnreachable(kManagerAddress, true);
  std::thread healer([&] {
    SleepFor(Millis(25));
    fabric->SetUnreachable(kManagerAddress, false);
  });
  auto answer = c1.Acquire(DeterministicUuid(5, 5));
  healer.join();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  auto grant = GrantOf(answer);
  ASSERT_TRUE(grant);
  EXPECT_TRUE(grant->token.valid());
  manager.Stop();
}

}  // namespace
}  // namespace arkfs::lease
