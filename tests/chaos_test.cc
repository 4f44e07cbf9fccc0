// Chaos suite: end-to-end fault-injection workloads over the retry/backoff
// store stack (ISSUE: survive flaky and dead storage nodes).
//
// Two lanes, both in this binary (ctest label "chaos"):
//  * deterministic lane — every test below with a hardcoded seed, so a
//    failure reproduces exactly;
//  * randomized lane — RandomizedSeedSweep picks a fresh seed per run (or
//    honours ARKFS_CHAOS_SEED=<n>) and ALWAYS logs it, so any failure can be
//    replayed with the printed seed.
//
// The invariant every workload asserts: zero lost acked ops. An op counts
// as acked only once fsync (journal commit + data writeback) returned kOk;
// acked state must survive transient faults, torn writes, and rolling node
// outages. Un-acked ops may vanish — that is the contract fsync gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/env_config.h"
#include "core/cluster.h"
#include "journal/record.h"
#include "obs/metrics.h"
#include "objstore/async_io.h"
#include "objstore/chaos_store.h"
#include "objstore/cluster_store.h"
#include "objstore/memory_store.h"
#include "objstore/retrying_store.h"
#include "objstore/stack_builder.h"

namespace arkfs {
namespace {

Bytes Payload(int i, std::size_t n = 512) {
  Bytes b(n);
  for (std::size_t j = 0; j < n; ++j) {
    b[j] = static_cast<std::uint8_t>((j * 31 + i * 7) & 0xFF);
  }
  return b;
}

// --- ChaosStore's scripted hook must intercept every primitive ---

TEST(FaultInjectionCoverage, EveryPrimitiveReachesTheHookWithItsOwnName) {
  auto base = std::make_shared<MemoryObjectStore>();
  std::vector<std::string> seen;
  ChaosStore* self = nullptr;
  auto faulty = std::make_shared<ChaosStore>(
      base, ChaosConfig{}, [&](std::string_view op, const std::string&) {
        seen.emplace_back(op);
        // The hook runs without the store's mutex held: re-entering the
        // store from it must not deadlock.
        self->ClearPersistentFault("none");
        return Errc::kOk;
      });
  self = faulty.get();
  ASSERT_TRUE(faulty->Put("k", Bytes(16, 1)).ok());
  ASSERT_TRUE(faulty->PutRange("k", 4, Bytes(4, 2)).ok());
  ASSERT_TRUE(faulty->Get("k").ok());
  ASSERT_TRUE(faulty->GetRange("k", 0, 8).ok());
  ASSERT_TRUE(faulty->Head("k").ok());
  ASSERT_TRUE(faulty->List("").ok());
  ASSERT_TRUE(faulty->Delete("k").ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"put", "putrange", "get",
                                            "getrange", "head", "list",
                                            "delete"}));
}

// --- retry engine semantics ---

TEST(RetryStoreTest, RidesOutTransientFaults) {
  auto chaos = std::make_shared<ChaosStore>(
      std::make_shared<MemoryObjectStore>(), ChaosConfig::Flaky(101, 20.0));
  obs::MetricsRegistry registry;
  RetryingStore store(chaos, RetryPolicy::ForTests(), &registry);

  for (int i = 0; i < 200; ++i) {
    const std::string key = "o" + std::to_string(i);
    ASSERT_TRUE(store.Put(key, Payload(i)).ok()) << key;
  }
  for (int i = 0; i < 200; ++i) {
    auto got = store.Get("o" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, Payload(i));
  }
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.counter("objstore.retry.retries"), 0u);  // chaos actually hit
  EXPECT_EQ(snap.counter("objstore.retry.giveups"), 0u);  // cap never hit
  EXPECT_GT(chaos->counters().transient_faults, 0u);
}

TEST(RetryStoreTest, SemanticErrorsAreNotRetried) {
  auto chaos = std::make_shared<ChaosStore>(
      std::make_shared<MemoryObjectStore>(), ChaosConfig{.seed = 5});
  obs::MetricsRegistry registry;
  RetryingStore store(chaos, RetryPolicy::ForTests(), &registry);

  // kNoEnt is an answer, not a fault: exactly one attempt.
  EXPECT_EQ(store.Get("missing").code(), Errc::kNoEnt);
  EXPECT_EQ(registry.Snapshot().counter("objstore.retry.attempts"), 1u);
  EXPECT_EQ(registry.Snapshot().counter("objstore.retry.retries"), 0u);
}

TEST(RetryStoreTest, PersistentFaultExhaustsTheAttemptCap) {
  auto chaos = std::make_shared<ChaosStore>(
      std::make_shared<MemoryObjectStore>(), ChaosConfig{.seed = 6});
  chaos->AddPersistentFault("dead", Errc::kIo);
  RetryPolicy policy = RetryPolicy::ForTests();
  obs::MetricsRegistry registry;
  RetryingStore store(chaos, policy, &registry);

  EXPECT_EQ(store.Get("dead").code(), Errc::kIo);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("objstore.retry.attempts"),
            static_cast<std::uint64_t>(policy.max_attempts));
  EXPECT_EQ(snap.counter("objstore.retry.giveups"), 1u);

  // A dead object that comes back is served again (with retries intact).
  chaos->ClearPersistentFault("dead");
  ASSERT_TRUE(store.Put("dead", Payload(1)).ok());
  EXPECT_TRUE(store.Get("dead").ok());
}

TEST(RetryStoreTest, DeadlineCutsRetriesShort) {
  auto chaos = std::make_shared<ChaosStore>(
      std::make_shared<MemoryObjectStore>(), ChaosConfig{.seed = 7});
  chaos->AddPersistentFault("dead", Errc::kTimedOut);
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff = Millis(5);
  policy.deadline = Millis(20);
  obs::MetricsRegistry registry;
  RetryingStore store(chaos, policy, &registry);

  EXPECT_EQ(store.Get("dead").code(), Errc::kTimedOut);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("objstore.retry.deadline_hits"), 1u);
  // Nowhere near the attempt cap.
  EXPECT_LT(snap.counter("objstore.retry.attempts"), 16u);
}

TEST(ChaosStoreTest, TornPutLeavesStrictPrefixAndFails) {
  auto base = std::make_shared<MemoryObjectStore>();
  ChaosConfig cfg;
  cfg.seed = 11;
  cfg.torn_put_rate = 1.0;
  ChaosStore chaos(base, cfg);

  EXPECT_EQ(chaos.Put("t", Payload(0, 256)).code(), Errc::kIo);
  EXPECT_GE(chaos.counters().torn_puts, 1u);
  auto landed = base->Get("t");
  if (landed.ok()) {
    EXPECT_LT(landed->size(), 256u);  // strict prefix, never the full object
  }
  // Idempotent full rewrite repairs the tear — what RetryingStore relies on.
  ChaosConfig clean;
  clean.seed = 11;
  ChaosStore healed(base, clean);
  ASSERT_TRUE(healed.Put("t", Payload(0, 256)).ok());
  EXPECT_EQ(*base->Get("t"), Payload(0, 256));
}

TEST(ChaosStoreTest, TornGuardedPutKeepsItsGuardMatchable) {
  auto base = std::make_shared<MemoryObjectStore>();
  ChaosConfig cfg;
  cfg.seed = 12;
  cfg.torn_put_rate = 1.0;
  ChaosStore chaos(base, cfg);
  // A create-only or whole-object guard could never match again once
  // torn, so those writes land whole even at a certain tear rate.
  ASSERT_TRUE(chaos.PutIf("c", Payload(0, 64), WriteGuard::Absent()).ok());
  EXPECT_EQ(*base->Get("c"), Payload(0, 64));
  const Bytes all = Payload(0, 64);
  ASSERT_TRUE(chaos.PutIf("c", Payload(1, 64), WriteGuard{0, all, true}).ok());
  EXPECT_EQ(*base->Get("c"), Payload(1, 64));
  EXPECT_EQ(chaos.counters().torn_puts, 0u);
  // A compare-extent guard tears only behind its extent.
  const Bytes next = Payload(1, 64);
  const Bytes extent(next.begin(), next.begin() + 8);
  Bytes data = extent;
  data.resize(64, 7);
  EXPECT_EQ(chaos.PutIf("c", data, WriteGuard{0, extent}).code(), Errc::kIo);
  EXPECT_EQ(chaos.counters().torn_puts, 1u);
  const Bytes landed = *base->Get("c");
  ASSERT_GE(landed.size(), 8u);
  EXPECT_LT(landed.size(), 64u);
  EXPECT_TRUE(std::equal(extent.begin(), extent.end(), landed.begin()));
}

TEST(ChaosStoreTest, TornJournalTailNeverCommits) {
  // The journal's CRC framing is the defence against torn appends: a torn
  // tail parses as "those bytes never committed", earlier txns stay intact.
  journal::Transaction t1;
  t1.seq = 1;
  t1.records.push_back(journal::Record::DirRemove(DeterministicUuid(1, 1)));
  journal::Transaction t2;
  t2.seq = 2;
  t2.records.push_back(journal::Record::DirRemove(DeterministicUuid(2, 2)));
  Bytes full = journal::EncodeTransaction(t1);
  const Bytes second = journal::EncodeTransaction(t2);
  full.insert(full.end(), second.begin(), second.end());

  Bytes torn(full.begin(), full.end() - static_cast<long>(second.size() / 2));
  const auto parsed = journal::ParseJournal(torn);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].seq, 1u);
}

// --- async batched path with retries ---

TEST(AsyncIoRetryTest, BatchesRideOutTransientFaults) {
  // Batches run over the retrying store stack: each primitive of a batch is
  // retried by RetryingStore, the one retry mechanism for store calls.
  auto chaos = std::make_shared<ChaosStore>(
      std::make_shared<MemoryObjectStore>(), ChaosConfig::Flaky(21, 20.0));
  obs::MetricsRegistry registry;
  auto retrying = std::make_shared<RetryingStore>(
      chaos, RetryPolicy::ForTests(), &registry);
  AsyncIoConfig cfg = AsyncIoConfig::ForTests();
  cfg.metrics = &registry;
  AsyncObjectIo io(retrying, cfg);

  std::vector<Bytes> payloads;
  std::vector<BatchPut> puts;
  for (int i = 0; i < 64; ++i) {
    payloads.push_back(Payload(i));
  }
  for (int i = 0; i < 64; ++i) {
    puts.push_back({"b" + std::to_string(i), payloads[i]});
  }
  auto put_result = io.MultiPut(std::move(puts));
  ASSERT_TRUE(put_result.status.ok()) << put_result.status.ToString();

  std::vector<BatchGet> gets;
  for (int i = 0; i < 64; ++i) {
    gets.push_back({"b" + std::to_string(i)});
  }
  auto get_result = io.MultiGet(std::move(gets));
  ASSERT_TRUE(get_result.status.ok()) << get_result.status.ToString();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(*get_result.results[i], Payload(i)) << i;
  }

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.counter("objstore.retry.retries"), 0u);
  EXPECT_EQ(snap.counter("objstore.retry.giveups"), 0u);
  EXPECT_EQ(snap.counter("objstore.retry.deadline_hits"), 0u);
}

// --- satellite regression: journal commit failure must not lose records ---

TEST(JournalFaultTest, FailedFsyncCommitIsRedrivenNotLost) {
  auto base = std::make_shared<MemoryObjectStore>();
  std::atomic<bool> fail_journal_writes{false};
  auto faulty = std::make_shared<ChaosStore>(
      base, ChaosConfig{}, [&](std::string_view op, const std::string& key) {
        return (fail_journal_writes && op.starts_with("put") &&
                !key.empty() && key[0] == 'j')
                   ? Errc::kIo
                   : Errc::kOk;
      });
  auto cluster = ArkFsCluster::Create(faulty, ArkFsClusterOptions::ForTests())
                     .value();
  const UserCred root = UserCred::Root();
  auto c1 = cluster->AddClient("writer").value();

  OpenOptions create;
  create.write = true;
  create.create = true;
  auto fd = c1->Open("/precious", create, root);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(c1->Write(*fd, 0, AsBytes("must-survive")).ok());

  // Journal object writes fail: fsync reports the failure and the create/
  // size records must stay committable, not silently evaporate.
  fail_journal_writes = true;
  EXPECT_FALSE(c1->Fsync(*fd).ok());

  // Store heals; the SAME records commit on the next fsync.
  fail_journal_writes = false;
  ASSERT_TRUE(c1->Fsync(*fd).ok());
  ASSERT_TRUE(c1->Close(*fd).ok());
  c1->CrashHard();

  SleepFor(cluster->lease_manager().config().lease_period + Millis(100));
  auto c2 = cluster->AddClient("recoverer").value();
  auto data = c2->ReadWholeFile("/precious", root);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "must-survive");
}

// --- end-to-end chaos workloads ---

// Runs an mdtest-style create/write/fsync workload over a chaotic store at
// `fault_percent`, returning the paths acked by fsync. Every helper-level
// assert is on the INVARIANT (acked => verifiable), not on op success: under
// chaos individual ops may fail, they just must fail honestly.
std::vector<std::string> RunAckedWorkload(Client& fs, const UserCred& root,
                                          int dirs, int files_per_dir) {
  std::vector<std::string> acked;
  OpenOptions create;
  create.write = true;
  create.create = true;
  for (int d = 0; d < dirs; ++d) {
    const std::string dir = "/chaos" + std::to_string(d);
    if (!fs.MkdirAll(dir, 0755, root).ok()) continue;
    for (int f = 0; f < files_per_dir; ++f) {
      const std::string path = dir + "/f" + std::to_string(f);
      auto fd = fs.Open(path, create, root);
      if (!fd.ok()) continue;
      const bool wrote = fs.Write(*fd, 0, Payload(d * 1000 + f)).ok();
      const bool synced = wrote && fs.Fsync(*fd).ok();
      (void)fs.Close(*fd);
      if (synced) acked.push_back(path);
    }
  }
  return acked;
}

void VerifyAcked(Client& fs, const UserCred& root,
                 const std::vector<std::string>& acked) {
  for (const auto& path : acked) {
    const auto slash = path.find('/', 1);
    const int d = std::stoi(path.substr(6, slash - 6));
    const int f = std::stoi(path.substr(path.rfind('f') + 1));
    auto data = fs.ReadWholeFile(path, root);
    ASSERT_TRUE(data.ok()) << path << ": " << data.status().ToString();
    EXPECT_EQ(*data, Payload(d * 1000 + f)) << path;
  }
}

class ChaosE2eTest : public ::testing::Test {
 protected:
  UserCred root_ = UserCred::Root();
};

TEST_F(ChaosE2eTest, MdtestWorkloadAtFivePercentFaults) {
  obs::MetricsRegistry registry;
  auto stack = objstore::StackBuilder()
                   .Metrics(&registry)
                   .Base(std::make_shared<MemoryObjectStore>())
                   .Chaos(ChaosConfig::Flaky(42, 5.0))
                   .Retrying(RetryPolicy::ForTests())
                   .Build()
                   .value();
  auto cluster =
      ArkFsCluster::Create(stack.store, ArkFsClusterOptions::ForTests())
          .value();
  auto fs = cluster->AddClient().value();

  const auto acked = RunAckedWorkload(*fs, root_, 4, 25);
  // At 5% faults behind an 8-attempt retry stack the workload should
  // complete in full, with real retries absorbed along the way.
  EXPECT_EQ(acked.size(), 100u);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.counter("objstore.retry.retries"), 0u);
  EXPECT_EQ(snap.counter("objstore.retry.giveups"), 0u);
  // Retry overhead stays within budget: ~5% of attempts are re-runs; allow
  // generous slack before calling it runaway.
  EXPECT_LT(snap.counter("objstore.retry.retries"),
            snap.counter("objstore.retry.attempts") / 4);

  ASSERT_TRUE(fs->DropCaches().ok());
  VerifyAcked(*fs, root_, acked);
}

TEST_F(ChaosE2eTest, RollingNodeOutageLosesNoAckedOps) {
  obs::MetricsRegistry registry;
  ClusterConfig cc = ClusterConfig::Instant(4);
  cc.replication = 3;
  cc.metrics = &registry;
  auto nodes = std::make_shared<ClusterObjectStore>(cc);
  auto chaos = std::make_shared<ChaosStore>(nodes, ChaosConfig::Flaky(77, 1.0));
  auto retrying = std::make_shared<RetryingStore>(
      chaos, RetryPolicy::ForTests(), &registry);
  auto cluster =
      ArkFsCluster::Create(retrying, ArkFsClusterOptions::ForTests()).value();
  auto fs = cluster->AddClient().value();

  // Rolling outage: each storage node goes down for 15 ms, twice around the
  // ring, while the workload keeps writing.
  std::atomic<bool> outage_done{false};
  std::thread outages([&] {
    for (int cycle = 0; cycle < 2; ++cycle) {
      for (int node = 0; node < cc.num_nodes; ++node) {
        nodes->SetNodeDown(node, true);
        SleepFor(Millis(15));
        nodes->SetNodeDown(node, false);
        SleepFor(Millis(5));
      }
    }
    outage_done = true;
  });

  std::vector<std::string> acked;
  OpenOptions create;
  create.write = true;
  create.create = true;
  ASSERT_TRUE(fs->MkdirAll("/chaos0", 0755, root_).ok());
  for (int i = 0; !outage_done.load() || i < 20; ++i) {
    const std::string path = "/chaos0/f" + std::to_string(i);
    auto fd = fs->Open(path, create, root_);
    if (!fd.ok()) continue;
    const bool wrote = fs->Write(*fd, 0, Payload(i)).ok();
    const bool synced = wrote && fs->Fsync(*fd).ok();
    (void)fs->Close(*fd);
    if (synced) acked.push_back(path);
  }
  outages.join();

  // The outages must actually have been felt.
  EXPECT_GT(registry.Snapshot().counter("cluster.outage.rejected_ops"), 0u);
  EXPECT_GT(registry.Snapshot().counter("objstore.retry.retries"), 0u);
  ASSERT_FALSE(acked.empty());

  // All nodes healed (missed writes backfilled): every acked file verifies.
  Status drop;
  for (int attempt = 0; attempt < 16 && !(drop = fs->DropCaches()).ok();
       ++attempt) {
  }
  ASSERT_TRUE(drop.ok()) << drop.ToString();
  for (const auto& path : acked) {
    const int i = std::stoi(path.substr(path.rfind('f') + 1));
    auto data = fs->ReadWholeFile(path, root_);
    ASSERT_TRUE(data.ok()) << path << ": " << data.status().ToString();
    EXPECT_EQ(*data, Payload(i)) << path;
  }
}

// --- EC archive tier: cold reads through m simultaneous node outages ---
//
// placement=kEc over eight single-replica nodes: the ONLY redundancy the
// data chunks have is the k=4/m=2 stripe. A chaos layer tears shard puts
// and bit-flips shard reads (scoped to "..ecs" keys — the journal is
// DESIGNED to fail hard on damage, so rotting it would only test the
// wrong layer) while pairs of nodes go down simultaneously and a reader
// sweeps every acked file cold. Invariants:
//  * zero read errors during every 2-node outage window — reconstruct-on-
//    read hides dead nodes and flipped bits;
//  * the degraded machinery demonstrably engaged (ec.degraded_reads > 0);
//  * zero lost acked ops, zero fenced commits (fence_violations == 0).
TEST_F(ChaosE2eTest, EcColdReadsSurviveRollingNodeKills) {
  obs::MetricsRegistry registry;
  ClusterConfig cc = ClusterConfig::Instant(8);
  cc.replication = 1;  // data durability must come from EC, not replication
  cc.metrics = &registry;
  auto nodes = std::make_shared<ClusterObjectStore>(cc);
  ChaosConfig chaos_cfg;
  chaos_cfg.seed = 913;
  chaos_cfg.torn_put_rate = 0.005;
  chaos_cfg.bit_flip_rate = 0.01;
  chaos_cfg.bit_flip_filter = [](const std::string& key) {
    return key.find("..ecs") != std::string::npos;
  };
  auto chaos =
      std::make_shared<ChaosStore>(nodes, chaos_cfg, nullptr, &registry);
  auto retrying = std::make_shared<RetryingStore>(
      chaos, RetryPolicy::ForTests(), &registry);
  ArkFsClusterOptions opts = ArkFsClusterOptions::ForTests();
  opts.placement = DataPlacement::kEc;
  opts.client_template.metrics = &registry;
  auto cluster = ArkFsCluster::Create(retrying, opts).value();
  auto fs = cluster->AddClient("ec-archiver").value();

  // Archive phase (all nodes up): a file counts as acked only once fsync
  // returned kOk — torn shard puts that exhaust retries simply fail the
  // write, they never produce a half-acked stripe.
  ASSERT_TRUE(fs->MkdirAll("/arch", 0755, root_).ok());
  OpenOptions create;
  create.write = true;
  create.create = true;
  std::vector<std::string> acked;
  for (int i = 0; i < 24; ++i) {
    const std::string path = "/arch/f" + std::to_string(i);
    auto fd = fs->Open(path, create, root_);
    if (!fd.ok()) continue;
    const bool wrote = fs->Write(*fd, 0, Payload(i, 2048)).ok();
    const bool synced = wrote && fs->Fsync(*fd).ok();
    (void)fs->Close(*fd);
    if (synced) acked.push_back(path);
  }
  ASSERT_FALSE(acked.empty());
  ASSERT_GT(cluster->ec_store()->counters().encodes, 0u)
      << "data chunks must actually take the EC path";

  // Outage phase: every node dies at least once, always in simultaneous
  // pairs (= m). Caches are dropped while healthy so each window's sweep
  // reads cold through the store.
  const int pairs[][2] = {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {0, 4}, {3, 7}};
  for (const auto& pair : pairs) {
    Status drop;
    for (int attempt = 0; attempt < 16 && !(drop = fs->DropCaches()).ok();
         ++attempt) {
    }
    ASSERT_TRUE(drop.ok()) << drop.ToString();
    nodes->SetNodeDown(pair[0], true);
    nodes->SetNodeDown(pair[1], true);
    for (const auto& path : acked) {
      const int i = std::stoi(path.substr(path.rfind('f') + 1));
      auto data = fs->ReadWholeFile(path, root_);
      ASSERT_TRUE(data.ok()) << path << " with nodes " << pair[0] << ","
                             << pair[1]
                             << " down: " << data.status().ToString();
      EXPECT_EQ(*data, Payload(i, 2048)) << path;
    }
    nodes->SetNodeDown(pair[0], false);
    nodes->SetNodeDown(pair[1], false);
  }

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.counter("ec.degraded_reads"), 0u)
      << "outages never exercised the reconstruct path";
  EXPECT_GT(cluster->ec_store()->counters().degraded_reads, 0u);
  for (const auto& client : cluster->clients()) {
    EXPECT_EQ(client->journal_metrics().fence_violations.value(), 0u);
  }
}

// --- lease-manager HA: rolling kills of the active replica ---
//
// Three lease-manager replicas; a seeded killer repeatedly crashes whichever
// replica is currently active mid create/fsync burst, waits for a standby to
// take over (epoch bump + quiet period), then revives the old active so it
// rejoins as a standby. Invariants:
//  * zero lost acked ops — fsync'd files survive every failover;
//  * at most one replica claims active at any sampled instant;
//  * no client ever commits under a deposed epoch (fence_violations == 0).
TEST_F(ChaosE2eTest, ManagerFailoverRollingKillsLoseNoAckedOps) {
  const std::uint64_t seed =
      env::EnvConfig::FromEnvironment().chaos_seed().value_or(
          std::random_device{}());
  std::cerr << "[chaos] ARKFS_CHAOS_SEED=" << seed
            << " (re-run with this env var to reproduce)\n";
  RecordProperty("chaos_seed", std::to_string(seed));

  ArkFsClusterOptions opts = ArkFsClusterOptions::ForTests();
  opts.lease_replicas = 3;
  auto cluster =
      ArkFsCluster::Create(std::make_shared<MemoryObjectStore>(), opts)
          .value();
  auto fs = cluster->AddClient("survivor").value();
  const Nanos lease = cluster->lease_manager().config().lease_period;

  std::atomic<bool> chaos_done{false};
  std::atomic<int> max_claiming{0};
  std::thread monitor([&] {
    while (!chaos_done.load()) {
      const int n = cluster->ActiveLeaseReplicaCount();
      int prev = max_claiming.load();
      while (n > prev && !max_claiming.compare_exchange_weak(prev, n)) {
      }
      SleepFor(Millis(2));
    }
  });

  std::atomic<int> kills{0};
  std::thread killer([&] {
    std::mt19937_64 rng(seed);
    for (int round = 0; round < 3; ++round) {
      SleepFor(Millis(20 + static_cast<int>(rng() % 80)));
      const int active = cluster->ActiveLeaseReplica();
      if (active < 0) continue;  // mid-failover already; skip this round
      (void)cluster->KillLeaseReplica(active);
      ++kills;
      // Wait for a successor, then let its quiet period plus a little
      // serving time elapse before reviving the old active.
      const TimePoint deadline = Now() + Seconds(3);
      while (cluster->ActiveLeaseReplica() < 0 && Now() < deadline) {
        SleepFor(Millis(5));
      }
      SleepFor(lease + Millis(50));
      (void)cluster->ReviveLeaseReplica(active);
    }
    chaos_done = true;
  });

  std::vector<std::string> acked;
  OpenOptions create;
  create.write = true;
  create.create = true;
  ASSERT_TRUE(fs->MkdirAll("/chaos0", 0755, root_).ok());
  for (int i = 0; !chaos_done.load() || i < 30; ++i) {
    const std::string path = "/chaos0/f" + std::to_string(i);
    auto fd = fs->Open(path, create, root_);
    if (!fd.ok()) continue;
    const bool wrote = fs->Write(*fd, 0, Payload(i)).ok();
    const bool synced = wrote && fs->Fsync(*fd).ok();
    (void)fs->Close(*fd);
    if (synced) acked.push_back(path);
  }
  killer.join();
  monitor.join();

  EXPECT_GE(kills.load(), 1) << "seed " << seed;
  EXPECT_LE(max_claiming.load(), 1) << "double leader; seed " << seed;
  ASSERT_FALSE(acked.empty()) << "seed " << seed;

  Status drop;
  for (int attempt = 0; attempt < 16 && !(drop = fs->DropCaches()).ok();
       ++attempt) {
    SleepFor(Millis(20));
  }
  ASSERT_TRUE(drop.ok()) << drop.ToString() << "; seed " << seed;
  for (const auto& path : acked) {
    const int i = std::stoi(path.substr(path.rfind('f') + 1));
    auto data = fs->ReadWholeFile(path, root_);
    ASSERT_TRUE(data.ok())
        << path << ": " << data.status().ToString() << "; seed " << seed;
    EXPECT_EQ(*data, Payload(i)) << path << "; seed " << seed;
  }
  for (const auto& client : cluster->clients()) {
    EXPECT_EQ(client->journal_metrics().fence_violations.value(), 0u)
        << "deposed-epoch commit reached the store; seed " << seed;
  }
}

// Group-commit durability boundary under rolling lease-manager kills
// (DESIGN.md §4.7): with ack-on-sequence journaling and a deliberately
// tight dirty window, every fsync-acked op must survive the churn — fsync
// is the forced drain, so its ack is a durability promise even though plain
// creates ack before their frames hit the store. Zero fence violations, as
// in the async variant.
TEST_F(ChaosE2eTest, GroupCommitRollingKillsLoseNoAckedDurableOps) {
  const std::uint64_t seed =
      env::EnvConfig::FromEnvironment().chaos_seed().value_or(
          std::random_device{}());
  std::cerr << "[chaos] ARKFS_CHAOS_SEED=" << seed
            << " (re-run with this env var to reproduce)\n";
  RecordProperty("chaos_seed", std::to_string(seed));

  ArkFsClusterOptions opts = ArkFsClusterOptions::ForTests();
  opts.lease_replicas = 3;
  opts.client_template.journal.durability = journal::DurabilityMode::kGroup;
  // Tight window: force frequent flusher round-trips (and the occasional
  // backpressure stall) instead of one giant batch, so kills land between
  // flushes with high probability.
  opts.client_template.journal.group_window.max_records = 64;
  opts.client_template.journal.group_window.max_age = Millis(20);
  auto cluster =
      ArkFsCluster::Create(std::make_shared<MemoryObjectStore>(), opts)
          .value();
  auto fs = cluster->AddClient("survivor").value();
  const Nanos lease = cluster->lease_manager().config().lease_period;

  std::atomic<bool> chaos_done{false};
  std::atomic<int> kills{0};
  std::thread killer([&] {
    std::mt19937_64 rng(seed);
    for (int round = 0; round < 3; ++round) {
      SleepFor(Millis(20 + static_cast<int>(rng() % 80)));
      const int active = cluster->ActiveLeaseReplica();
      if (active < 0) continue;
      (void)cluster->KillLeaseReplica(active);
      ++kills;
      const TimePoint deadline = Now() + Seconds(3);
      while (cluster->ActiveLeaseReplica() < 0 && Now() < deadline) {
        SleepFor(Millis(5));
      }
      SleepFor(lease + Millis(50));
      (void)cluster->ReviveLeaseReplica(active);
    }
    chaos_done = true;
  });

  std::vector<std::string> acked_durable;
  OpenOptions create;
  create.write = true;
  create.create = true;
  ASSERT_TRUE(fs->MkdirAll("/gchaos", 0755, root_).ok());
  for (int i = 0; !chaos_done.load() || i < 30; ++i) {
    const std::string path = "/gchaos/f" + std::to_string(i);
    auto fd = fs->Open(path, create, root_);
    if (!fd.ok()) continue;
    const bool wrote = fs->Write(*fd, 0, Payload(i)).ok();
    // Fsync = CommitDir = the synchronous drain of the group window for
    // this directory. Only after it acks does the op enter the must-survive
    // set; group-acked-but-unsynced creates are allowed to die with a
    // deposition.
    const bool synced = wrote && fs->Fsync(*fd).ok();
    (void)fs->Close(*fd);
    if (synced) acked_durable.push_back(path);
  }
  killer.join();

  EXPECT_GE(kills.load(), 1) << "seed " << seed;
  ASSERT_FALSE(acked_durable.empty()) << "seed " << seed;

  Status drop;
  for (int attempt = 0; attempt < 16 && !(drop = fs->DropCaches()).ok();
       ++attempt) {
    SleepFor(Millis(20));
  }
  ASSERT_TRUE(drop.ok()) << drop.ToString() << "; seed " << seed;
  for (const auto& path : acked_durable) {
    const int i = std::stoi(path.substr(path.rfind('f') + 1));
    auto data = fs->ReadWholeFile(path, root_);
    ASSERT_TRUE(data.ok())
        << path << ": " << data.status().ToString() << "; seed " << seed;
    EXPECT_EQ(*data, Payload(i)) << path << "; seed " << seed;
  }
  // The pipeline actually ran in group mode (flusher did the work), and no
  // deposed-epoch frame ever reached the store.
  EXPECT_GT(fs->journal_metrics().group_flushes.value() +
                fs->journal_metrics().group_drains.value(),
            0u)
      << "seed " << seed;
  for (const auto& client : cluster->clients()) {
    EXPECT_EQ(client->journal_metrics().fence_violations.value(), 0u)
        << "deposed-epoch commit reached the store; seed " << seed;
  }
}

// --- lease-manager HA under read delegations ---
//
// A writer streams creates into one hot directory while a reader serves
// stat/readdir from a delegated metatable slice and a seeded killer rolls
// the active lease-manager replica. Invariants (DESIGN.md §4.5):
//  * staleness bound — no read ever reflects state older than one lease
//    term behind what had been acked at read time, across every failover;
//  * monotonicity — a delegate never travels back in time: once it has
//    observed N entries, no later read returns fewer (watermarks only
//    advance, and a slice behind the observed watermark refetches);
//  * fencing — zero deposed-epoch commits, exactly as without delegations.
TEST_F(ChaosE2eTest, DelegatedReadsStayInWatermarkBoundAcrossFailover) {
  const std::uint64_t seed =
      env::EnvConfig::FromEnvironment().chaos_seed().value_or(
          std::random_device{}());
  std::cerr << "[chaos] ARKFS_CHAOS_SEED=" << seed
            << " (re-run with this env var to reproduce)\n";
  RecordProperty("chaos_seed", std::to_string(seed));

  ArkFsClusterOptions opts = ArkFsClusterOptions::ForTests();
  opts.lease_replicas = 3;
  auto cluster =
      ArkFsCluster::Create(std::make_shared<MemoryObjectStore>(), opts)
          .value();
  auto writer = cluster->AddClient("writer").value();
  auto reader = cluster->AddClient("reader").value();
  const Nanos lease = cluster->lease_manager().config().lease_period;

  // Warm phase: the writer owns /hotd, the reader's stats land in the
  // delegated slice before any chaos starts.
  ASSERT_TRUE(writer->MkdirAll("/hotd", 0755, root_).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer
                    ->WriteFileAt("/hotd/f" + std::to_string(i), Payload(i),
                                  root_)
                    .ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(reader->Stat("/hotd/f" + std::to_string(i), root_).ok());
  }
  EXPECT_GT(reader->stats().stat_delegated, 0u) << "seed " << seed;

  // Acked-visibility log: (time the create was acked, entries visible from
  // then on). The reader checks every readdir against it.
  std::mutex log_mu;
  std::vector<std::pair<TimePoint, int>> acked_log;
  acked_log.emplace_back(Now(), 10);

  std::atomic<bool> chaos_done{false};
  std::atomic<int> kills{0};
  std::thread killer([&] {
    std::mt19937_64 rng(seed);
    for (int round = 0; round < 3; ++round) {
      SleepFor(Millis(20 + static_cast<int>(rng() % 80)));
      const int active = cluster->ActiveLeaseReplica();
      if (active < 0) continue;
      (void)cluster->KillLeaseReplica(active);
      ++kills;
      const TimePoint deadline = Now() + Seconds(3);
      while (cluster->ActiveLeaseReplica() < 0 && Now() < deadline) {
        SleepFor(Millis(5));
      }
      SleepFor(lease + Millis(50));
      (void)cluster->ReviveLeaseReplica(active);
    }
    chaos_done = true;
  });

  std::atomic<int> monotonic_violations{0};
  std::atomic<int> bound_violations{0};
  std::atomic<int> reads_done{0};
  std::thread read_loop([&] {
    // Slack on top of the one-lease-term bound for scheduling jitter
    // between "mutation acked" and "read issued".
    const Nanos slack = Millis(150);
    int watermark_floor = 0;  // most entries this reader has ever observed
    while (!chaos_done.load()) {
      const TimePoint t0 = Now();
      auto entries = reader->ReadDir("/hotd", root_);
      if (entries.ok()) {
        const int n = static_cast<int>(entries->size());
        int floor_at_t0 = 0;
        {
          std::lock_guard lock(log_mu);
          for (auto it = acked_log.rbegin(); it != acked_log.rend(); ++it) {
            if (it->first + lease + slack <= t0) {
              floor_at_t0 = it->second;
              break;
            }
          }
        }
        if (n < watermark_floor) ++monotonic_violations;
        if (n < floor_at_t0) ++bound_violations;
        watermark_floor = std::max(watermark_floor, n);
        ++reads_done;
      }
      for (int k = 0; k < 3; ++k) {
        (void)reader->Stat("/hotd/f" + std::to_string(k), root_);
      }
      SleepFor(Millis(1));
    }
  });

  int created = 10;
  OpenOptions create;
  create.write = true;
  create.create = true;
  for (int i = 10; !chaos_done.load() || i < 40; ++i) {
    const std::string path = "/hotd/f" + std::to_string(i);
    auto fd = writer->Open(path, create, root_);
    if (!fd.ok()) continue;
    // Visible to every other client from this ack on (the leader serves
    // creates from its metatable before any checkpoint).
    {
      std::lock_guard lock(log_mu);
      acked_log.emplace_back(Now(), ++created);
    }
    (void)writer->Write(*fd, 0, Payload(i));
    (void)writer->Fsync(*fd);
    (void)writer->Close(*fd);
  }
  killer.join();
  read_loop.join();

  EXPECT_GE(kills.load(), 1) << "seed " << seed;
  EXPECT_GT(reads_done.load(), 0) << "seed " << seed;
  EXPECT_EQ(monotonic_violations.load(), 0)
      << "a delegated read travelled back in time; seed " << seed;
  EXPECT_EQ(bound_violations.load(), 0)
      << "read older than one lease term behind acked state; seed " << seed;
  for (const auto& client : cluster->clients()) {
    EXPECT_EQ(client->journal_metrics().fence_violations.value(), 0u)
        << "deposed-epoch commit reached the store; seed " << seed;
  }
}

// --- randomized lane ---
//
// Picks (and ALWAYS logs) a fresh seed, or honours ARKFS_CHAOS_SEED for
// replay: ARKFS_CHAOS_SEED=12345 ctest -L chaos -R RandomizedSeedSweep

TEST_F(ChaosE2eTest, RandomizedSeedSweep) {
  const std::uint64_t seed =
      env::EnvConfig::FromEnvironment().chaos_seed().value_or(
          std::random_device{}());
  std::cerr << "[chaos] ARKFS_CHAOS_SEED=" << seed
            << " (re-run with this env var to reproduce)\n";
  RecordProperty("chaos_seed", std::to_string(seed));

  auto chaos = std::make_shared<ChaosStore>(
      std::make_shared<MemoryObjectStore>(), ChaosConfig::Flaky(seed, 3.0));
  obs::MetricsRegistry registry;
  auto retrying = std::make_shared<RetryingStore>(
      chaos, RetryPolicy::ForTests(), &registry);
  auto cluster =
      ArkFsCluster::Create(retrying, ArkFsClusterOptions::ForTests()).value();
  auto fs = cluster->AddClient().value();

  const auto acked = RunAckedWorkload(*fs, root_, 2, 20);
  ASSERT_FALSE(acked.empty()) << "seed " << seed;
  ASSERT_TRUE(fs->DropCaches().ok()) << "seed " << seed;
  VerifyAcked(*fs, root_, acked);
  EXPECT_EQ(registry.Snapshot().counter("objstore.retry.giveups"), 0u)
      << "seed " << seed;
}

}  // namespace
}  // namespace arkfs
