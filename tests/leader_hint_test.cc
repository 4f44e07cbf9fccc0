// Leader-hint tests: a client that learned from a lease redirect who leads a
// directory routes its ops straight to that leader until the redirect's
// lease expiry, without asking the lease manager again (DESIGN.md §4.4).
// The leader still checks its own lease on every op, so a stale hint costs
// one round trip and never a wrong answer.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/cluster.h"
#include "objstore/memory_store.h"

namespace arkfs {
namespace {

class LeaderHintTest : public ::testing::Test {
 protected:
  // c1 leads /hot (seeded with `files` small files); the root is led by c0,
  // so nothing c1 does moves the root's leadership.
  void StartCluster(
      Nanos lease_period, int files = 2,
      ArkFsClusterOptions opts = ArkFsClusterOptions::ForTests()) {
    opts.lease.lease_period = lease_period;
    cluster_ = ArkFsCluster::Create(std::make_shared<MemoryObjectStore>(),
                                    std::move(opts))
                   .value();
    c0_ = cluster_->AddClient("c0").value();
    c1_ = cluster_->AddClient("c1").value();
    c2_ = cluster_->AddClient("c2").value();
    ASSERT_TRUE(c0_->Mkdir("/hot", 0755, root_).ok());
    for (int i = 0; i < files; ++i) {
      ASSERT_TRUE(
          c1_->WriteFileAt("/hot/f" + std::to_string(i), AsBytes("aa"), root_)
              .ok());
    }
  }

  std::uint64_t FabricCalls() const {
    return cluster_->fabric()->total_calls();
  }

  std::unique_ptr<ArkFsCluster> cluster_;
  std::shared_ptr<Client> c0_, c1_, c2_;
  UserCred root_ = UserCred::Root();
};

TEST_F(LeaderHintTest, ForwardedCreateCostsOneFabricCall) {
  StartCluster(Seconds(5));
  // The first op in /hot learns c1 from the manager's redirect.
  ASSERT_TRUE(c2_->Mkdir("/hot/warm", 0755, root_).ok());
  const auto redirects = c2_->stats().lease_redirects;

  // A directory create is one forwarded op: one call, to c1, and none to
  // the lease manager.
  auto before = FabricCalls();
  ASSERT_TRUE(c2_->Mkdir("/hot/d1", 0755, root_).ok());
  EXPECT_EQ(FabricCalls() - before, 1u);

  // A file create through Open is two forwarded ops (the create and the
  // read-lease request), each one call.
  const auto forwarded = c2_->stats().forwarded_ops;
  before = FabricCalls();
  OpenOptions create;
  create.write = true;
  create.create = true;
  auto fd = c2_->Open("/hot/new", create, root_);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(c2_->stats().forwarded_ops - forwarded, 2u);
  EXPECT_EQ(FabricCalls() - before, 2u);
  ASSERT_TRUE(c2_->Close(*fd).ok());

  EXPECT_EQ(c2_->stats().lease_redirects, redirects);
  EXPECT_TRUE(c1_->Stat("/hot/new", root_).ok());
}

TEST_F(LeaderHintTest, DelegatedStatHitCostsNoFabricCall) {
  StartCluster(Seconds(5), /*files=*/4);
  // Warm: the redirect brings the hint and a delegation; the first
  // delegable op pulls the slice.
  ASSERT_TRUE(c2_->Stat("/hot/f0", root_).ok());
  const auto hits = c2_->stats().deleg_hits;
  const auto delegated = c2_->stats().stat_delegated;

  const auto before = FabricCalls();
  for (int i = 1; i < 4; ++i) {
    auto st = c2_->Stat("/hot/f" + std::to_string(i), root_);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, 2u);
  }
  EXPECT_EQ(FabricCalls(), before);
  EXPECT_GT(c2_->stats().deleg_hits, hits);
  EXPECT_GE(c2_->stats().stat_delegated, delegated + 3);
}

// c2 holds a live hint naming c1 when c1 hands /hot off to c3. c2's next op
// is sent to c1, drops the hint, asks the manager and lands at c3.
TEST_F(LeaderHintTest, HandoffByReleaseDropsTheStaleHintOnce) {
  StartCluster(Seconds(1));
  ASSERT_TRUE(c2_->WriteFileAt("/hot/before", AsBytes("b"), root_).ok());
  const auto stale = c2_->stats().leader_hint_stale;

  ASSERT_TRUE(c1_->Shutdown().ok());  // releases /hot, leaves the fabric
  auto c3 = cluster_->AddClient("c3").value();
  ASSERT_TRUE(c3->WriteFileAt("/hot/by_c3", AsBytes("3"), root_).ok());

  ASSERT_TRUE(c2_->WriteFileAt("/hot/after", AsBytes("a"), root_).ok());
  EXPECT_EQ(c2_->stats().leader_hint_stale, stale + 1);
  EXPECT_GE(c2_->Introspect().metrics.counter("client.leader_hint.stale"), 1u);
  auto seen = c3->ReadWholeFile("/hot/after", root_);
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  EXPECT_EQ(ToString(*seen), "a");
  // c3 serves it from its own metatable: it leads /hot.
  const auto local = c3->stats().local_meta_ops;
  ASSERT_TRUE(c3->Stat("/hot/after", root_).ok());
  EXPECT_GT(c3->stats().local_meta_ops, local);
}

TEST_F(LeaderHintTest, HandoffByCrashDropsTheStaleHintOnce) {
  StartCluster(Seconds(1));
  ASSERT_TRUE(c2_->WriteFileAt("/hot/before", AsBytes("b"), root_).ok());
  const auto stale = c2_->stats().leader_hint_stale;

  // c1 crashes with its lease live. c2's hint still names c1, and c2 is cut
  // off from the manager, so c3 is the one to take over once the lease
  // lapses; c2 keeps retrying meanwhile.
  c1_->CrashHard();
  cluster_->fabric()->BlockPair("c2", lease::kManagerAddress);
  Status forwarded;
  std::thread writer([&] {
    forwarded = c2_->WriteFileAt("/hot/after", AsBytes("a"), root_);
  });
  SleepFor(cluster_->lease_manager().config().lease_period + Millis(100));
  auto c3 = cluster_->AddClient("c3").value();
  ASSERT_TRUE(c3->WriteFileAt("/hot/by_c3", AsBytes("3"), root_).ok());
  cluster_->fabric()->BlockPair("c2", lease::kManagerAddress, false);
  writer.join();

  ASSERT_TRUE(forwarded.ok()) << forwarded.ToString();
  // One stale hint: c2 asked the manager in vain while it was cut off, so no
  // newer hint named c1, and the redirect after names c3.
  EXPECT_EQ(c2_->stats().leader_hint_stale, stale + 1);
  auto seen = c3->ReadWholeFile("/hot/after", root_);
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  EXPECT_EQ(ToString(*seen), "a");
  EXPECT_GT(c3->stats().recoveries, 0u);
}

// Admission throttling is a live leader saying "later": the hint stays, and
// the retries go straight back to it.
TEST_F(LeaderHintTest, ThrottledRetryKeepsTheHint) {
  constexpr qos::TenantId kTenant = 7;
  auto opts = ArkFsClusterOptions::ForTests();
  opts.admission.enabled = true;
  opts.admission.tenants[kTenant] = qos::TenantRate{20.0, 1.0};
  StartCluster(Seconds(5), 2, opts);
  auto tenant = cluster_->AddClient("tenant", kTenant).value();
  ASSERT_TRUE(tenant->Mkdir("/hot/warm", 0755, root_).ok());
  const auto redirects = tenant->stats().lease_redirects;
  const auto shed = cluster_->tenant_metrics()->For(kTenant).shed.value();

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        tenant->Mkdir("/hot/d" + std::to_string(i), 0755, root_).ok());
  }
  EXPECT_GT(cluster_->tenant_metrics()->For(kTenant).shed.value(), shed);
  EXPECT_EQ(tenant->stats().lease_redirects, redirects);
  EXPECT_EQ(tenant->stats().leader_hint_stale, 0u);
}

// With the 200 ms test term the leader renews every few ops and the
// forwarder's hint lapses at each old expiry. The forwarder asks the manager
// about once per renewal, and every op succeeds across the rollovers.
TEST_F(LeaderHintTest, ForwarderRidesLeaseRollovers) {
  // c2 takes the root over from c0, so every redirect c2 gets is for /hot.
  // Permission cache off: every path step is a directory op, so c2 renews
  // the root's lease as it goes and the root never changes hands again.
  auto opts = ArkFsClusterOptions::ForTests();
  opts.client_template.permission_cache = false;
  StartCluster(Millis(200), 1, opts);
  ASSERT_TRUE(c0_->Shutdown().ok());
  ASSERT_TRUE(c2_->Stat("/hot/f0", root_).ok());
  const auto redirects = c2_->stats().lease_redirects;
  const auto renewals = c1_->stats().lease_acquires;

  int i = 0;
  const TimePoint deadline = Now() + Seconds(20);
  while (c1_->stats().lease_acquires - renewals < 5 && Now() < deadline) {
    ASSERT_TRUE(c1_->Stat("/hot/f0", root_).ok());
    ASSERT_TRUE(
        c2_->Mkdir("/hot/d" + std::to_string(i++), 0755, root_).ok());
    ASSERT_TRUE(c2_->Stat("/hot/f0", root_).ok());
  }
  const auto terms = c1_->stats().lease_acquires - renewals;
  ASSERT_GE(terms, 5u);
  EXPECT_LE(c2_->stats().lease_redirects - redirects, terms + 1);
  auto entries = c1_->ReadDir("/hot", root_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<std::size_t>(i) + 1);
}

}  // namespace
}  // namespace arkfs
