// Multi-tenant QoS: token-bucket admission, weighted fair queueing and
// namespace quotas — plus the retry-after hint protocol gluing them to the
// retry engines.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/retry_hint.h"
#include "objstore/cluster_store.h"
#include "objstore/retry.h"
#include "obs/trace.h"
#include "qos/admission.h"
#include "qos/fair_queue.h"
#include "qos/quota.h"
#include "qos/tenant.h"

namespace arkfs::qos {
namespace {

// --- retry-after hint protocol -----------------------------------------

TEST(RetryHintTest, RoundTrips) {
  const std::string detail = FormatRetryAfterHint(Millis(7), "too fast");
  Nanos hint{};
  ASSERT_TRUE(ParseRetryAfterHint(detail, &hint));
  EXPECT_EQ(hint, Millis(7));
  EXPECT_NE(detail.find("too fast"), std::string::npos);
}

TEST(RetryHintTest, AbsentOrMalformedParsesFalse) {
  Nanos hint{};
  EXPECT_FALSE(ParseRetryAfterHint("", &hint));
  EXPECT_FALSE(ParseRetryAfterHint("tenant 3 over rate", &hint));
  EXPECT_FALSE(ParseRetryAfterHint("retry-after-ns=", &hint));
  EXPECT_FALSE(ParseRetryAfterHint("retry-after-ns=bogus", &hint));
  // Absurd values are rejected rather than slept on.
  EXPECT_FALSE(
      ParseRetryAfterHint("retry-after-ns=99999999999999999999", &hint));
}

// Satellite requirement: a server-supplied hint BOUNDS the first retry
// sleep. The policy's own jitter floor is 50 ms; the failing op hints 1 ms,
// so a hint-honoring RetryCall finishes far under the jitter floor.
TEST(RetryHintTest, HintBoundsTheFirstRetrySleep) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = Millis(50);  // jitter draw is >= this
  policy.max_backoff = Millis(200);
  int calls = 0;
  const TimePoint start = Now();
  Status st = RetryCall(policy, /*salt=*/1, nullptr, TimePoint::max(), [&] {
    ++calls;
    if (calls == 1) {
      return ErrStatus(Errc::kAgain, FormatRetryAfterHint(Millis(1), "shed"));
    }
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 2);
  EXPECT_LT(Now() - start, Millis(40)) << "hint did not bound the sleep";
}

TEST(RetryHintTest, HintIsCappedByMaxBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = Millis(1);
  policy.max_backoff = Millis(5);
  int calls = 0;
  const TimePoint start = Now();
  Status st = RetryCall(policy, /*salt=*/2, nullptr, TimePoint::max(), [&] {
    ++calls;
    if (calls == 1) {
      // A bogus ten-second hint must not stall the caller.
      return ErrStatus(Errc::kAgain,
                       FormatRetryAfterHint(Seconds(10), "bogus"));
    }
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_LT(Now() - start, Millis(100));
}

// --- token-bucket admission --------------------------------------------

TEST(AdmissionTest, DisabledAdmitsEverythingFree) {
  AdmissionController admission(AdmissionConfig{}, nullptr);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(admission.Admit(3).ok());
}

TEST(AdmissionTest, BucketEmptiesAndRejectsWithHint) {
  TenantMetrics metrics;
  AdmissionConfig config;
  config.enabled = true;
  config.tenants[7] = TenantRate{10.0, 2.0};  // burst 2, refill 10/s
  AdmissionController admission(config, &metrics);

  EXPECT_TRUE(admission.Admit(7).ok());
  EXPECT_TRUE(admission.Admit(7).ok());
  Status rejected = admission.Admit(7);
  ASSERT_EQ(rejected.code(), Errc::kAgain);
  Nanos hint{};
  ASSERT_TRUE(ParseRetryAfterHint(rejected.detail(), &hint));
  EXPECT_GT(hint.count(), 0);
  EXPECT_LE(hint, Millis(150));  // 1 token at 10/s accrues in <= 100 ms
  EXPECT_EQ(metrics.For(7).admitted.value(), 2u);
  EXPECT_EQ(metrics.For(7).shed.value(), 1u);

  // Waiting out the hint refills enough for one more op.
  SleepFor(hint + Millis(5));
  EXPECT_TRUE(admission.Admit(7).ok());
}

TEST(AdmissionTest, UnlimitedDefaultNeverRejects) {
  AdmissionConfig config;
  config.enabled = true;  // a tenant without an entry is unlimited
  AdmissionController admission(config, nullptr);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(admission.Admit(1).ok());
}

TEST(AdmissionTest, TenantsAreIsolated) {
  AdmissionConfig config;
  config.enabled = true;
  config.tenants[1] = TenantRate{1.0, 1.0};
  AdmissionController admission(config, nullptr);
  EXPECT_TRUE(admission.Admit(1).ok());
  EXPECT_EQ(admission.Admit(1).code(), Errc::kAgain);
  // Tenant 2 rides the (unlimited) default bucket, unaffected.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(admission.Admit(2).ok());
}

// --- weighted fair queueing --------------------------------------------

TEST(FairQueueTest, DisabledGrantsInstantly) {
  WeightedFairQueue queue(FairQueueConfig{}, nullptr);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(queue.Acquire(1).ok());
  EXPECT_EQ(queue.QueuedDepth(), 0u);
}

TEST(FairQueueTest, FreeSlotGrantsWithoutQueueing) {
  FairQueueConfig config;
  config.enabled = true;
  config.service_slots = 2;
  WeightedFairQueue queue(config, nullptr);
  ASSERT_TRUE(queue.Acquire(1).ok());
  ASSERT_TRUE(queue.Acquire(2).ok());
  EXPECT_EQ(queue.QueuedDepth(), 0u);
  queue.Release();
  queue.Release();
}

TEST(FairQueueTest, WaiterIsGrantedWhenSlotFrees) {
  FairQueueConfig config;
  config.enabled = true;
  config.service_slots = 1;
  WeightedFairQueue queue(config, nullptr);
  ASSERT_TRUE(queue.Acquire(1).ok());

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    Status st = queue.Acquire(2);
    ASSERT_TRUE(st.ok());
    granted = true;
    queue.Release();
  });
  while (queue.QueuedDepth() == 0) std::this_thread::yield();
  EXPECT_FALSE(granted.load());
  queue.Release();
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(FairQueueTest, OverflowShedsOldestWaiterOfHeaviestTenant) {
  TenantMetrics metrics;
  FairQueueConfig config;
  config.enabled = true;
  config.service_slots = 1;
  config.max_depth = 1;
  config.shed_retry_after = Millis(3);
  WeightedFairQueue queue(config, &metrics);
  ASSERT_TRUE(queue.Acquire(1).ok());  // occupy the only slot

  // First waiter of tenant 2 parks...
  Status first_status;
  std::thread first([&] { first_status = queue.Acquire(2); });
  while (queue.QueuedDepth() == 0) std::this_thread::yield();

  // ...the second overflows the depth bound: tenant 2 is the heaviest
  // (only) tenant, so its OLDEST waiter (the first) is shed to make room.
  Status second_status;
  std::thread second([&] {
    second_status = queue.Acquire(2);
    if (second_status.ok()) queue.Release();
  });
  first.join();
  ASSERT_EQ(first_status.code(), Errc::kAgain);
  Nanos hint{};
  ASSERT_TRUE(ParseRetryAfterHint(first_status.detail(), &hint));
  EXPECT_EQ(hint, Millis(3));
  EXPECT_EQ(metrics.For(2).shed.value(), 1u);  // counted, never silent

  queue.Release();
  second.join();
  EXPECT_TRUE(second_status.ok());
}

TEST(FairQueueTest, ZeroDepthShedsTheNewcomer) {
  FairQueueConfig config;
  config.enabled = true;
  config.service_slots = 1;
  config.max_depth = 0;  // no parking at all
  WeightedFairQueue queue(config, nullptr);
  ASSERT_TRUE(queue.Acquire(1).ok());
  EXPECT_EQ(queue.Acquire(2).code(), Errc::kAgain);
  queue.Release();
}

TEST(FairQueueTest, TimedOutWaiterShedsItself) {
  TenantMetrics metrics;
  FairQueueConfig config;
  config.enabled = true;
  config.service_slots = 1;
  config.max_wait = Millis(30);
  WeightedFairQueue queue(config, &metrics);
  ASSERT_TRUE(queue.Acquire(1).ok());
  Status st = queue.Acquire(2);  // never granted: times out
  EXPECT_EQ(st.code(), Errc::kAgain);
  Nanos hint{};
  EXPECT_TRUE(ParseRetryAfterHint(st.detail(), &hint));
  EXPECT_EQ(metrics.For(2).shed.value(), 1u);
  EXPECT_EQ(queue.QueuedDepth(), 0u);
  queue.Release();
}

// Deficit round-robin with weight 2:1 drains the heavy tenant twice as
// fast: with 4 waiters each and one slot, at least 4 of the first 6 grants
// go to the heavy tenant (order 1,1,2,1,1,2,...), and it finishes first.
TEST(FairQueueTest, WeightedDrainFavorsHeavyTenant) {
  FairQueueConfig config;
  config.enabled = true;
  config.service_slots = 1;
  config.weights[1] = 2.0;
  config.weights[2] = 1.0;
  WeightedFairQueue queue(config, nullptr);
  ASSERT_TRUE(queue.Acquire(1).ok());  // hold the slot while waiters park

  std::mutex order_mu;
  std::vector<TenantId> order;
  std::vector<std::thread> waiters;
  // Park deterministically: interleave tenants, waiting for each park to
  // land before starting the next, so sub-queue FIFO order is fixed.
  for (int i = 0; i < 8; ++i) {
    const TenantId tenant = (i % 2 == 0) ? 1 : 2;
    const std::size_t parked_before = queue.QueuedDepth();
    waiters.emplace_back([&, tenant] {
      ASSERT_TRUE(queue.Acquire(tenant).ok());
      {
        std::lock_guard lock(order_mu);
        order.push_back(tenant);
      }
      queue.Release();
    });
    while (queue.QueuedDepth() == parked_before) std::this_thread::yield();
  }
  queue.Release();  // start the drain
  for (auto& t : waiters) t.join();

  ASSERT_EQ(order.size(), 8u);
  int heavy_in_first_six = 0;
  for (int i = 0; i < 6; ++i) heavy_in_first_six += order[i] == 1 ? 1 : 0;
  EXPECT_GE(heavy_in_first_six, 4)
      << "drain order " << ::testing::PrintToString(order);
  // The heavy tenant's last grant precedes the light tenant's last.
  std::size_t last_heavy = 0, last_light = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    (order[i] == 1 ? last_heavy : last_light) = i;
  }
  EXPECT_LT(last_heavy, last_light);
}

// --- namespace quotas ---------------------------------------------------

QuotaConfig LimitedConfig(TenantId tenant, std::uint64_t inodes,
                          std::uint64_t bytes) {
  QuotaConfig config;
  config.enabled = true;
  config.tenants[tenant] = QuotaLimits{inodes, bytes};
  return config;
}

TEST(QuotaTest, DisabledChargesNothing) {
  QuotaManager quota(QuotaConfig{}, nullptr);
  EXPECT_TRUE(quota.ChargeInodes(1, 1 << 20).ok());
  EXPECT_EQ(quota.UsageFor(1).inodes, 0u);
}

TEST(QuotaTest, InodeLimitRejectsWithNoSpc) {
  TenantMetrics metrics;
  QuotaManager quota(LimitedConfig(4, /*inodes=*/2, /*bytes=*/0), &metrics);
  EXPECT_TRUE(quota.ChargeInodes(4, 1).ok());
  EXPECT_TRUE(quota.ChargeInodes(4, 1).ok());
  Status full = quota.ChargeInodes(4, 1);
  EXPECT_EQ(full.code(), Errc::kNoSpc);
  EXPECT_EQ(quota.UsageFor(4).inodes, 2u);  // failed charge charged nothing
  EXPECT_EQ(metrics.For(4).quota_rejects.value(), 1u);
  // Deleting frees the budget again.
  EXPECT_TRUE(quota.ChargeInodes(4, -1).ok());
  EXPECT_TRUE(quota.ChargeInodes(4, 1).ok());
}

TEST(QuotaTest, ByteLimitTracksDeltas) {
  QuotaManager quota(LimitedConfig(9, 0, /*bytes=*/100), nullptr);
  EXPECT_TRUE(quota.ChargeBytes(9, 80).ok());
  EXPECT_EQ(quota.ChargeBytes(9, 30).code(), Errc::kNoSpc);
  EXPECT_TRUE(quota.ChargeBytes(9, -40).ok());  // truncate down
  EXPECT_TRUE(quota.ChargeBytes(9, 30).ok());
  EXPECT_EQ(quota.UsageFor(9).bytes, 70u);
}

TEST(QuotaTest, CreditsFloorAtZero) {
  QuotaManager quota(LimitedConfig(2, 10, 10), nullptr);
  EXPECT_TRUE(quota.ChargeInodes(2, -5).ok());
  EXPECT_TRUE(quota.ChargeBytes(2, -5).ok());
  EXPECT_EQ(quota.UsageFor(2).inodes, 0u);
  EXPECT_EQ(quota.UsageFor(2).bytes, 0u);
}

TEST(QuotaTest, OtherTenantsUnaffectedByOneTenantsLimit) {
  QuotaManager quota(LimitedConfig(1, 1, 0), nullptr);
  EXPECT_TRUE(quota.ChargeInodes(1, 1).ok());
  EXPECT_EQ(quota.ChargeInodes(1, 1).code(), Errc::kNoSpc);
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(quota.ChargeInodes(2, 1).ok());
}

TEST(QuotaTest, UsageCodecRoundTrips) {
  QuotaManager quota(LimitedConfig(3, 100, 1000), nullptr);
  ASSERT_TRUE(quota.ChargeInodes(3, 7).ok());
  ASSERT_TRUE(quota.ChargeBytes(3, 512).ok());
  ASSERT_TRUE(quota.ChargeInodes(8, 2).ok());
  EXPECT_TRUE(quota.ConsumeDirty());
  EXPECT_FALSE(quota.ConsumeDirty());

  const Bytes blob = quota.EncodeUsage();
  QuotaManager restored(LimitedConfig(3, 100, 1000), nullptr);
  ASSERT_TRUE(restored.LoadUsage(blob).ok());
  EXPECT_EQ(restored.UsageFor(3).inodes, 7u);
  EXPECT_EQ(restored.UsageFor(3).bytes, 512u);
  EXPECT_EQ(restored.UsageFor(8).inodes, 2u);
  EXPECT_FALSE(restored.ConsumeDirty());  // loading is not a mutation
}

TEST(QuotaTest, UsageCodecRejectsEveryTruncationAndBitflip) {
  QuotaManager quota(LimitedConfig(3, 0, 0), nullptr);
  ASSERT_TRUE(quota.ChargeInodes(3, 5).ok());
  ASSERT_TRUE(quota.ChargeBytes(6, 64).ok());
  const Bytes blob = quota.EncodeUsage();

  QuotaManager sink(QuotaConfig{.enabled = true}, nullptr);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    Bytes truncated(blob.begin(), blob.begin() + len);
    EXPECT_FALSE(sink.LoadUsage(truncated).ok()) << "at length " << len;
  }
  for (std::size_t i = 0; i < blob.size(); ++i) {
    Bytes flipped = blob;
    flipped[i] ^= 0x40;
    EXPECT_FALSE(sink.LoadUsage(flipped).ok()) << "flipped byte " << i;
  }
  Bytes padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(sink.LoadUsage(padded).ok());
}

TEST(QuotaTest, CorruptLoadLeavesStateUntouched) {
  QuotaManager quota(QuotaConfig{.enabled = true}, nullptr);
  ASSERT_TRUE(quota.ChargeInodes(5, 3).ok());
  Bytes blob = quota.EncodeUsage();
  blob[0] ^= 0xff;
  EXPECT_FALSE(quota.LoadUsage(blob).ok());
  EXPECT_EQ(quota.UsageFor(5).inodes, 3u);
}

TEST(QuotaTest, MarkDirtyReArmsPersistence) {
  QuotaManager quota(QuotaConfig{.enabled = true}, nullptr);
  ASSERT_TRUE(quota.ChargeInodes(1, 1).ok());
  EXPECT_TRUE(quota.ConsumeDirty());
  quota.MarkDirty();  // persist hook failed: retry next checkpoint
  EXPECT_TRUE(quota.ConsumeDirty());
}

// --- WFQ wired into the cluster store -----------------------------------

TEST(ClusterStoreQosTest, ConcurrentTenantsAllSucceedUnderWfq) {
  obs::MetricsRegistry registry;
  TenantMetrics metrics(&registry);
  ClusterConfig config = ClusterConfig::Instant(/*nodes=*/2);
  config.fair_queue.enabled = true;
  config.fair_queue.service_slots = 1;
  config.fair_queue.max_depth = 64;
  config.tenant_metrics = &metrics;
  ClusterObjectStore store(config);

  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 1; t <= 3; ++t) {
    workers.emplace_back([&, t] {
      obs::TenantScope scope(static_cast<TenantId>(t));
      for (int i = 0; i < 16; ++i) {
        const std::string key =
            "k" + std::to_string(t) + "-" + std::to_string(i);
        if (!store.Put(key, AsBytes("payload")).ok()) ++failures;
        if (!store.Get(key).ok()) ++failures;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // Whether any op actually PARKED is timing-dependent; what must hold is
  // that nothing was silently dropped and every byte is readable.
  for (int t = 1; t <= 3; ++t) {
    for (int i = 0; i < 16; ++i) {
      auto got = store.Get("k" + std::to_string(t) + "-" + std::to_string(i));
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->size(), 7u);
    }
  }
}

}  // namespace
}  // namespace arkfs::qos
