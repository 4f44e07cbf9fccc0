// Tests for the lease manager and client-side lease protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lease/lease_client.h"
#include "lease/lease_manager.h"
#include "objstore/memory_store.h"
#include "qos/admission.h"

namespace arkfs::lease {
namespace {

class LeaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fabric_ = std::make_shared<rpc::Fabric>(sim::NetworkProfile::Instant());
    manager_ = std::make_unique<LeaseManager>(
        fabric_, std::make_shared<MemoryObjectStore>(), config_);
    ASSERT_TRUE(manager_->Start().ok());
  }

  LeaseClient MakeClient(const std::string& name) {
    LeaseClient::Options options;
    options.wait_budget = Millis(500);
    options.initial_backoff = Millis(1);
    // Keep transport retries short so unreachable-manager tests don't ride
    // the 2 s production deadline.
    options.rpc_retry.max_attempts = 3;
    options.rpc_retry.initial_backoff = Millis(1);
    options.rpc_retry.max_backoff = Millis(5);
    options.rpc_retry.deadline = Millis(100);
    return LeaseClient(fabric_, name, options);
  }

  LeaseManagerConfig config_ = LeaseManagerConfig::ForTests();
  rpc::FabricPtr fabric_;
  std::unique_ptr<LeaseManager> manager_;
  Uuid dir_ = DeterministicUuid(1, 1);
};

TEST_F(LeaseTest, FirstComeFirstServed) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto grant = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(grant);
  EXPECT_FALSE(grant->fresh);  // first acquisition ever
  EXPECT_TRUE(grant->prev_leader.empty());

  auto denied = RedirectOf(c2.Acquire(dir_));
  ASSERT_TRUE(denied);
  EXPECT_EQ(denied->leader, "c1");
  EXPECT_EQ(manager_->ActiveLeaseCount(), 1u);
}

TEST_F(LeaseTest, HolderExtensionIsFresh) {
  auto c1 = MakeClient("c1");
  ASSERT_TRUE(GrantOf(c1.Acquire(dir_)));
  auto again = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(again);
  EXPECT_TRUE(again->fresh);
}

TEST_F(LeaseTest, ReacquireAfterExpiryBySameClientIsFresh) {
  auto c1 = MakeClient("c1");
  ASSERT_TRUE(GrantOf(c1.Acquire(dir_)));
  SleepFor(config_.lease_period + Millis(50));
  auto again = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(again);
  EXPECT_TRUE(again->fresh);  // nobody led in between
}

TEST_F(LeaseTest, TakeoverAfterExpiryNamesPreviousLeader) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  ASSERT_TRUE(GrantOf(c1.Acquire(dir_)));
  SleepFor(config_.lease_period + Millis(50));
  auto grant = GrantOf(c2.Acquire(dir_));
  ASSERT_TRUE(grant);
  EXPECT_FALSE(grant->fresh);
  EXPECT_EQ(grant->prev_leader, "c1");  // flush-handshake target
}

TEST_F(LeaseTest, ReleaseFreesTheLease) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto held = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(held);
  ASSERT_TRUE(c1.Release(dir_, held->token).ok());
  auto grant = GrantOf(c2.Acquire(dir_));
  ASSERT_TRUE(grant);
  EXPECT_EQ(grant->prev_leader, "c1");
}

TEST_F(LeaseTest, ReleaseByNonHolderIgnored) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto held = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(held);
  // Not the holder: no effect, even with the live grant's token.
  ASSERT_TRUE(c2.Release(dir_, held->token).ok());
  EXPECT_TRUE(RedirectOf(c2.Acquire(dir_)));
}

TEST_F(LeaseTest, IndependentDirectoriesIndependentLeases) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  const Uuid other = DeterministicUuid(2, 2);
  ASSERT_TRUE(GrantOf(c1.Acquire(dir_)));
  ASSERT_TRUE(GrantOf(c2.Acquire(other)));
  EXPECT_EQ(manager_->ActiveLeaseCount(), 2u);
}

TEST_F(LeaseTest, RecoveryFencesAcquisition) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  ASSERT_TRUE(GrantOf(c1.Acquire(dir_)));
  SleepFor(config_.lease_period + Millis(50));

  // c2 starts recovery of the crashed dir.
  ASSERT_TRUE(c2.BeginRecovery(dir_).ok());
  // c1 cannot sneak back in while recovery is running.
  LeaseClient::Options tight;
  tight.wait_budget = Millis(60);
  tight.initial_backoff = Millis(5);
  LeaseClient c1_tight(fabric_, "c1", tight);
  EXPECT_EQ(c1_tight.Acquire(dir_).code(), Errc::kBusy);

  ASSERT_TRUE(c2.EndRecovery(dir_).ok());
  // Recovery renewed the lease on c2.
  auto denied = RedirectOf(c1.Acquire(dir_));
  ASSERT_TRUE(denied);
  EXPECT_EQ(denied->leader, "c2");
}

TEST_F(LeaseTest, RecoveryRejectedWhileLeaderAlive) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  ASSERT_TRUE(GrantOf(c1.Acquire(dir_)));
  EXPECT_EQ(c2.BeginRecovery(dir_).code(), Errc::kBusy);
}

TEST_F(LeaseTest, EndRecoveryByWrongClientRejected) {
  auto c2 = MakeClient("c2");
  auto c3 = MakeClient("c3");
  ASSERT_TRUE(c2.BeginRecovery(dir_).ok());
  EXPECT_EQ(c3.EndRecovery(dir_).code(), Errc::kInval);
  ASSERT_TRUE(c2.EndRecovery(dir_).ok());
}

TEST_F(LeaseTest, ManagerRestartImposesQuietPeriod) {
  auto c1 = MakeClient("c1");
  ASSERT_TRUE(GrantOf(c1.Acquire(dir_)));
  manager_->Stop();
  ASSERT_TRUE(manager_->Start().ok());
  // Within the quiet period every acquire is told to wait.
  LeaseClient::Options tight;
  tight.wait_budget = Millis(20);
  tight.initial_backoff = Millis(5);
  LeaseClient c2(fabric_, "c2", tight);
  EXPECT_EQ(c2.Acquire(dir_).code(), Errc::kBusy);

  // After the quiet period (one lease term) acquisition works again — with
  // a patient client.
  auto patient = MakeClient("c3");
  auto grant = GrantOf(patient.Acquire(dir_));
  ASSERT_TRUE(grant);
  // State was lost, so no previous leader is known.
  EXPECT_TRUE(grant->prev_leader.empty());
}

TEST_F(LeaseTest, ManagerUnreachableSurfacesTimeout) {
  manager_->Stop();
  auto c1 = MakeClient("c1");
  EXPECT_EQ(c1.Acquire(dir_).code(), Errc::kTimedOut);
}

TEST_F(LeaseTest, GrantCarriesFencingToken) {
  auto c1 = MakeClient("c1");
  auto grant = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(grant);
  EXPECT_TRUE(grant->token.valid());
  EXPECT_EQ(grant->token.epoch, manager_->epoch());

  // Extension keeps the token; a new tenure after expiry gets a fresh one.
  auto extended = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(extended);
  EXPECT_EQ(extended->token, grant->token);

  SleepFor(config_.lease_period + Millis(50));
  auto fresh = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(fresh);
  EXPECT_TRUE(grant->token < fresh->token);
}

TEST_F(LeaseTest, RedirectGrantsDelegationWithLeaderWatermark) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  LeaseClient::AcquireOptions leader_opts;
  leader_opts.watermark = 5;  // leader-side journal watermark report
  auto grant = GrantOf(c1.Acquire(dir_, leader_opts));
  ASSERT_TRUE(grant);

  LeaseClient::AcquireOptions want;
  want.want_delegation = true;
  auto redirected = RedirectOf(c2.Acquire(dir_, want));
  ASSERT_TRUE(redirected);
  ASSERT_TRUE(redirected->deleg);
  EXPECT_EQ(redirected->token, grant->token);
  EXPECT_EQ(redirected->deleg->watermark, 5u);
  EXPECT_GT(redirected->deleg->until, Now());

  // The leader's renewal refreshes the stored watermark; the next redirect
  // hands the newer value out.
  leader_opts.watermark = 9;
  ASSERT_TRUE(GrantOf(c1.Acquire(dir_, leader_opts)));
  auto refreshed = RedirectOf(c2.Acquire(dir_, want));
  ASSERT_TRUE(refreshed);
  ASSERT_TRUE(refreshed->deleg);
  EXPECT_EQ(refreshed->deleg->watermark, 9u);

  // No delegation unless asked for.
  auto unasked = RedirectOf(c2.Acquire(dir_));
  ASSERT_TRUE(unasked);
  EXPECT_FALSE(unasked->deleg);
}

// Every redirect names the live lease's tenure and expiry, asked-for
// delegation or not: a client may route to the leader until then without
// asking the manager again.
TEST_F(LeaseTest, RedirectCarriesLiveLeaseTokenAndExpiry) {
  auto c1 = MakeClient("c1");
  auto c2 = MakeClient("c2");
  auto grant = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(grant);

  auto redirected = RedirectOf(c2.Acquire(dir_));
  ASSERT_TRUE(redirected);
  EXPECT_EQ(redirected->leader, "c1");
  EXPECT_EQ(redirected->token, grant->token);
  EXPECT_EQ(redirected->until, grant->until);

  // The holder's renewal moves the expiry, not the tenure; the next
  // redirect carries the new expiry.
  SleepFor(Millis(5));
  auto renewed = GrantOf(c1.Acquire(dir_));
  ASSERT_TRUE(renewed);
  ASSERT_GT(renewed->until, grant->until);
  auto again = RedirectOf(c2.Acquire(dir_));
  ASSERT_TRUE(again);
  EXPECT_EQ(again->token, grant->token);
  EXPECT_EQ(again->until, renewed->until);
}

// --- wire-codec hardening -------------------------------------------------
//
// Lease grants are the root of all fencing decisions, so every message must
// reject truncated input, trailing garbage, and out-of-range enums instead
// of decoding to something plausible. One build writes and reads every
// frame, so every field is mandatory: no older frame shape parses either.

template <typename Message>
void ExpectStrictCodec(const Message& message) {
  const Bytes encoded = message.Encode();
  // Round trip succeeds on the exact bytes.
  ASSERT_TRUE(Message::Decode(encoded).ok());
  // Every strict prefix is rejected (truncation sweep).
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    Bytes truncated(encoded.begin(), encoded.begin() + len);
    EXPECT_FALSE(Message::Decode(truncated).ok())
        << "decoded a " << len << "-byte prefix of a " << encoded.size()
        << "-byte message";
  }
  // Trailing garbage is rejected.
  Bytes padded = encoded;
  padded.push_back(0x5a);
  EXPECT_FALSE(Message::Decode(padded).ok());
}

TEST(LeaseWireTest, AcquireRequestCodec) {
  AcquireRequest req;
  req.dir_ino = DeterministicUuid(7, 7);
  req.client = "client-3";
  req.want_delegation = true;
  req.watermark = 99;
  req.tenant = 7;
  ExpectStrictCodec(req);
  auto copy = AcquireRequest::Decode(req.Encode());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->dir_ino, req.dir_ino);
  EXPECT_EQ(copy->client, req.client);
  EXPECT_TRUE(copy->want_delegation);
  EXPECT_EQ(copy->watermark, 99u);
  EXPECT_EQ(copy->tenant, 7u);
}

TEST(LeaseWireTest, AcquireResponseCodec) {
  AcquireResponse resp;
  resp.outcome = AcquireOutcome::kGranted;
  resp.leader = "c1";
  resp.lease_until_ns = 123456789;
  resp.fresh = true;
  resp.prev_leader = "c0";
  resp.token = FenceToken{4, 17};
  resp.watermark = 41;
  resp.deleg = true;
  resp.deleg_until_ns = 987654321;
  resp.retry_after_ns = 2500000;
  ExpectStrictCodec(resp);
  auto copy = AcquireResponse::Decode(resp.Encode());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->outcome, resp.outcome);
  EXPECT_EQ(copy->leader, resp.leader);
  EXPECT_EQ(copy->lease_until_ns, resp.lease_until_ns);
  EXPECT_EQ(copy->fresh, resp.fresh);
  EXPECT_EQ(copy->prev_leader, resp.prev_leader);
  EXPECT_EQ(copy->token, resp.token);
  EXPECT_EQ(copy->watermark, 41u);
  EXPECT_TRUE(copy->deleg);
  EXPECT_EQ(copy->deleg_until_ns, 987654321);
  EXPECT_EQ(copy->retry_after_ns, 2500000);
}

TEST(LeaseWireTest, RedirectResponseCarriesLeaseExpiryAndToken) {
  AcquireResponse resp;
  resp.outcome = AcquireOutcome::kRedirect;
  resp.leader = "c1";
  resp.lease_until_ns = 555000111;
  resp.token = FenceToken{2, 9};
  ExpectStrictCodec(resp);
  auto copy = AcquireResponse::Decode(resp.Encode());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->outcome, AcquireOutcome::kRedirect);
  EXPECT_EQ(copy->lease_until_ns, 555000111);
  EXPECT_EQ(copy->token, (FenceToken{2, 9}));
  EXPECT_FALSE(copy->deleg);
}

// Manager-side admission control sheds IN-BAND: a throttled tenant gets a
// kWait outcome carrying retry_after_ns, never a status-level kAgain (which
// the client would misread as a standby/leader redirect hint).
TEST(LeaseQosTest, ManagerAdmissionShedsInBandAsWait) {
  auto fabric = std::make_shared<rpc::Fabric>(sim::NetworkProfile::Instant());
  qos::TenantMetrics metrics;
  qos::AdmissionConfig ac;
  ac.enabled = true;
  ac.tenants[5] = qos::TenantRate{1.0, 1.0};  // one token, 1/s refill
  qos::AdmissionController admission(ac, &metrics);
  LeaseManagerConfig config = LeaseManagerConfig::ForTests();
  config.admission = &admission;
  LeaseManager manager(fabric, std::make_shared<MemoryObjectStore>(), config);
  ASSERT_TRUE(manager.Start().ok());

  AcquireRequest req;
  req.dir_ino = DeterministicUuid(3, 3);
  req.client = "c1";
  req.tenant = 5;
  AcquireResponse first = manager.Acquire(req);
  EXPECT_EQ(first.outcome, AcquireOutcome::kGranted);
  AcquireResponse second = manager.Acquire(req);  // bucket now empty
  EXPECT_EQ(second.outcome, AcquireOutcome::kWait);
  EXPECT_GT(second.retry_after_ns, 0);

  // An untenanted (tenant 0) request rides the unlimited default bucket.
  AcquireRequest other;
  other.dir_ino = DeterministicUuid(3, 4);
  other.client = "c2";
  AcquireResponse granted = manager.Acquire(other);
  EXPECT_EQ(granted.outcome, AcquireOutcome::kGranted);
  EXPECT_EQ(metrics.For(5).shed.value(), 1u);
  manager.Stop();
}

// Only acquires that grant or extend a lease are charged: a redirect is
// free (the op behind it is charged by the leader that serves it), so an
// over-rate tenant still learns who leads the directory.
TEST(LeaseQosTest, ManagerAdmissionDoesNotChargeRedirects) {
  auto fabric = std::make_shared<rpc::Fabric>(sim::NetworkProfile::Instant());
  qos::TenantMetrics metrics;
  qos::AdmissionConfig ac;
  ac.enabled = true;
  ac.tenants[5] = qos::TenantRate{1.0, 1.0};  // one token, 1/s refill
  qos::AdmissionController admission(ac, &metrics);
  LeaseManagerConfig config = LeaseManagerConfig::ForTests();
  config.admission = &admission;
  LeaseManager manager(fabric, std::make_shared<MemoryObjectStore>(), config);
  ASSERT_TRUE(manager.Start().ok());

  AcquireRequest lead;
  lead.dir_ino = DeterministicUuid(3, 3);
  lead.client = "c1";
  lead.tenant = 5;
  ASSERT_EQ(manager.Acquire(lead).outcome, AcquireOutcome::kGranted);
  const std::uint64_t shed_before = metrics.For(5).shed.value();

  AcquireRequest probe = lead;  // bucket of tenant 5 now empty
  probe.client = "c2";
  AcquireResponse redirected = manager.Acquire(probe);
  EXPECT_EQ(redirected.outcome, AcquireOutcome::kRedirect);
  EXPECT_EQ(redirected.leader, "c1");
  EXPECT_EQ(metrics.For(5).shed.value(), shed_before);

  // The bucket was empty all along: the leader's own renewal is shed.
  EXPECT_EQ(manager.Acquire(lead).outcome, AcquireOutcome::kWait);
  manager.Stop();
}

TEST(LeaseWireTest, AcquireResponseRejectsUnknownOutcome) {
  AcquireResponse resp;
  resp.outcome = AcquireOutcome::kNotActive;
  Bytes encoded = resp.Encode();
  encoded[0] = 0x7f;  // outcome is the first byte
  EXPECT_FALSE(AcquireResponse::Decode(encoded).ok());
}

TEST(LeaseWireTest, ReleaseRequestCodec) {
  ReleaseRequest req;
  req.dir_ino = DeterministicUuid(9, 1);
  req.client = "client-1";
  req.token = FenceToken{2, 5};
  ExpectStrictCodec(req);
  auto copy = ReleaseRequest::Decode(req.Encode());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->token, req.token);
}

TEST(LeaseWireTest, RecoveryRequestCodec) {
  RecoveryRequest req;
  req.dir_ino = DeterministicUuid(9, 2);
  req.client = "client-2";
  req.phase = RecoveryPhase::kEnd;
  ExpectStrictCodec(req);
}

TEST(LeaseWireTest, PingCodecs) {
  PingRequest req;
  req.epoch = 12;
  req.from = "lease-manager-2";
  ExpectStrictCodec(req);
  PingResponse resp;
  resp.epoch = 12;
  resp.active = true;
  resp.active_hint = "lease-manager-0";
  ExpectStrictCodec(resp);
  auto copy = PingResponse::Decode(resp.Encode());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->epoch, 12u);
  EXPECT_TRUE(copy->active);
  EXPECT_EQ(copy->active_hint, "lease-manager-0");
}

TEST(LeaseWireTest, EpochRecordCodec) {
  EpochRecord rec;
  rec.epoch = 42;
  rec.active = "lease-manager-1";
  ExpectStrictCodec(rec);
  auto copy = EpochRecord::Decode(rec.Encode());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->epoch, 42u);
  EXPECT_EQ(copy->active, "lease-manager-1");
}

TEST(LeaseWireTest, EpochRecordRejectsCorruption) {
  EpochRecord rec;
  rec.epoch = 7;
  rec.active = "lease-manager-0";
  const Bytes good = rec.Encode();

  Bytes bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(EpochRecord::Decode(bad_magic).ok());

  // A flipped bit anywhere in the body trips the CRC.
  for (std::size_t i = 4; i < good.size(); ++i) {
    Bytes flipped = good;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(EpochRecord::Decode(flipped).ok()) << "byte " << i;
  }

  EXPECT_FALSE(EpochRecord::Decode(Bytes{}).ok());
  EXPECT_FALSE(EpochRecord::Decode(Bytes{0xde, 0xad, 0xbe, 0xef}).ok());
}

TEST(LeaseWireTest, FenceObjectCodec) {
  const FenceToken token{3, 9};
  const Bytes encoded = EncodeFenceObject(token);
  auto decoded = DecodeFenceObject(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, token);

  for (std::size_t len = 0; len < encoded.size(); ++len) {
    Bytes truncated(encoded.begin(), encoded.begin() + len);
    EXPECT_FALSE(DecodeFenceObject(truncated).ok()) << "prefix " << len;
  }
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    Bytes flipped = encoded;
    flipped[i] ^= 0x01;
    EXPECT_FALSE(DecodeFenceObject(flipped).ok()) << "byte " << i;
  }
  Bytes padded = encoded;
  padded.push_back(0);
  EXPECT_FALSE(DecodeFenceObject(padded).ok());
}

}  // namespace
}  // namespace arkfs::lease
