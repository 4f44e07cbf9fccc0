// Tests for the object-store backends and decorators.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "common/fence.h"
#include "objstore/chaos_store.h"
#include "objstore/cluster_store.h"
#include "objstore/disk_store.h"
#include "objstore/ec_store.h"
#include "objstore/instrumented_store.h"
#include "objstore/memory_store.h"
#include "objstore/retrying_store.h"
#include "objstore/tiering_store.h"
#include "obs/trace.h"

namespace arkfs {
namespace {

// Contract tests run against every backend via a parameterized suite.
enum class Backend { kMemory, kDisk, kClusterRados, kClusterS3Semantics };

ObjectStorePtr MakeStore(Backend backend, const std::string& tag) {
  switch (backend) {
    case Backend::kMemory:
      return std::make_shared<MemoryObjectStore>();
    case Backend::kDisk: {
      auto dir =
          std::filesystem::temp_directory_path() / ("arkfs_store_" + tag);
      std::filesystem::remove_all(dir);
      return DiskObjectStore::Open(dir).value();
    }
    case Backend::kClusterRados:
      return std::make_shared<ClusterObjectStore>(ClusterConfig::Instant(4));
    case Backend::kClusterS3Semantics: {
      ClusterConfig c = ClusterConfig::Instant(4);
      // Like ClusterConfig::S3Like(): whole-object semantics, so PutRange
      // answers kNotSup (the PRT rewrites whole chunks on this backend).
      c.profile.supports_partial_write = false;
      return std::make_shared<ClusterObjectStore>(c);
    }
  }
  return nullptr;
}

class StoreContractTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    store_ = MakeStore(GetParam(), ::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name());
  }
  ObjectStorePtr store_;
};

TEST_P(StoreContractTest, PutGetDelete) {
  EXPECT_TRUE(store_->Put("k1", ToBytes("hello")).ok());
  auto got = store_->Get("k1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "hello");
  EXPECT_TRUE(store_->Delete("k1").ok());
  EXPECT_EQ(store_->Get("k1").code(), Errc::kNoEnt);
  EXPECT_EQ(store_->Delete("k1").code(), Errc::kNoEnt);
}

TEST_P(StoreContractTest, PutReplaces) {
  ASSERT_TRUE(store_->Put("k", ToBytes("aaaa")).ok());
  ASSERT_TRUE(store_->Put("k", ToBytes("bb")).ok());
  EXPECT_EQ(ToString(store_->Get("k").value()), "bb");
}

TEST_P(StoreContractTest, EmptyObject) {
  ASSERT_TRUE(store_->Put("empty", {}).ok());
  auto got = store_->Get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  EXPECT_EQ(store_->Head("empty")->size, 0u);
}

TEST_P(StoreContractTest, GetRangeSemantics) {
  ASSERT_TRUE(store_->Put("k", ToBytes("0123456789")).ok());
  EXPECT_EQ(ToString(store_->GetRange("k", 2, 3).value()), "234");
  EXPECT_EQ(ToString(store_->GetRange("k", 8, 100).value()), "89");
  EXPECT_TRUE(store_->GetRange("k", 100, 5)->empty());
  EXPECT_EQ(store_->GetRange("missing", 0, 1).code(), Errc::kNoEnt);
}

TEST_P(StoreContractTest, HeadReportsSize) {
  ASSERT_TRUE(store_->Put("k", ToBytes("12345")).ok());
  auto meta = store_->Head("k");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->size, 5u);
  EXPECT_EQ(store_->Head("nope").code(), Errc::kNoEnt);
}

TEST_P(StoreContractTest, ListByPrefixSorted) {
  ASSERT_TRUE(store_->Put("a/2", ToBytes("x")).ok());
  ASSERT_TRUE(store_->Put("a/1", ToBytes("x")).ok());
  ASSERT_TRUE(store_->Put("b/1", ToBytes("x")).ok());
  auto keys = store_->List("a/");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(*keys, (std::vector<std::string>{"a/1", "a/2"}));
  EXPECT_EQ(store_->List("")->size(), 3u);
  EXPECT_TRUE(store_->List("zz")->empty());
}

TEST_P(StoreContractTest, PartialWriteOrNotSup) {
  ASSERT_TRUE(store_->Put("k", ToBytes("AAAAAAAA")).ok());
  Status st = store_->PutRange("k", 2, AsBytes("bb"));
  if (st.code() == Errc::kNotSup) {
    // kNotSup is only legitimate on a whole-object backend (S3 semantics),
    // and it leaves the object as it was.
    EXPECT_FALSE(store_->supports_partial_write());
    EXPECT_EQ(ToString(store_->Get("k").value()), "AAAAAAAA");
    return;
  }
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(ToString(store_->Get("k").value()), "AAbbAAAA");
  // Extension through PutRange.
  ASSERT_TRUE(store_->PutRange("k", 8, AsBytes("ZZ")).ok());
  EXPECT_EQ(store_->Head("k")->size, 10u);
}

TEST_P(StoreContractTest, PartialWriteCreatesAndZeroFills) {
  if (!store_->supports_partial_write()) {
    // A whole-object backend refuses the ranged write and creates nothing.
    EXPECT_EQ(store_->PutRange("new", 4, AsBytes("xy")).code(),
              Errc::kNotSup);
    EXPECT_EQ(store_->Head("new").code(), Errc::kNoEnt);
    return;
  }
  ASSERT_TRUE(store_->PutRange("new", 4, AsBytes("xy")).ok());
  auto got = store_->Get("new");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 6u);
  EXPECT_EQ((*got)[0], 0);
  EXPECT_EQ((*got)[3], 0);
  EXPECT_EQ((*got)[4], 'x');
}

TEST_P(StoreContractTest, MaxObjectSizeEnforced) {
  Bytes big(store_->max_object_size() + 1, 7);
  EXPECT_EQ(store_->Put("big", big).code(), Errc::kFBig);
}

TEST_P(StoreContractTest, BinaryKeysAndValues) {
  std::string key = "bin";
  key.push_back('\x01');
  key.push_back('\0');
  key.push_back('\xff');
  key += " key";
  Bytes value{0, 1, 2, 255, 254, 0, 9};
  ASSERT_TRUE(store_->Put(key, value).ok());
  EXPECT_EQ(store_->Get(key).value(), value);
}

// Guarded writes (WriteGuard): compare-extent, all-or-nothing, kStale on a
// mismatch, and a missing object never matches.
TEST_P(StoreContractTest, GuardedPutAppliesOnlyOnMatch) {
  ASSERT_TRUE(store_->Put("g", ToBytes("HDR:body")).ok());
  const Bytes hdr = ToBytes("HDR:");
  ASSERT_TRUE(store_->PutIf("g", ToBytes("HDR:next"), WriteGuard{0, hdr}).ok());
  EXPECT_EQ(ToString(store_->Get("g").value()), "HDR:next");

  const Bytes wrong = ToBytes("HDR!");
  EXPECT_EQ(store_->PutIf("g", ToBytes("XXXX"), WriteGuard{0, wrong}).code(),
            Errc::kStale);
  const Bytes tail = ToBytes("next");
  ASSERT_TRUE(store_->PutIf("g", ToBytes("HDR:more"), WriteGuard{4, tail}).ok());
  // An extent reaching past the end is a mismatch.
  const Bytes past = ToBytes("rexx");
  EXPECT_EQ(store_->PutIf("g", ToBytes("XXXX"), WriteGuard{6, past}).code(),
            Errc::kStale);
  // `whole` pins the entire object: a matching prefix is not enough.
  EXPECT_EQ(
      store_->PutIf("g", ToBytes("XXXX"), WriteGuard{0, hdr, true}).code(),
      Errc::kStale);
  EXPECT_EQ(ToString(store_->Get("g").value()), "HDR:more");
  const Bytes all = ToBytes("HDR:more");
  ASSERT_TRUE(store_->PutIf("g", ToBytes("new"), WriteGuard{0, all, true}).ok());
  EXPECT_EQ(ToString(store_->Get("g").value()), "new");

  // A missing object is a mismatch, even against an empty extent, and the
  // miss creates nothing.
  EXPECT_EQ(store_->PutIf("absent", ToBytes("x"), WriteGuard{}).code(),
            Errc::kStale);
  EXPECT_EQ(store_->Head("absent").code(), Errc::kNoEnt);
}

// A create-only guard (WriteGuard::Absent) lands only while no object
// exists: the first creator wins, and a later one leaves its bytes alone.
TEST_P(StoreContractTest, CreateOnlyGuardLandsOnlyOnAnAbsentObject) {
  ASSERT_TRUE(
      store_->PutIf("c", ToBytes("first"), WriteGuard::Absent()).ok());
  EXPECT_EQ(store_->PutIf("c", ToBytes("second"), WriteGuard::Absent()).code(),
            Errc::kStale);
  EXPECT_EQ(ToString(store_->Get("c").value()), "first");
  // An empty object exists too.
  ASSERT_TRUE(store_->Put("empty", {}).ok());
  EXPECT_EQ(store_->PutIf("empty", ToBytes("x"), WriteGuard::Absent()).code(),
            Errc::kStale);
  EXPECT_TRUE(store_->Get("empty").value().empty());
  if (!store_->supports_partial_write()) return;
  ASSERT_TRUE(
      store_->PutRangeIf("r", 0, AsBytes("ab"), WriteGuard::Absent()).ok());
  EXPECT_EQ(
      store_->PutRangeIf("r", 2, AsBytes("cd"), WriteGuard::Absent()).code(),
      Errc::kStale);
  EXPECT_EQ(ToString(store_->Get("r").value()), "ab");
}

TEST_P(StoreContractTest, GuardedPutRangeAppliesOnlyOnMatch) {
  ASSERT_TRUE(store_->Put("g", ToBytes("HDR:ab")).ok());
  const Bytes hdr = ToBytes("HDR:");
  if (!store_->supports_partial_write()) {
    // A whole-object backend refuses even a matching guarded range write.
    EXPECT_EQ(
        store_->PutRangeIf("g", 6, AsBytes("cd"), WriteGuard{0, hdr}).code(),
        Errc::kNotSup);
    EXPECT_EQ(ToString(store_->Get("g").value()), "HDR:ab");
    return;
  }
  ASSERT_TRUE(
      store_->PutRangeIf("g", 6, AsBytes("cd"), WriteGuard{0, hdr}).ok());
  EXPECT_EQ(ToString(store_->Get("g").value()), "HDR:abcd");

  const Bytes wrong = ToBytes("NOPE");
  EXPECT_EQ(
      store_->PutRangeIf("g", 8, AsBytes("ef"), WriteGuard{0, wrong}).code(),
      Errc::kStale);
  EXPECT_EQ(ToString(store_->Get("g").value()), "HDR:abcd");

  EXPECT_EQ(
      store_->PutRangeIf("absent", 0, AsBytes("x"), WriteGuard{}).code(),
      Errc::kStale);
  EXPECT_EQ(store_->Head("absent").code(), Errc::kNoEnt);
}

// A guarded delete removes the object only while the guard holds: a
// mismatch is kStale with the object intact, and an absent object is
// kNoEnt whatever the guard, as for Delete.
TEST_P(StoreContractTest, GuardedDeleteAppliesOnlyOnMatch) {
  ASSERT_TRUE(store_->Put("g", ToBytes("HDR:body")).ok());
  const Bytes wrong = ToBytes("HDR!");
  const Bytes hdr = ToBytes("HDR:");
  EXPECT_EQ(store_->DeleteIf("g", WriteGuard{0, wrong}).code(), Errc::kStale);
  EXPECT_EQ(store_->DeleteIf("g", WriteGuard{0, hdr, true}).code(),
            Errc::kStale);
  EXPECT_EQ(store_->DeleteIf("g", WriteGuard::Absent()).code(), Errc::kStale);
  EXPECT_EQ(ToString(store_->Get("g").value()), "HDR:body");

  const Bytes all = ToBytes("HDR:body");
  ASSERT_TRUE(store_->DeleteIf("g", WriteGuard{0, all, true}).ok());
  EXPECT_EQ(store_->Get("g").code(), Errc::kNoEnt);
  EXPECT_EQ(store_->DeleteIf("g", WriteGuard{0, all, true}).code(),
            Errc::kNoEnt);
  EXPECT_EQ(store_->DeleteIf("g", WriteGuard::Absent()).code(), Errc::kNoEnt);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StoreContractTest,
                         ::testing::Values(Backend::kMemory, Backend::kDisk,
                                           Backend::kClusterRados,
                                           Backend::kClusterS3Semantics),
                         [](const auto& info) {
                           switch (info.param) {
                             case Backend::kMemory: return "Memory";
                             case Backend::kDisk: return "Disk";
                             case Backend::kClusterRados: return "ClusterRados";
                             case Backend::kClusterS3Semantics:
                               return "ClusterS3";
                           }
                           return "Unknown";
                         });

TEST(DiskStoreTest, PersistsAcrossReopen) {
  auto dir = std::filesystem::temp_directory_path() / "arkfs_store_reopen";
  std::filesystem::remove_all(dir);
  {
    auto store = DiskObjectStore::Open(dir).value();
    ASSERT_TRUE(store->Put("persisted", ToBytes("value")).ok());
  }
  auto store = DiskObjectStore::Open(dir).value();
  EXPECT_EQ(ToString(store->Get("persisted").value()), "value");
}

// Two stores open on one directory stand in for two processes sharing a
// disk image. The directory's lock file, not either store's mutex, keeps
// each guard check and its write one step, so no guarded increment is lost.
TEST(DiskStoreTest, GuardsHoldAcrossStoresOnOneDirectory) {
  auto dir = std::filesystem::temp_directory_path() /
             ("arkfs_store_two_opens_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  auto first = DiskObjectStore::Open(dir).value();
  auto second = DiskObjectStore::Open(dir).value();
  ASSERT_TRUE(first->Put("counter", ToBytes("0")).ok());
  constexpr int kIncrements = 200;
  auto bump = [](ObjectStore* store) {
    for (int done = 0; done < kIncrements;) {
      const Bytes seen = store->Get("counter").value();
      const std::string next = std::to_string(std::stoi(ToString(seen)) + 1);
      Status st = store->PutIf("counter", ToBytes(next),
                               WriteGuard{0, seen, /*whole=*/true});
      if (st.ok()) {
        ++done;
      } else {
        ASSERT_EQ(st.code(), Errc::kStale) << st.ToString();
      }
    }
  };
  std::thread a(bump, first.get());
  std::thread b(bump, second.get());
  a.join();
  b.join();
  EXPECT_EQ(ToString(first->Get("counter").value()),
            std::to_string(2 * kIncrements));
  first.reset();
  second.reset();
  std::filesystem::remove_all(dir);
}

TEST(ClusterStoreTest, ReplicationFactorRespected) {
  ClusterConfig config = ClusterConfig::Instant(8);
  config.replication = 3;
  ClusterObjectStore store(config);
  auto replicas = store.ReplicaNodes("some-key");
  EXPECT_EQ(replicas.size(), 3u);
  std::set<int> unique(replicas.begin(), replicas.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(ClusterStoreTest, PlacementIsDeterministic) {
  ClusterConfig config = ClusterConfig::Instant(8);
  ClusterObjectStore a(config), b(config);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.ReplicaNodes(key), b.ReplicaNodes(key));
  }
}

TEST(ClusterStoreTest, PlacementIsReasonablyBalanced) {
  ClusterConfig config = ClusterConfig::Instant(8);
  config.replication = 1;
  ClusterObjectStore store(config);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(
        store.Put("obj-" + std::to_string(i), ToBytes("x")).ok());
  }
  auto counts = store.PerNodeObjectCounts();
  ASSERT_EQ(counts.size(), 8u);
  for (auto c : counts) {
    // Each of 8 nodes should hold roughly 500; allow generous imbalance.
    EXPECT_GT(c, 150u);
    EXPECT_LT(c, 1200u);
  }
}

TEST(ClusterStoreTest, DataSurvivesOnReplicas) {
  ClusterConfig config = ClusterConfig::Instant(6);
  config.replication = 2;
  ClusterObjectStore store(config);
  ASSERT_TRUE(store.Put("k", ToBytes("replicated")).ok());
  EXPECT_EQ(ToString(store.Get("k").value()), "replicated");
  auto counts = store.PerNodeObjectCounts();
  std::size_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, 2u);  // primary + 1 replica
}

// InstrumentedStore, the one observing decorator: each of the 7 primitives
// passes its result or error through unchanged, bumps its counter and byte
// totals, lands in its own histogram, and records a span only while a trace
// is active on the calling thread.
TEST(CountingStoreTest, TracksOpsAndBytes) {
  obs::MetricsRegistry registry;
  std::atomic<bool> fail{false};
  auto faulty = std::make_shared<ChaosStore>(
      std::make_shared<MemoryObjectStore>(), ChaosConfig{},
      [&](std::string_view, const std::string&) {
        return fail ? Errc::kTimedOut : Errc::kOk;
      });
  InstrumentedStore store(faulty, &registry);
  obs::Tracer tracer(64);
  {
    obs::RootSpan root(&tracer, "test.op");
    ASSERT_TRUE(store.Put("k", ToBytes("12345")).ok());
    ASSERT_TRUE(store.PutRange("k", 5, ToBytes("678")).ok());
    EXPECT_EQ(ToString(store.Get("k").value()), "12345678");
    EXPECT_EQ(ToString(store.GetRange("k", 2, 3).value()), "345");
    EXPECT_EQ(store.Head("k").value().size, 8u);
    EXPECT_EQ(store.List("").value(), std::vector<std::string>{"k"});
    ASSERT_TRUE(store.Delete("k").ok());
  }
  // Untraced, and every op fails below: the errors come back unchanged.
  fail = true;
  EXPECT_EQ(store.Put("k", ToBytes("xy")).code(), Errc::kTimedOut);
  EXPECT_EQ(store.PutRange("k", 0, ToBytes("z")).code(), Errc::kTimedOut);
  EXPECT_EQ(store.Get("k").status().code(), Errc::kTimedOut);
  EXPECT_EQ(store.GetRange("k", 0, 1).status().code(), Errc::kTimedOut);
  EXPECT_EQ(store.Head("k").status().code(), Errc::kTimedOut);
  EXPECT_EQ(store.List("").status().code(), Errc::kTimedOut);
  EXPECT_EQ(store.Delete("k").code(), Errc::kTimedOut);

  auto c = store.Snapshot();
  EXPECT_EQ(c.puts, 4u);
  EXPECT_EQ(c.gets, 4u);
  EXPECT_EQ(c.heads, 2u);
  EXPECT_EQ(c.lists, 2u);
  EXPECT_EQ(c.deletes, 2u);
  EXPECT_EQ(c.bytes_written, 5u + 3u + 2u + 1u);  // attempted writes
  EXPECT_EQ(c.bytes_read, 8u + 3u);               // successful reads only
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("objstore.counting.puts"), 4u);
  EXPECT_EQ(snap.counter("objstore.counting.bytes_read"), 11u);
  for (const char* op :
       {"get", "getrange", "put", "putrange", "delete", "head", "list"}) {
    EXPECT_EQ(store.latencies().For(op).count(), 2u) << op;
    EXPECT_EQ(snap.histogram(std::string("objstore.") + op).count, 2u) << op;
  }

  std::vector<std::string> spans;
  for (const auto& s : tracer.Spans()) {
    if (s.name != "test.op") spans.push_back(s.name);
  }
  EXPECT_EQ(spans, (std::vector<std::string>{
                       "objstore.put", "objstore.putrange", "objstore.get",
                       "objstore.getrange", "objstore.head", "objstore.list",
                       "objstore.delete"}));

  store.Reset();
  EXPECT_EQ(store.Snapshot().puts, 0u);
  EXPECT_EQ(store.latencies().For("put").count(), 0u);
}

// A store that predates guarded writes: every op is a stub, the guarded
// ones are ObjectStore's defaults.
class NoGuardStore : public ObjectStore {
 public:
  Result<Bytes> Get(const std::string&) override { return Bytes{}; }
  Result<Bytes> GetRange(const std::string&, std::uint64_t,
                         std::uint64_t) override {
    return Bytes{};
  }
  Status Put(const std::string&, ByteSpan) override { return Status::Ok(); }
  Status PutRange(const std::string&, std::uint64_t, ByteSpan) override {
    return Status::Ok();
  }
  Status Delete(const std::string&) override { return Status::Ok(); }
  Result<ObjectMeta> Head(const std::string&) override { return ObjectMeta{}; }
  Result<std::vector<std::string>> List(const std::string&) override {
    return std::vector<std::string>{};
  }
  bool supports_partial_write() const override { return true; }
  std::uint64_t max_object_size() const override { return 1 << 20; }
  std::string name() const override { return "no-guard"; }
};

TEST(GuardedWriteTest, StoreWithoutGuardsFailsSafe) {
  NoGuardStore store;
  EXPECT_EQ(store.PutIf("k", AsBytes("x"), WriteGuard{}).code(),
            Errc::kNotSup);
  EXPECT_EQ(store.PutRangeIf("k", 0, AsBytes("x"), WriteGuard{}).code(),
            Errc::kNotSup);
  EXPECT_EQ(store.DeleteIf("k", WriteGuard{}).code(), Errc::kNotSup);
}

// Every decorator forwards the guard, on writes and deletes: a match
// lands, a mismatch comes back kStale with the bytes untouched. The
// placement layers forward on keys they leave alone and refuse (kNotSup)
// on keys they encode or tier.
TEST(GuardedWriteTest, EveryDecoratorForwardsTheGuard) {
  const auto data_key = [](const std::string& key) { return key[0] == 'd'; };
  auto base = std::make_shared<MemoryObjectStore>();
  EcStoreOptions ec;
  ec.k = 2;
  ec.m = 1;
  ec.should_encode = data_key;
  TieringOptions tiering;
  tiering.should_tier = data_key;
  obs::MetricsRegistry registry;
  auto instrumented = std::make_shared<InstrumentedStore>(base, &registry);
  const std::vector<std::pair<std::string, ObjectStorePtr>> stacks = {
      {"instrumented", instrumented},
      {"retrying",
       std::make_shared<RetryingStore>(base, RetryPolicy::ForTests())},
      {"chaos", std::make_shared<ChaosStore>(base, ChaosConfig{})},
      {"ec", std::make_shared<EcStore>(base, ec)},
      {"tiering", std::make_shared<TieringStore>(base, tiering)},
  };
  const Bytes hdr = ToBytes("HDR:");
  const Bytes wrong = ToBytes("OLD:");
  for (const auto& [name, store] : stacks) {
    const std::string key = "j-" + name;
    ASSERT_TRUE(base->Put(key, ToBytes("HDR:a")).ok()) << name;
    EXPECT_TRUE(store->PutIf(key, ToBytes("HDR:ab"), WriteGuard{0, hdr}).ok())
        << name;
    EXPECT_TRUE(
        store->PutRangeIf(key, 6, AsBytes("c"), WriteGuard{0, hdr}).ok())
        << name;
    EXPECT_EQ(store->PutIf(key, ToBytes("OLD:x"), WriteGuard{0, wrong}).code(),
              Errc::kStale)
        << name;
    EXPECT_EQ(
        store->PutRangeIf(key, 7, AsBytes("x"), WriteGuard{0, wrong}).code(),
        Errc::kStale)
        << name;
    EXPECT_EQ(ToString(base->Get(key).value()), "HDR:abc") << name;
    EXPECT_EQ(store->PutIf(key, ToBytes("new"), WriteGuard::Absent()).code(),
              Errc::kStale)
        << name;
    EXPECT_TRUE(
        store->PutIf(key + "-new", ToBytes("new"), WriteGuard::Absent()).ok())
        << name;
    EXPECT_EQ(store->DeleteIf(key, WriteGuard{0, wrong}).code(), Errc::kStale)
        << name;
    EXPECT_TRUE(base->Head(key).ok()) << name;
    EXPECT_TRUE(store->DeleteIf(key, WriteGuard{0, hdr}).ok()) << name;
    EXPECT_EQ(base->Head(key).code(), Errc::kNoEnt) << name;
    EXPECT_EQ(store->DeleteIf(key, WriteGuard{0, hdr}).code(), Errc::kNoEnt)
        << name;
  }
  // Each guarded delete counts and times as one delete.
  EXPECT_EQ(instrumented->Snapshot().deletes, 3u);
  EXPECT_EQ(instrumented->latencies().For("delete").count(), 3u);
  for (std::size_t i : {3u, 4u}) {  // ec, tiering: a key they own
    const auto& [name, store] = stacks[i];
    EXPECT_EQ(store->PutIf("d1", ToBytes("x"), WriteGuard{}).code(),
              Errc::kNotSup)
        << name;
    EXPECT_EQ(store->PutRangeIf("d1", 0, AsBytes("x"), WriteGuard{}).code(),
              Errc::kNotSup)
        << name;
    EXPECT_EQ(store->DeleteIf("d1", WriteGuard{}).code(), Errc::kNotSup)
        << name;
  }
}

TEST(GuardedWriteTest, InstrumentedCountsAGuardedWriteAsOnePut) {
  obs::MetricsRegistry registry;
  InstrumentedStore store(std::make_shared<MemoryObjectStore>(), &registry);
  ASSERT_TRUE(store.Put("k", ToBytes("HDR:")).ok());
  store.Reset();
  const Bytes hdr = ToBytes("HDR:");
  ASSERT_TRUE(store.PutIf("k", ToBytes("HDR:a"), WriteGuard{0, hdr}).ok());
  ASSERT_TRUE(store.PutRangeIf("k", 5, AsBytes("b"), WriteGuard{0, hdr}).ok());
  const auto c = store.Snapshot();
  EXPECT_EQ(c.puts, 2u);
  EXPECT_EQ(c.gets, 0u);
  EXPECT_EQ(c.bytes_written, 5u + 1u);
  EXPECT_EQ(store.latencies().For("put").count(), 1u);
  EXPECT_EQ(store.latencies().For("putrange").count(), 1u);
}

// Restampers advance a fence header at offset 0 (each stamp guarded on the
// header it read) while appenders land 8-byte records guarded on the header
// they read, each in its own slot. Right after every successful stamp the
// restamper snapshots the object. An append guarded on token h may only
// land while the header is h, so any record with h < k that survives in the
// final object must already be in the snapshot taken after stamp k — one
// absent there landed after a header that did not match its guard.
void RaceStampsAgainstGuardedAppends(ObjectStorePtr store) {
  const std::string key = "j-race";
  constexpr int kSlots = 1200;
  constexpr std::uint64_t kMaxEpoch = 400;  // bounds the snapshots kept
  ASSERT_TRUE(store->Put(key, EncodeFenceObject({1, 0})).ok());
  std::atomic<int> next_slot{0};
  std::atomic<bool> appending{true};
  std::atomic<int> landed{0};
  std::mutex snap_mu;
  std::map<std::uint64_t, Bytes> snapshots;  // stamped epoch -> object

  auto epoch_of = [](ByteSpan header) {
    return DecodeFenceObject(header.first(kFenceObjectBytes)).value().epoch;
  };
  auto restamper = [&] {
    while (appending.load()) {
      auto header = store->GetRange(key, 0, kFenceObjectBytes);
      ASSERT_TRUE(header.ok());
      const std::uint64_t next = epoch_of(*header) + 1;
      if (next > kMaxEpoch) return;
      const Bytes mine = EncodeFenceObject({next, 0});
      if (!store->PutRangeIf(key, 0, mine, WriteGuard{0, *header}).ok()) {
        continue;  // the other restamper won this epoch
      }
      auto snap = store->Get(key);
      ASSERT_TRUE(snap.ok());
      std::lock_guard lock(snap_mu);
      snapshots[next] = std::move(*snap);
    }
  };
  auto appender = [&] {
    for (int slot; (slot = next_slot.fetch_add(1)) < kSlots;) {
      auto header = store->GetRange(key, 0, kFenceObjectBytes);
      ASSERT_TRUE(header.ok());
      Encoder rec;
      rec.PutU64(epoch_of(*header));
      const Status st = store->PutRangeIf(
          key, kFenceObjectBytes + 8 * static_cast<std::uint64_t>(slot),
          rec.buffer(), WriteGuard{0, *header});
      ASSERT_TRUE(st.ok() || st.code() == Errc::kStale) << st.ToString();
      if (st.ok()) ++landed;
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) threads.emplace_back(restamper);
  std::vector<std::thread> appenders;
  for (int i = 0; i < 3; ++i) appenders.emplace_back(appender);
  for (auto& t : appenders) t.join();
  appending = false;
  for (auto& t : threads) t.join();

  const Bytes final_object = store->Get(key).value();
  auto record_at = [](const Bytes& object, int slot) -> std::uint64_t {
    const std::size_t at = kFenceObjectBytes + 8 * static_cast<std::size_t>(slot);
    if (object.size() < at + 8) return 0;
    Decoder dec(ByteSpan(object).subspan(at, 8));
    return dec.GetU64().value();
  };
  int records = 0;
  for (int slot = 0; slot < kSlots; ++slot) {
    const std::uint64_t h = record_at(final_object, slot);
    if (h == 0) continue;  // its append missed the guard
    ++records;
    for (const auto& [k, snap] : snapshots) {
      if (h < k) {
        ASSERT_EQ(record_at(snap, slot), h)
            << "append guarded on epoch " << h << " landed after stamp " << k;
      }
    }
  }
  EXPECT_EQ(records, landed.load());
  EXPECT_GT(records, 0);
}

TEST(GuardedWriteTest, StampsNeverLetAStaleAppendLandMemory) {
  RaceStampsAgainstGuardedAppends(std::make_shared<MemoryObjectStore>());
}

TEST(GuardedWriteTest, StampsNeverLetAStaleAppendLandCluster) {
  RaceStampsAgainstGuardedAppends(
      std::make_shared<ClusterObjectStore>(ClusterConfig::Instant(4)));
}

TEST(FaultInjectionTest, InjectsOnMatch) {
  auto base = std::make_shared<MemoryObjectStore>();
  int puts_allowed = 2;
  ChaosStore store(base, ChaosConfig{},
                   [&](std::string_view op, const std::string&) {
                     if (op == "put" && puts_allowed-- <= 0) return Errc::kIo;
                     return Errc::kOk;
                   });
  EXPECT_TRUE(store.Put("a", ToBytes("1")).ok());
  EXPECT_TRUE(store.Put("b", ToBytes("2")).ok());
  EXPECT_EQ(store.Put("c", ToBytes("3")).code(), Errc::kIo);
  EXPECT_TRUE(store.Get("a").ok());  // reads unaffected
}

}  // namespace
}  // namespace arkfs
