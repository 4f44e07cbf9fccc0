// Tests for the object-store backends and decorators.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "objstore/chaos_store.h"
#include "objstore/cluster_store.h"
#include "objstore/disk_store.h"
#include "objstore/instrumented_store.h"
#include "objstore/memory_store.h"
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
      c.profile.supports_partial_write = false;
      // Like ClusterConfig::S3Like(): whole-object semantics at the node
      // stores, PutRange served by read-modify-write emulation.
      c.emulate_partial_write = true;
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
    // kNotSup is only legitimate when the backend neither supports partial
    // writes natively nor emulates them; no stock backend is configured
    // that way any more (S3 semantics emulate via read-modify-write).
    EXPECT_FALSE(store_->supports_partial_write());
    return;
  }
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(ToString(store_->Get("k").value()), "AAbbAAAA");
  // Extension through PutRange.
  ASSERT_TRUE(store_->PutRange("k", 8, AsBytes("ZZ")).ok());
  EXPECT_EQ(store_->Head("k")->size, 10u);
}

TEST_P(StoreContractTest, PartialWriteCreatesAndZeroFills) {
  // Every stock backend serves PutRange — natively, or (S3 semantics)
  // through the cluster store's read-modify-write emulation — so the old
  // reasoned skip for whole-object profiles is a real assertion now.
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
