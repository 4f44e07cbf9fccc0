// End-to-end trace propagation: one Vfs request carries ONE trace id from
// the entry-point root span through the lease RPC, the journal append /
// fence, and down to the object-store PUT — the acceptance path of the
// unified observability plane.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/wire.h"
#include "obs/metrics.h"
#include "objstore/memory_store.h"

namespace arkfs {
namespace {

class TracePropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_shared<MemoryObjectStore>();
    ArkFsClusterOptions opts = ArkFsClusterOptions::ForTests();
    opts.client_template.metrics = &registry_;
    opts.lease.metrics = &registry_;
    cluster_ = ArkFsCluster::Create(store_, opts).value();
    client_ = cluster_->AddClient("tracer").value();
  }

  // All span names recorded under `trace_id`, in completion order.
  std::vector<std::string> NamesIn(const std::vector<obs::SpanRecord>& spans,
                                   std::uint64_t trace_id) {
    std::vector<std::string> names;
    for (const auto& s : spans) {
      if (s.trace_id == trace_id) names.push_back(s.name);
    }
    return names;
  }

  obs::MetricsRegistry registry_;
  ObjectStorePtr store_;
  std::unique_ptr<ArkFsCluster> cluster_;
  std::shared_ptr<Client> client_;
  UserCred root_ = UserCred::Root();
};

TEST_F(TracePropagationTest, OneCreateIsOneTraceAcrossAllLayers) {
  OpenOptions create;
  create.write = true;
  create.create = true;
  auto fd = client_->Open("/traced.txt", create, root_);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client_->Close(*fd).ok());

  const auto report = client_->Introspect();
  ASSERT_FALSE(report.spans.empty());

  // The create's root span: the first "vfs.open" recorded.
  auto root_it = std::find_if(
      report.spans.begin(), report.spans.end(),
      [](const obs::SpanRecord& s) { return s.name == "vfs.open"; });
  ASSERT_NE(root_it, report.spans.end());
  const std::uint64_t trace_id = root_it->trace_id;
  ASSERT_NE(trace_id, 0u);

  const auto names = NamesIn(report.spans, trace_id);
  // Every layer the first create in a fresh directory must cross, all
  // under the SAME trace id: client dispatch, the lease-acquire RPC (both
  // the client stub and the manager handler — the in-process fabric runs
  // it on the caller thread), the journal fence of the new leadership, the
  // dentry-add journal append, and the fence's object-store PUT.
  for (const char* required :
       {"client.run_dir_op", "lease.acquire", "lease.manager.acquire",
        "journal.fence", "journal.append", "objstore.put"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing span \"" << required << "\" in trace; got "
        << ::testing::PrintToString(names);
  }

  // The root span is the trace's only parentless span.
  int roots = 0;
  for (const auto& s : report.spans) {
    if (s.trace_id == trace_id && s.parent_span == 0) ++roots;
  }
  EXPECT_EQ(roots, 1);
}

TEST_F(TracePropagationTest, SeparateRequestsGetSeparateTraceIds) {
  ASSERT_TRUE(client_->Mkdir("/a", 0755, root_).ok());
  ASSERT_TRUE(client_->Mkdir("/b", 0755, root_).ok());
  const auto spans = client_->Introspect().spans;
  std::set<std::uint64_t> mkdir_traces;
  for (const auto& s : spans) {
    if (s.name == "vfs.mkdir") mkdir_traces.insert(s.trace_id);
  }
  EXPECT_EQ(mkdir_traces.size(), 2u);
}

TEST_F(TracePropagationTest, ForwardedOpKeepsTheRequesterTraceId) {
  // Client A becomes leader of a directory; client B's create in it is
  // forwarded over the dir-op RPC. The wire frame carries B's trace
  // context, so A's serving spans land under B's trace id (in A's ring).
  ASSERT_TRUE(client_->Mkdir("/shared", 0755, root_).ok());
  ASSERT_TRUE(
      client_->WriteFileAt("/shared/warm", AsBytes("x"), root_).ok());

  auto peer = cluster_->AddClient("peer").value();
  ASSERT_TRUE(peer->WriteFileAt("/shared/from_peer", AsBytes("y"), root_).ok());

  // Find the peer's trace that carried the forwarded create.
  std::uint64_t forwarded_trace = 0;
  for (const auto& s : peer->tracer().Spans()) {
    if (s.name == "client.run_dir_op") forwarded_trace = s.trace_id;
  }
  ASSERT_NE(forwarded_trace, 0u);

  // The serving leader recorded its handler span under that same id.
  bool served_under_same_trace = false;
  for (const auto& s : client_->tracer().Spans()) {
    if (s.name == "client.serve_dir_op" && s.trace_id == forwarded_trace) {
      served_under_same_trace = true;
    }
  }
  EXPECT_TRUE(served_under_same_trace);
  EXPECT_GT(client_->stats().served_remote_ops, 0u);
}

TEST_F(TracePropagationTest, IntrospectExportsTheMetricsPlane) {
  ASSERT_TRUE(client_->Mkdir("/m", 0755, root_).ok());
  ASSERT_TRUE(client_->SyncAll().ok());  // commits the mkdir's transaction
  const auto report = client_->Introspect();
  EXPECT_GT(report.metrics.counter("client.lease_acquires"), 0u);
  EXPECT_GT(report.metrics.counter("journal.transactions_committed"), 0u);
  EXPECT_GT(report.metrics.counter("lease.grants"), 0u);
  EXPECT_GT(registry_.Snapshot().counter("client.lease_acquires"), 0u);
}

// Every placement builds the cluster's stack through StackBuilder, so one
// InstrumentedStore on top sees the writes of every placement.
class ClusterStackTest : public ::testing::TestWithParam<DataPlacement> {};

TEST_P(ClusterStackTest, InstrumentedStoreCountsTheWritesPuts) {
  obs::MetricsRegistry registry;
  ArkFsClusterOptions opts = ArkFsClusterOptions::ForTests();
  opts.client_template.metrics = &registry;
  opts.placement = GetParam();
  auto cluster =
      ArkFsCluster::Create(std::make_shared<MemoryObjectStore>(), opts)
          .value();
  // A copy, so the store outlives the cluster torn down below.
  const std::shared_ptr<InstrumentedStore> instrumented =
      cluster->instrumented_store();
  ASSERT_NE(instrumented, nullptr);
  EXPECT_EQ(cluster->store(), instrumented);
  auto client = cluster->AddClient().value();

  const Bytes payload(64 << 10, 0x7e);
  const auto before = instrumented->Snapshot();
  ASSERT_TRUE(client->WriteFileAt("/f", payload, UserCred::Root()).ok());
  ASSERT_TRUE(client->SyncAll().ok());
  const auto after = instrumented->Snapshot();
  EXPECT_GT(after.puts, before.puts);
  EXPECT_GE(after.bytes_written - before.bytes_written, payload.size());

  // The journal checkpoint that follows SyncAll writes from a background
  // thread; stop the cluster so no put lands between the two reads below.
  client.reset();
  cluster.reset();
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("objstore.counting.puts"),
            instrumented->Snapshot().puts);
  EXPECT_GT(snap.histogram("objstore.put").count +
                snap.histogram("objstore.putrange").count,
            0u);
}

INSTANTIATE_TEST_SUITE_P(AllPlacements, ClusterStackTest,
                         ::testing::Values(DataPlacement::kReplica,
                                           DataPlacement::kEc,
                                           DataPlacement::kTiered));

// Every proper prefix of `encoded` and `encoded` plus one byte must fail to
// decode: each field is mandatory and nothing may follow the last one.
template <typename Message>
void ExpectStrictFrame(const Bytes& encoded) {
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    Bytes truncated(encoded.begin(), encoded.begin() + len);
    EXPECT_FALSE(Message::Decode(truncated).ok())
        << "decoded a " << len << "-byte prefix of a " << encoded.size()
        << "-byte frame";
  }
  Bytes padded = encoded;
  padded.push_back(0x5a);
  EXPECT_FALSE(Message::Decode(padded).ok());
}

// The tenant id rides the dir-op request frame next to the trace context;
// both dir-op frames are strict.
TEST(DirOpWireTenantTest, TenantRoundTripsAndFramesAreStrict) {
  wire::DirOpRequest req;
  req.op = wire::DirOp::kCreate;
  req.dir_ino = DeterministicUuid(5, 5);
  req.name = "f";
  req.client = "c1";
  req.trace_id = 111;
  req.parent_span = 222;
  req.tenant = 7;
  const Bytes encoded = req.Encode();
  auto copy = wire::DirOpRequest::Decode(encoded);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->tenant, 7u);
  EXPECT_EQ(copy->trace_id, 111u);
  EXPECT_EQ(copy->parent_span, 222u);
  ExpectStrictFrame<wire::DirOpRequest>(encoded);

  wire::DirOpResponse resp;
  resp.code = Errc::kExist;
  resp.detail = "f";
  resp.lease_granted = true;
  resp.fence = FenceToken{3, 9};
  resp.watermark = 42;
  resp.child_inodes.push_back(MakeInode(DeterministicUuid(5, 6),
                                        FileType::kRegular, 0644, 0, 0,
                                        req.dir_ino));
  const Bytes reply = resp.Encode();
  auto back = wire::DirOpResponse::Decode(reply);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->code, Errc::kExist);
  EXPECT_EQ(back->fence, resp.fence);
  EXPECT_EQ(back->watermark, 42u);
  ASSERT_EQ(back->child_inodes.size(), 1u);
  ExpectStrictFrame<wire::DirOpResponse>(reply);
}

// End-to-end: each client's tenant id crosses the dir-op RPC and is what
// the serving leader's admission controller sees — per-tenant admitted
// counters appear for BOTH the leader's own tenant and the forwarding
// peer's.
TEST(TenantPropagationTest, TenantReachesTheServingLeaderAdmission) {
  obs::MetricsRegistry registry;
  auto store = std::make_shared<MemoryObjectStore>();
  ArkFsClusterOptions opts = ArkFsClusterOptions::ForTests();
  opts.client_template.metrics = &registry;
  opts.admission.enabled = true;  // unlimited default rate: admit and count
  auto cluster = ArkFsCluster::Create(store, opts).value();
  const UserCred root = UserCred::Root();

  auto leader = cluster->AddClient("leader", /*tenant=*/3).value();
  ASSERT_TRUE(leader->Mkdir("/t", 0755, root).ok());
  ASSERT_TRUE(leader->WriteFileAt("/t/file", AsBytes("x"), root).ok());

  auto peer = cluster->AddClient("peer", /*tenant=*/9).value();
  ASSERT_TRUE(peer->WriteFileAt("/t/peer", AsBytes("y"), root).ok());

  const auto snap = registry.Snapshot();
  EXPECT_GT(snap.counter("tenant.3.admitted"), 0u);
  EXPECT_GT(snap.counter("tenant.9.admitted"), 0u);
  EXPECT_EQ(snap.counter("tenant.3.shed"), 0u);
  EXPECT_EQ(snap.counter("tenant.9.shed"), 0u);
}

// A forwarded op is admitted once, by the leader that serves it: the
// peer's lease acquire that only redirects it to that leader is free.
TEST(TenantPropagationTest, ForwardedOpIsAdmittedOnce) {
  obs::MetricsRegistry registry;
  auto store = std::make_shared<MemoryObjectStore>();
  ArkFsClusterOptions opts = ArkFsClusterOptions::ForTests();
  opts.client_template.metrics = &registry;
  opts.admission.enabled = true;  // unlimited default rate: admit and count
  // Leases outlast the run, so the peer never takes a directory over.
  opts.lease.lease_period = Seconds(10);
  auto cluster = ArkFsCluster::Create(store, opts).value();
  const UserCred root = UserCred::Root();

  auto leader = cluster->AddClient("leader", /*tenant=*/3).value();
  ASSERT_TRUE(leader->Mkdir("/t", 0755, root).ok());
  ASSERT_TRUE(leader->WriteFileAt("/t/file", AsBytes("x"), root).ok());
  auto peer = cluster->AddClient("peer", /*tenant=*/9).value();
  ASSERT_TRUE(peer->Mkdir("/t/warm", 0755, root).ok());

  const std::uint64_t admitted_before =
      registry.Snapshot().counter("tenant.9.admitted");
  const std::uint64_t forwarded_before = peer->stats().forwarded_ops;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(peer->Mkdir("/t/d" + std::to_string(i), 0755, root).ok());
  }
  const std::uint64_t forwarded =
      peer->stats().forwarded_ops - forwarded_before;
  EXPECT_GE(forwarded, 8u);
  EXPECT_EQ(registry.Snapshot().counter("tenant.9.admitted") - admitted_before,
            forwarded);
  EXPECT_EQ(peer->stats().lease_acquires, 0u);
}

}  // namespace
}  // namespace arkfs
