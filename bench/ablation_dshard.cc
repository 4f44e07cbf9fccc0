// Ablation — sharded dentry blocks (dirty-shard checkpointing).
//
// The per-directory dentry block is the checkpoint write amplifier: folding
// a handful of journaled mutations into a 100k-entry directory rewrites the
// whole block every time. Sharding the block B ways means a checkpoint
// rewrites only the shards its burst dirtied. Two sweeps:
//   1. Checkpoint store-bytes-written for a small mutation burst into a
//      100k-entry directory, B in {1, 4, 16, 64} — the write-amplification
//      claim (>=10x reduction at B=16 for a 1-op burst).
//   2. mdtest-hard over a full ArkFS deployment at every B — sharding must
//      not regress the paper's shared-directory workload.
#include "bench_util.h"
#include "journal/journal.h"
#include "objstore/instrumented_store.h"
#include "objstore/memory_store.h"
#include "workloads/mdtest.h"

using namespace arkfs;
using journal::DentryShardPolicy;
using journal::JournalConfig;
using journal::JournalManager;
using journal::Record;

namespace {

constexpr std::uint64_t kDirEntries = 100000;

struct SweepPoint {
  std::uint32_t shards = 0;
  double build_ops = 0;            // creates/s while filling the directory
  std::uint64_t burst1_bytes = 0;  // store bytes written, 1-op burst flush
  std::uint64_t burst5_bytes = 0;  // store bytes written, 5-op burst flush
  std::uint64_t burst1_shard_puts = 0;
  std::uint64_t burst5_shard_puts = 0;
};

Record AddEntry(std::uint64_t i, const char* prefix) {
  return Record::DentryAdd({prefix + std::to_string(i),
                            DeterministicUuid(3, i), FileType::kRegular});
}

SweepPoint RunSweep(std::uint32_t shard_count) {
  auto base = std::make_shared<MemoryObjectStore>();
  auto counting = std::make_shared<InstrumentedStore>(base);
  auto prt = std::make_shared<Prt>(counting);
  JournalConfig cfg;
  cfg.shard_policy.override_count = shard_count;
  JournalManager mgr(prt, cfg);

  const Uuid dir = DeterministicUuid(1, 1);
  Inode di = MakeInode(dir, FileType::kDirectory, 0755, 0, 0, kRootIno);
  if (!prt->StoreInode(di).ok()) return {};
  const FenceToken token{1, 1};
  if (!mgr.FenceDir(dir, token).ok()) return {};
  mgr.RegisterDir(dir, token);

  SweepPoint point;
  point.shards = shard_count;

  // Fill to 100k entries in checkpointed batches (archiving-burst shape).
  ThroughputMeter meter;
  meter.Start();
  constexpr std::uint64_t kBatch = 5000;
  for (std::uint64_t start = 0; start < kDirEntries; start += kBatch) {
    std::vector<Record> records;
    records.reserve(kBatch);
    for (std::uint64_t i = start; i < start + kBatch; ++i) {
      records.push_back(AddEntry(i, "f"));
    }
    (void)mgr.Append(dir, std::move(records));
    if (!mgr.FlushDir(dir).ok()) return point;
  }
  meter.Stop();
  meter.AddOps(kDirEntries);
  point.build_ops = meter.OpsPerSecond();

  // Small mutation bursts into the now-large directory: what the paper's
  // steady archiving state looks like between big ingests.
  counting->Reset();
  const std::uint64_t shard_puts_before = mgr.metrics().dentry_shards_written.value();
  (void)mgr.Append(dir, {AddEntry(kDirEntries + 1, "late")});
  if (!mgr.FlushDir(dir).ok()) return point;
  point.burst1_bytes = counting->Snapshot().bytes_written;
  point.burst1_shard_puts =
      mgr.metrics().dentry_shards_written.value() - shard_puts_before;

  counting->Reset();
  const std::uint64_t puts5_before = mgr.metrics().dentry_shards_written.value();
  std::vector<Record> burst;
  for (std::uint64_t i = 0; i < 5; ++i) {
    burst.push_back(AddEntry(kDirEntries + 10 + i, "late"));
  }
  (void)mgr.Append(dir, std::move(burst));
  if (!mgr.FlushDir(dir).ok()) return point;
  point.burst5_bytes = counting->Snapshot().bytes_written;
  point.burst5_shard_puts = mgr.metrics().dentry_shards_written.value() - puts5_before;
  return point;
}

}  // namespace

int main() {
  bench::Header("Ablation: dentry-block shard count",
                "supports SIII-E/F (checkpoint write amplification)");
  bench::PaperClaim("per-directory metadata objects keep checkpoints local; "
                    "sharding bounds the rewrite to the dirtied shards");

  std::printf("\n  checkpoint write amplification (%llu-entry directory):\n",
              static_cast<unsigned long long>(kDirEntries));
  std::printf("  %8s %12s %16s %14s %16s %14s %12s\n", "shards",
              "build ops/s", "burst=1 bytes", "shard puts(1)",
              "burst=5 bytes", "shard puts(5)", "vs B=1");
  std::uint64_t baseline = 0;
  for (std::uint32_t b : {1u, 4u, 16u, 64u}) {
    const SweepPoint p = RunSweep(b);
    if (b == 1) baseline = p.burst1_bytes;
    std::printf("  %8u %12.0f %16llu %14llu %16llu %14llu %11.1fx\n",
                p.shards, p.build_ops,
                static_cast<unsigned long long>(p.burst1_bytes),
                static_cast<unsigned long long>(p.burst1_shard_puts),
                static_cast<unsigned long long>(p.burst5_bytes),
                static_cast<unsigned long long>(p.burst5_shard_puts),
                p.burst1_bytes > 0
                    ? static_cast<double>(baseline) / p.burst1_bytes
                    : 0.0);
  }
  bench::Note("burst=1 at B=16 must be >=10x below B=1: the flush rewrites "
              "one ~6k-entry shard instead of the 100k-entry block");

  std::printf("\n  mdtest-hard no-regression sweep (16 procs, shared dirs):\n");
  workloads::MdtestConfig config;
  config.num_processes = 16;
  config.files_per_process = 60;
  config.file_size = 3901;
  config.shared_dirs = 16;
  std::printf("  %8s", "shards");
  bool header_done = false;
  for (std::uint32_t b : {1u, 4u, 16u, 64u}) {
    auto store = std::make_shared<ClusterObjectStore>(ClusterConfig::RadosLike());
    ArkFsClusterOptions options;
    options.network = sim::NetworkProfile::Datacenter10G();
    options.lease = lease::LeaseManagerConfig{Seconds(5), Millis(100)};
    ClientConfig client;
    client.journal.commit_interval = Millis(200);
    client.journal.shard_policy.override_count = b;
    options.client_template = client;
    auto cluster = ArkFsCluster::Create(store, options).value();
    auto ark = cluster->AddClient().value();
    VfsPtr mount = cluster->WithFuse(ark, bench::ScaledFuse(16));
    auto phases =
        workloads::RunMdtestHard([&](int) { return mount; }, config).value();
    if (!header_done) {
      for (const auto& ph : phases) std::printf(" %12s", ph.phase.c_str());
      std::printf("   (ops/s)\n");
      header_done = true;
    }
    std::printf("  %8u", b);
    for (const auto& ph : phases) {
      std::printf(" %12.0f", ph.ops_per_second);
    }
    std::printf("\n");
  }
  bench::Note("all phases should hold steady across B: reads batch all "
              "shards in one MultiGet, writes touch only dirty shards");
  return 0;
}
