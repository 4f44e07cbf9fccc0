// Figure 6(b) — large-file sequential bandwidth on S3.
//
// Paper setup: the same fio workload on AWS S3, comparing ArkFS (8 MiB and
// 400 MB read-ahead variants) with S3FS and goofys. Observations:
//   * WRITE: ArkFS 5.95x over S3FS — S3FS stages everything through a slow
//     disk cache and uploads at fsync;
//   * READ: ArkFS 3.59x over S3FS (disk-cache bounce), but goofys beats
//     ArkFS-ra8MB thanks to its 400 MB read-ahead; raising ArkFS's
//     read-ahead to 400 MB closes the gap.
//
// Scaled for CI: 8 jobs x 16 MiB on the S3-profile store.
#include <algorithm>

#include "bench_util.h"
#include "common/stats.h"
#include "workloads/fio_like.h"

using namespace arkfs;
using workloads::FioConfig;
using workloads::FioResult;

namespace {

FioConfig BenchConfig() {
  FioConfig config;
  config.num_jobs = 8;
  config.file_size = 16ull << 20;
  config.request_size = 128ull << 10;
  return config;
}

CacheConfig ArkCache(std::uint64_t max_readahead) {
  CacheConfig cache;
  // On a whole-object backend the cache flushes aligned full chunks, so the
  // entry size matches the data chunk size (no read-modify-write).
  cache.entry_size = 4ull << 20;
  cache.max_entries = 96;
  cache.max_readahead = max_readahead;
  cache.initial_readahead = std::min<std::uint64_t>(max_readahead, 4ull << 20);
  return cache;
}

FioResult RunArk(std::uint64_t readahead, const FioConfig& base) {
  const CacheConfig cache = ArkCache(readahead);
  const int workers = cache.ReadAheadWorkers();
  auto env = bench::ArkBenchEnv::Create(
      ClusterConfig::S3Like(), /*pcache=*/true, cache,
      /*chunk_size=*/4ull << 20, /*read_delegations=*/true,
      DataPlacement::kReplica, [workers](ArkFsClusterOptions* o) {
        o->client_template.async.workers = workers;
      });
  auto client = env.cluster->AddClient().value();
  VfsPtr mount = env.cluster->WithFuse(client);
  FioConfig config = base;
  config.drop_caches = [&] { (void)mount->DropCaches(); };
  return workloads::RunFio([&](int) { return mount; }, config).value();
}

}  // namespace

int main() {
  bench::Header("Figure 6(b): fio sequential bandwidth on S3",
                "Fig. 6(b) — ArkFS-ra8MB / ArkFS-ra400MB vs S3FS / goofys");
  bench::PaperClaim("WRITE: ArkFS 5.95x S3FS; READ: ArkFS 3.59x S3FS, "
                    "goofys > ArkFS-ra8MB, ArkFS-ra400MB ~ goofys");

  const FioConfig config = BenchConfig();
  std::printf("  config: %d jobs x %llu MiB, %llu KiB requests, S3 profile "
              "(4 ms op latency, whole-object PUT)\n",
              config.num_jobs,
              static_cast<unsigned long long>(config.file_size >> 20),
              static_cast<unsigned long long>(config.request_size >> 10));

  struct RunRow {
    std::string name;
    FioResult result;
  };
  std::vector<RunRow> rows;

  rows.push_back({"ArkFS-ra8MB", RunArk(8ull << 20, config)});
  rows.push_back({"ArkFS-ra400MB", RunArk(400ull << 20, config)});
  {
    auto store = std::make_shared<ClusterObjectStore>(ClusterConfig::S3Like());
    // One mount per job, all sharing the node's local cache volume.
    auto node_disk = std::make_shared<sim::SharedLink>(250e6);
    std::vector<VfsPtr> mounts;
    for (int j = 0; j < config.num_jobs; ++j) {
      mounts.push_back(baselines::MakeS3FsLike(store, node_disk));
    }
    FioConfig c = config;
    c.drop_caches = [&] {
      for (auto& m : mounts) (void)m->DropCaches();
    };
    rows.push_back(
        {"S3FS",
         workloads::RunFio([&](int j) { return mounts[j]; }, c).value()});
  }
  {
    auto store = std::make_shared<ClusterObjectStore>(ClusterConfig::S3Like());
    std::vector<VfsPtr> mounts;
    for (int j = 0; j < config.num_jobs; ++j) {
      mounts.push_back(baselines::MakeGoofysLike(store));
    }
    FioConfig c = config;
    c.drop_caches = [&] {
      for (auto& m : mounts) (void)m->DropCaches();
    };
    rows.push_back(
        {"goofys",
         workloads::RunFio([&](int j) { return mounts[j]; }, c).value()});
  }

  std::printf("\n  %-16s %14s %14s\n", "system", "WRITE", "READ");
  for (const auto& row : rows) {
    std::printf("  %-16s %14s %14s\n", row.name.c_str(),
                FormatBytes(row.result.write_bw_bps).c_str(),
                FormatBytes(row.result.read_bw_bps).c_str());
  }

  std::printf("\n");
  bench::Row("WRITE ArkFS/S3FS",
             bench::Fmt("%.2fx (paper: 5.95x)",
                        rows[0].result.write_bw_bps / rows[2].result.write_bw_bps));
  bench::Row("READ ArkFS-8MB/S3FS",
             bench::Fmt("%.2fx (paper: 3.59x)",
                        rows[0].result.read_bw_bps / rows[2].result.read_bw_bps));
  bench::Row("READ goofys/ArkFS-8MB",
             bench::Fmt("%.2fx (paper: goofys clearly ahead)",
                        rows[3].result.read_bw_bps / rows[0].result.read_bw_bps));
  bench::Row("READ ArkFS-400MB/goofys",
             bench::Fmt("%.2fx (paper: ~1x)",
                        rows[1].result.read_bw_bps / rows[3].result.read_bw_bps));
  return 0;
}
