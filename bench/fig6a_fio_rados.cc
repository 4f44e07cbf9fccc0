// Figure 6(a) — large-file sequential bandwidth on RADOS.
//
// Paper setup: fio, 32 processes, each writing then reading a 32 GiB file
// with 128 KiB requests (1 TiB total), fsync + cache drop between phases.
// Observations reproduced here:
//   * WRITE: ArkFS ~ CephFS-K ~ CephFS-F (all write-back caches);
//   * READ: ArkFS ~ CephFS-K (both 8 MiB read-ahead) >> CephFS-F
//     (128 KiB default read-ahead cannot hide the round trips).
//
// Scaled for CI: 16 jobs x 12 MiB.
#include <algorithm>

#include "bench_util.h"
#include "common/stats.h"
#include "workloads/fio_like.h"

using namespace arkfs;
using baselines::MdsConfig;
using workloads::FioConfig;
using workloads::FioResult;

namespace {

FioConfig BenchConfig() {
  FioConfig config;
  config.num_jobs = 16;
  config.file_size = 12ull << 20;
  config.request_size = 128ull << 10;
  return config;
}

CacheConfig BigFileCache(std::uint64_t max_readahead) {
  CacheConfig cache;
  cache.entry_size = 2ull << 20;   // paper default
  cache.max_entries = 192;         // bounded memory on the CI box
  cache.max_readahead = max_readahead;
  cache.initial_readahead = std::min<std::uint64_t>(max_readahead, 2ull << 20);
  return cache;
}

}  // namespace

int main() {
  bench::Header("Figure 6(a): fio sequential bandwidth on RADOS",
                "Fig. 6(a) — WRITE/READ, 128 KiB requests, write-back caches");
  bench::PaperClaim("WRITE: all three similar; READ: ArkFS ~ CephFS-K >> "
                    "CephFS-F (small FUSE read-ahead)");

  const FioConfig config = BenchConfig();
  std::printf("  config: %d jobs x %llu MiB, %llu KiB requests\n",
              config.num_jobs,
              static_cast<unsigned long long>(config.file_size >> 20),
              static_cast<unsigned long long>(config.request_size >> 10));

  struct RunRow {
    std::string name;
    FioResult result;
  };
  std::vector<RunRow> rows;

  {
    auto env = bench::ArkBenchEnv::Create(
        ClusterConfig::RadosLike(), /*pcache=*/true, BigFileCache(8ull << 20));
    auto client = env.cluster->AddClient().value();
    VfsPtr mount = env.cluster->WithFuse(client);
    FioConfig c = config;
    c.drop_caches = [&] { (void)mount->DropCaches(); };
    rows.push_back(
        {"ArkFS", workloads::RunFio([&](int) { return mount; }, c).value()});
  }
  {
    auto d = bench::MakeCephDeployment(ClusterConfig::RadosLike(),
                                       MdsConfig::Ranks(1));
    auto mount = std::make_shared<baselines::CephLikeVfs>(
        d.mds, d.store, [] {
          baselines::CephLikeConfig c = baselines::CephLikeConfig::KernelLike();
          c.cache = BigFileCache(8ull << 20);
          return c;
        }());
    FioConfig c = config;
    c.drop_caches = [&] { (void)mount->DropCaches(); };
    rows.push_back(
        {"CephFS-K", workloads::RunFio([&](int) { return mount; }, c).value()});
  }
  {
    auto d = bench::MakeCephDeployment(ClusterConfig::RadosLike(),
                                       MdsConfig::Ranks(1));
    auto inner = std::make_shared<baselines::CephLikeVfs>(
        d.mds, d.store, [] {
          baselines::CephLikeConfig c = baselines::CephLikeConfig::FuseLike();
          c.cache = BigFileCache(128ull << 10);  // 128 KiB FUSE read-ahead
          return c;
        }());
    VfsPtr mount = std::make_shared<FuseSim>(inner, FuseSimConfig{});
    FioConfig c = config;
    c.drop_caches = [&] { (void)mount->DropCaches(); };
    rows.push_back(
        {"CephFS-F", workloads::RunFio([&](int) { return mount; }, c).value()});
  }

  std::printf("\n  %-14s %14s %14s\n", "system", "WRITE", "READ");
  for (const auto& row : rows) {
    std::printf("  %-14s %14s %14s\n", row.name.c_str(),
                FormatBytes(row.result.write_bw_bps).c_str(),
                FormatBytes(row.result.read_bw_bps).c_str());
    if (row.result.errors > 0) {
      std::printf("      (%llu errors)\n",
                  static_cast<unsigned long long>(row.result.errors));
    }
  }

  std::printf("\n");
  bench::Row("READ ArkFS vs CephFS-F",
             bench::Fmt("%.2fx", rows[0].result.read_bw_bps /
                                     rows[2].result.read_bw_bps));
  bench::Row("READ ArkFS vs CephFS-K",
             bench::Fmt("%.2fx", rows[0].result.read_bw_bps /
                                     rows[1].result.read_bw_bps));
  return 0;
}
