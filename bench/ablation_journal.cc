// Ablation — journaling parameters (paper §III-E).
//
// One sweep on the real implementation: the linger (the commit interval,
// 1 s in the paper) — how much does compound-transaction buffering matter
// for create throughput? Per-directory checkpoints run in parallel on the
// client's async I/O workers, so their parallelism is AsyncIoConfig::workers
// and has no sweep of its own here.
#include "bench_util.h"
#include "workloads/mdtest.h"

using namespace arkfs;

namespace {

double CreateThroughput(Nanos commit_interval, int dirs) {
  auto store = std::make_shared<ClusterObjectStore>(ClusterConfig::RadosLike());
  ArkFsClusterOptions options;
  options.network = sim::NetworkProfile::Datacenter10G();
  options.lease = lease::LeaseManagerConfig{Seconds(5), Millis(100)};
  ClientConfig client;
  client.journal.commit_interval = commit_interval;
  options.client_template = client;
  auto cluster = ArkFsCluster::Create(store, options).value();
  auto ark = cluster->AddClient().value();

  workloads::MdtestConfig config;
  config.num_processes = dirs;  // one private dir (=journal) per process
  config.files_per_process = 150;
  auto result = workloads::RunMdtestCreateOnly(
      [&](int) -> VfsPtr { return ark; }, config);
  return result.ok() ? result->ops_per_second : 0;
}

}  // namespace

int main() {
  bench::Header("Ablation: per-directory journaling parameters",
                "supports SIII-E (compound transactions, parallel commits)");

  std::printf("\n  linger sweep (8 dirs):\n");
  std::printf("  %14s %14s\n", "linger", "creates/s");
  for (auto interval : {Millis(1), Millis(20), Millis(200), Millis(1000)}) {
    const double ops = CreateThroughput(interval, 8);
    std::printf("  %11lld ms %14.0f\n",
                static_cast<long long>(interval.count() / 1000000), ops);
  }
  bench::Note("creates are buffered in memory, so throughput is largely "
              "insensitive to the linger until fsync");
  return 0;
}
