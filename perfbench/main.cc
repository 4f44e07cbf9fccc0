// arkfs_perfbench — the repository's end-to-end benchmark program.
//
//   arkfs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--git-sha <sha>]
//
// Runs one workload with its closed-loop worker threads, one Client +
// FuseSim mount each, over a RadosLike ClusterObjectStore and the
// Datacenter10G fabric. --trace 0 measures the end-to-end metrics with no
// probes installed; --trace 1 splits the time between an untraced and a
// traced deployment and reports the per-layer metrics (README.md has the
// map). Prints a human-readable ledger, then one JSON line with host, checks
// and every metric. Exits 1 if any output check failed, 2 on bad usage or
// failed set-up.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "objstore/cluster_store.h"
#include "obs/metrics.h"
#include "probes.h"
#include "workloads.h"

using namespace perfbench;
using arkfs::ClientStats;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = value;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      out->trace = value == "1";
    } else if (flag == "--git-sha") {
      out->git_sha = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !out->workload.empty() && out->seconds > 0;
}

// --- deployment ---

struct Deployment {
  std::shared_ptr<TimingStore> timing;  // traced deployments only
  std::unique_ptr<arkfs::ArkFsCluster> cluster;
  std::vector<std::shared_ptr<arkfs::Client>> clients;
  std::vector<std::shared_ptr<arkfs::FuseSim>> fuses;
  std::vector<Worker> workers;
};

// Builds the deployment and its namespace; the wall time of this call is
// one set-up sample.
std::unique_ptr<Deployment> Deploy(const WorkloadSpec& spec, const Args& args,
                                   bool traced) {
  auto d = std::make_unique<Deployment>();
  arkfs::ObjectStorePtr store = std::make_shared<arkfs::ClusterObjectStore>(
      arkfs::ClusterConfig::RadosLike());
  if (traced) {
    d->timing = std::make_shared<TimingStore>(store);
    store = d->timing;
  }
  arkfs::ArkFsClusterOptions options;
  options.network = arkfs::sim::NetworkProfile::Datacenter10G();
  options.lease = arkfs::lease::LeaseManagerConfig{};
  options.lease.lease_period = spec.lease_term;
  options.lease.recovery_wait = arkfs::Millis(100);
  arkfs::ClientConfig client;
  client.journal.commit_interval = arkfs::Millis(200);
  client.journal.durability = spec.durability;
  options.client_template = client;
  auto cluster = arkfs::ArkFsCluster::Create(store, options);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().ToString().c_str());
    return nullptr;
  }
  d->cluster = std::move(*cluster);
  for (int t = 0; t < spec.threads; ++t) {
    auto c = d->cluster->AddClient();
    if (!c.ok()) {
      std::fprintf(stderr, "client: %s\n", c.status().ToString().c_str());
      return nullptr;
    }
    std::shared_ptr<arkfs::Client> cl = *c;
    arkfs::VfsPtr inner = cl;
    arkfs::FuseSim::ProbeFn probe = [cl](const std::string& p,
                                         const arkfs::UserCred& cred) {
      return cl->Probe(p, cred);
    };
    if (traced) {
      inner = std::make_shared<TimingVfs>(cl);
      probe = TimedProbe(cl);
    }
    auto fuse = std::make_shared<arkfs::FuseSim>(inner, arkfs::FuseSimConfig{},
                                                 probe);
    d->clients.push_back(cl);
    d->fuses.push_back(fuse);
    d->workers.emplace_back(t, fuse, args.seed, traced);
  }
  const arkfs::Status st = PrepareNamespace(spec, d->workers);
  if (!st.ok()) {
    std::fprintf(stderr, "namespace: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return d;
}

// --- before/after snapshots ---

struct Snapshot {
  ClientStats client;
  arkfs::CacheStats cache;
  std::uint64_t txns = 0, records = 0, journal_bytes = 0, fence_checks = 0,
                fence_rejections = 0, fence_violations = 0, flush_errors = 0,
                checkpoints = 0, group_flushes = 0, group_txns = 0,
                group_stalls = 0;
  std::uint64_t lookups = 0;
  std::uint64_t path_steps = 0;
  std::uint64_t rpc_calls = 0;
  arkfs::obs::MetricsSnapshot registry;
  double utime_us = 0, stime_us = 0, maxrss_mib = 0;
};

Snapshot Take(const Deployment& d) {
  Snapshot s;
  for (const auto& c : d.clients) {
    const ClientStats cs = c->stats();
    s.client.local_meta_ops += cs.local_meta_ops;
    s.client.forwarded_ops += cs.forwarded_ops;
    s.client.lease_acquires += cs.lease_acquires;
    s.client.lease_redirects += cs.lease_redirects;
    s.client.perm_cache_hits += cs.perm_cache_hits;
    s.client.stat_local += cs.stat_local;
    s.client.stat_forwarded += cs.stat_forwarded;
    s.client.stat_delegated += cs.stat_delegated;
    s.client.deleg_hits += cs.deleg_hits;
    s.client.deleg_misses += cs.deleg_misses;
    s.client.deleg_refetches += cs.deleg_refetches;
    const arkfs::CacheStats ch = c->cache_stats();
    s.cache.hits += ch.hits;
    s.cache.misses += ch.misses;
    s.cache.readahead_loads += ch.readahead_loads;
    s.cache.writebacks += ch.writebacks;
    s.cache.evictions += ch.evictions;
    const auto& j = c->journal_metrics();
    s.txns += j.transactions_committed.value();
    s.records += j.records_committed.value();
    s.journal_bytes += j.journal_bytes_written.value();
    s.fence_checks += j.fence_checks.value();
    s.fence_rejections += j.fence_rejections.value();
    s.fence_violations += j.fence_violations.value();
    s.flush_errors += j.flush_errors.value();
    s.checkpoints += j.checkpoints.value();
    s.group_flushes += j.group_flushes.value();
    s.group_txns += j.group_flushed_txns.value();
    s.group_stalls += j.group_stalls.value();
  }
  for (const auto& f : d.fuses) s.lookups += f->lookups_issued();
  s.path_steps = PathStepsIssued();
  s.rpc_calls = d.cluster->fabric()->total_calls();
  s.registry = arkfs::obs::MetricsRegistry::Default().Snapshot();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.utime_us = ru.ru_utime.tv_sec * 1e6 + ru.ru_utime.tv_usec;
  s.stime_us = ru.ru_stime.tv_sec * 1e6 + ru.ru_stime.tv_usec;
  s.maxrss_mib = ru.ru_maxrss / 1024.0;
  return s;
}

// --- one measured phase ---

struct Phase {
  ThreadLog log;  // all workers merged
  std::int64_t window_ns = 0;
  Snapshot before, after;
  StoreTotals store;  // traced phases only
  double ops_per_s() const {
    return window_ns > 0 ? log.ops() / (window_ns / 1e9) : 0;
  }
};

constexpr double kWarmupSeconds = 1.0;
// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 5;

Phase Measure(const WorkloadSpec& spec, Deployment& d, double seconds) {
  RunWorkload(spec, d.workers,
              arkfs::Now() + arkfs::Nanos(static_cast<std::int64_t>(
                                 kWarmupSeconds * 1e9)));
  Phase p;
  for (Worker& dr : d.workers) dr.recording = true;
  if (d.timing) d.timing->Begin();
  p.before = Take(d);
  p.window_ns = RunWorkload(
      spec, d.workers,
      arkfs::Now() + arkfs::Nanos(static_cast<std::int64_t>(seconds * 1e9)));
  p.after = Take(d);
  if (d.timing) p.store = d.timing->End();
  for (Worker& dr : d.workers) {
    dr.recording = false;
    p.log.Merge(dr.log);
  }
  // The fence must never move under a live leader, and no flush may fail.
  const Snapshot& a = p.after;
  const bool fenced_ok = a.fence_rejections == 0 && a.fence_violations == 0;
  p.log.ok.Record(fenced_ok);
  p.log.ok.Record(a.flush_errors == 0);
  if (!fenced_ok || a.flush_errors != 0) {
    std::fprintf(stderr,
                 "check failed: fence rejections %llu, violations %llu, "
                 "flush errors %llu\n",
                 static_cast<unsigned long long>(a.fence_rejections),
                 static_cast<unsigned long long>(a.fence_violations),
                 static_cast<unsigned long long>(a.flush_errors));
  }
  return p;
}

// --- metrics ---

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
double SortedPercentile(std::vector<double> v, double q = 0.5) {
  std::sort(v.begin(), v.end());
  return Percentile(v, q);
}
constexpr double kMiB = 1024.0 * 1024.0;

void EndToEnd(const Phase& p, double setup_s, Metrics* m) {
  (*m)["setup_s"] = {setup_s, "s"};
  (*m)["ok_ratio"] = {p.log.ok.ratio(), "ratio"};
  (*m)["ops_per_s"] = {p.ops_per_s(), "1/s"};
  for (Op op : kCommonOps) {
    (*m)[std::string(OpName(op)) + "_p50_us"] = {
        SortedPercentile(p.log.total_us[static_cast<int>(op)]), "us"};
  }
}

// Streaming bandwidth, measured untraced: all threads' bytes over the mean
// time a thread spent in that phase. Only stream_rw streams, so both are 0
// on the metadata workloads. stream_rw's write/fsync/read p50s are printed
// in the full result too, but they track the host's CPU and memory speed
// more than the code (README.md, Steadiness), so BENCHMARK.json does not
// declare them.
void StreamFigures(int threads, const Phase& p, Metrics* m) {
  (*m)["stream.write_mib_per_s"] = {
      threads * Ratio(p.log.bytes_written / kMiB, p.log.write_phase_s),
      "MiB/s"};
  (*m)["stream.read_mib_per_s"] = {
      threads * Ratio(p.log.bytes_read / kMiB, p.log.read_phase_s), "MiB/s"};
  if (p.log.bytes_written == 0) return;
  for (Op op : {Op::kWrite, Op::kFsync, Op::kRead}) {
    (*m)["stream." + std::string(OpName(op)) + "_p50_us"] = {
        SortedPercentile(p.log.total_us[static_cast<int>(op)]), "us"};
  }
}

void PerLayer(const Phase& p, double untraced_tp, Metrics* m) {
  const Snapshot& b = p.before;
  const Snapshot& a = p.after;
  const double ops = static_cast<double>(p.log.ops());
  // Snapshot counters also move on the driver's untimed calls (the ENOENT
  // stat after each unlink, stream_rw's close, cache drop and read-side
  // open), so they are taken per call: timed ops plus untimed calls.
  const double calls = ops + static_cast<double>(p.log.untimed_calls);
  auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  // Every op is reported on every workload, so each prints the same names;
  // an op the workload does not run has n = 0 and zero figures.
  std::uint64_t mutations = 0;
  for (int o = 0; o < kNumOps; ++o) {
    const Op op = static_cast<Op>(o);
    const std::string name = OpName(op);
    const std::vector<OpBreakdown>& bd = p.log.breakdown[o];
    std::vector<double> fuse_self, client_us, client_cpu;
    double inline_calls = 0, inline_us = 0;
    for (const OpBreakdown& x : bd) {
      fuse_self.push_back(x.total_us - x.client_us);
      client_us.push_back(x.client_us);
      client_cpu.push_back(x.client_cpu_us);
      inline_us += x.store_us;
    }
    for (int k = 0; k < kNumKeyClasses; ++k) {
      for (int v = 0; v < kNumVerbs; ++v) {
        inline_calls += p.log.inline_calls[o][k][v];
      }
    }
    const double n = static_cast<double>(bd.size());
    if (op == Op::kCreate || op == Op::kUnlink) mutations += bd.size();
    (*m)["fuse." + name + ".self_us_p50"] = {SortedPercentile(fuse_self), "us"};
    (*m)["client." + name + ".us_p50"] = {SortedPercentile(client_us), "us"};
    (*m)["client." + name + ".us_p99"] = {SortedPercentile(client_us, 0.99),
                                          "us"};
    (*m)["client." + name + ".n"] = {n, "count"};
    (*m)["client." + name + ".cpu_us_p50"] = {SortedPercentile(client_cpu),
                                              "us"};
    (*m)["objstore.inline_rts_per_" + name] = {Ratio(inline_calls, n),
                                                "calls/op"};
    (*m)["objstore.inline_us_per_" + name] = {Ratio(inline_us, n), "us"};
    const LedgerShares s = ComputeShares(MedianBand(bd));
    (*m)["ledger." + name + ".fuse_share"] = {s.fuse, "ratio"};
    (*m)["ledger." + name + ".cpu_share"] = {s.cpu, "ratio"};
    (*m)["ledger." + name + ".store_share"] = {s.store, "ratio"};
    (*m)["ledger." + name + ".other_share"] = {s.other, "ratio"};
  }
  (*m)["fuse.lookups_per_op"] = {Ratio(d(a.lookups, b.lookups), calls),
                                 "1/op"};

  const ClientStats& ca = a.client;
  const ClientStats& cb = b.client;
  (*m)["client.pcache_hit_ratio"] = {
      Ratio(d(ca.perm_cache_hits, cb.perm_cache_hits),
            d(a.path_steps, b.path_steps)),
      "ratio"};
  (*m)["client.forwarded_per_op"] = {
      Ratio(d(ca.forwarded_ops, cb.forwarded_ops), calls), "1/op"};
  const double deleg_hits = d(ca.deleg_hits, cb.deleg_hits);
  (*m)["client.deleg_hit_ratio"] = {
      Ratio(deleg_hits, deleg_hits + d(ca.deleg_misses, cb.deleg_misses)),
      "ratio"};
  (*m)["client.deleg_refetches_per_op"] = {
      Ratio(d(ca.deleg_refetches, cb.deleg_refetches), calls), "1/op"};
  const double stat_deleg = d(ca.stat_delegated, cb.stat_delegated);
  (*m)["client.stat_delegated_share"] = {
      Ratio(stat_deleg, stat_deleg + d(ca.stat_local, cb.stat_local) +
                            d(ca.stat_forwarded, cb.stat_forwarded)),
      "ratio"};
  (*m)["rpc.calls_per_op"] = {Ratio(d(a.rpc_calls, b.rpc_calls), calls),
                               "1/op"};
  (*m)["lease.acquires"] = {d(ca.lease_acquires, cb.lease_acquires), "count"};
  (*m)["lease.redirects"] = {d(ca.lease_redirects, cb.lease_redirects),
                             "count"};

  const double txns = d(a.txns, b.txns);
  (*m)["journal.commits_per_mutation"] = {Ratio(txns, mutations), "ratio"};
  (*m)["journal.records_per_commit"] = {Ratio(d(a.records, b.records), txns),
                                        "ratio"};
  (*m)["journal.bytes_per_commit"] = {
      Ratio(d(a.journal_bytes, b.journal_bytes), txns), "B"};
  (*m)["journal.fence_checks_per_commit"] = {
      Ratio(d(a.fence_checks, b.fence_checks), txns), "ratio"};
  (*m)["journal.group.txns_per_flush"] = {
      Ratio(d(a.group_txns, b.group_txns), d(a.group_flushes, b.group_flushes)),
      "ratio"};
  (*m)["journal.group.stalls"] = {d(a.group_stalls, b.group_stalls), "count"};
  (*m)["journal.checkpoints"] = {d(a.checkpoints, b.checkpoints), "count"};
  (*m)["journal.fence_rejections"] = {static_cast<double>(a.fence_rejections),
                                      "count"};
  (*m)["journal.flush_errors"] = {static_cast<double>(a.flush_errors),
                                  "count"};

  const double hits = d(a.cache.hits, b.cache.hits);
  const double mib_read = p.log.bytes_read / kMiB;
  const double mib_written = p.log.bytes_written / kMiB;
  (*m)["cache.hit_ratio"] = {
      Ratio(hits, hits + d(a.cache.misses, b.cache.misses)), "ratio"};
  (*m)["cache.readahead_loads_per_mib"] = {
      Ratio(d(a.cache.readahead_loads, b.cache.readahead_loads), mib_read),
      "1/MiB"};
  (*m)["cache.writebacks_per_mib"] = {
      Ratio(d(a.cache.writebacks, b.cache.writebacks), mib_written), "1/MiB"};
  (*m)["cache.evictions"] = {d(a.cache.evictions, b.cache.evictions), "count"};

  const StoreTotals& st = p.store;
  for (int k = 0; k < kNumKeyClasses; ++k) {
    for (int v = 0; v < kNumVerbs; ++v) {
      const StoreTotals::Cell& c = st.cells[k][v];
      const std::string prefix = std::string("objstore.") + kKeyClassNames[k] +
                                 "." + kVerbNames[v];
      (*m)[prefix + ".per_op"] = {Ratio(c.calls, ops), "1/op"};
      (*m)[prefix + ".us_p50"] = {SortedPercentile(c.us), "us"};
    }
  }
  (*m)["objstore.offloaded_per_op"] = {Ratio(st.offloaded_calls, ops), "1/op"};
  (*m)["objstore.bytes_read_per_op"] = {Ratio(st.bytes_read, ops), "B/op"};
  (*m)["objstore.bytes_written_per_op"] = {Ratio(st.bytes_written, ops),
                                           "B/op"};
  (*m)["objstore.mean_inflight"] = {Ratio(st.busy_ns, p.window_ns), "calls"};
  (*m)["objstore.errors"] = {static_cast<double>(st.errors), "count"};
  (*m)["asyncio.batches_per_op"] = {
      Ratio(d(a.registry.counter("asyncio.batches"),
              b.registry.counter("asyncio.batches")),
            calls),
      "1/op"};
  (*m)["asyncio.peak_in_flight"] = {
      static_cast<double>(a.registry.gauge("asyncio.peak_in_flight")),
      "count"};

  const double cpu_us =
      (a.utime_us - b.utime_us) + (a.stime_us - b.stime_us);
  (*m)["proc.cpu_us_per_op"] = {Ratio(cpu_us, calls), "us"};
  (*m)["proc.sys_share"] = {Ratio(a.stime_us - b.stime_us, cpu_us), "ratio"};
  (*m)["proc.peak_rss_mib"] = {a.maxrss_mib, "MiB"};
  (*m)["trace.overhead_ratio"] = {Ratio(p.ops_per_s(), untraced_tp), "ratio"};
}

// Inline store calls per op, by key kind and verb: the composition behind
// objstore.inline_rts_per_<op> (printed, not exported as metrics).
void PrintInlineComposition(const WorkloadSpec& spec, const Phase& p) {
  std::printf("inline store calls per op:\n");
  for (Op op : spec.ops) {
    const int o = static_cast<int>(op);
    const double n = static_cast<double>(p.log.breakdown[o].size());
    std::printf("  %-7s", OpName(op));
    for (int k = 0; k < kNumKeyClasses; ++k) {
      for (int v = 0; v < kNumVerbs; ++v) {
        const double per = Ratio(p.log.inline_calls[o][k][v], n);
        if (per >= 0.005) {
          std::printf(" %s.%s=%.2f", kKeyClassNames[k], kVerbNames[v], per);
        }
      }
    }
    std::printf("\n");
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void PrintResult(const Args& args, int threads, const OkCounter& ok,
                 const Metrics& m) {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"host\": {\"nproc\": %ld, \"build_type\": \"%s\", \"git_sha\": "
      "\"%s\", \"date\": \"%s\", \"store_profile\": \"%s\", "
      "\"network_profile\": \"%s\", \"threads\": %d}, ",
      JsonEscape(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
      JsonEscape(args.git_sha).c_str(), date,
      arkfs::sim::CostProfile::RadosLike().name.c_str(),
      arkfs::sim::NetworkProfile::Datacenter10G().name.c_str(), threads);
  std::printf("\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ok.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(ok.attempted),
              static_cast<unsigned long long>(ok.failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    const double v = std::isfinite(metric.value) ? metric.value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, metric.unit);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--git-sha <sha>]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  Metrics metrics;
  OkCounter ok;
  if (!args.trace) {
    // Set up several times and keep the median; measure on the last one.
    std::vector<double> setup_s;
    std::unique_ptr<Deployment> d;
    for (int i = 0; i < kSetups; ++i) {
      d.reset();
      const std::int64_t t0 = WallNs();
      d = Deploy(*spec, args, /*traced=*/false);
      if (!d) return 2;
      setup_s.push_back((WallNs() - t0) / 1e9);
    }
    const Phase p = Measure(*spec, *d, args.seconds);
    d.reset();
    EndToEnd(p, SortedPercentile(setup_s), &metrics);
    ok = p.log.ok;
    std::printf("%s: %llu ops in %.2f s (%.0f ops/s), set-ups", spec->name,
                static_cast<unsigned long long>(p.log.ops()), p.window_ns / 1e9,
                p.ops_per_s());
    for (double s : setup_s) std::printf(" %.3f", s);
    std::printf(" s\n");
  } else {
    // Half the time untraced (the overhead baseline, and the source of the
    // op-level figures BENCHMARK.json keeps per-layer), half traced.
    double untraced_tp = 0;
    {
      const std::int64_t t0 = WallNs();
      auto d = Deploy(*spec, args, /*traced=*/false);
      if (!d) return 2;
      const double setup_s = (WallNs() - t0) / 1e9;
      const Phase p = Measure(*spec, *d, args.seconds / 2);
      untraced_tp = p.ops_per_s();
      ok.Merge(p.log.ok);
      EndToEnd(p, setup_s, &metrics);
      StreamFigures(spec->threads, p, &metrics);
    }
    auto d = Deploy(*spec, args, /*traced=*/true);
    if (!d) return 2;
    const Phase p = Measure(*spec, *d, args.seconds / 2);
    d.reset();
    ok.Merge(p.log.ok);
    PerLayer(p, untraced_tp, &metrics);
    PrintInlineComposition(*spec, p);
    std::printf("%s traced: %.0f ops/s vs untraced %.0f ops/s; %llu untimed "
                "calls made %llu store calls\n",
                spec->name, p.ops_per_s(), untraced_tp,
                static_cast<unsigned long long>(p.log.untimed_calls),
                static_cast<unsigned long long>(p.store.untimed_calls));
  }
  PrintResult(args, spec->threads, ok, metrics);
  return ok.failed == 0 ? 0 : 1;
}
