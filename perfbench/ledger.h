// Pure helpers of the end-to-end benchmark: percentiles, object-key
// classification, the per-op layer ledger and ok/attempted counting. They
// hold no ArkFS state, so helpers_test.cc checks them in isolation.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Workload-level operations. Each is one timed unit at the FuseSim
// boundary (see README.md for what each op covers per workload).
enum class Op { kCreate, kStat, kRead, kWrite, kFsync, kUnlink };
inline constexpr int kNumOps = 6;
inline constexpr std::array<const char*, kNumOps> kOpNames = {
    "create", "stat", "read", "write", "fsync", "unlink"};
inline const char* OpName(Op op) { return kOpNames[static_cast<int>(op)]; }

// Object-key kinds the store ledger reports under "objstore.<kind>".
enum class KeyClass { kJournal, kFence, kInode, kDentry, kData, kOther };
inline constexpr int kNumKeyClasses = 6;
inline constexpr std::array<const char*, kNumKeyClasses> kKeyClassNames = {
    "journal", "fence", "inode", "dentry", "data", "other"};

// ObjectStore verbs.
enum class Verb { kGet, kGetRange, kPut, kPutRange, kDelete, kHead, kList };
inline constexpr int kNumVerbs = 7;
inline constexpr std::array<const char*, kNumVerbs> kVerbNames = {
    "get", "getrange", "put", "putrange", "delete", "head", "list"};

// Maps an object key to its ledger kind via the PRT key schema (ParseKey).
// Keys outside the schema (lease epoch record, quota usage, ...) and
// malformed keys are "other".
KeyClass ClassifyKey(const std::string& key);

// Nearest-rank percentile of an ascending-sorted sample: the smallest value
// with at least q*n samples at or below it. 0 for an empty sample.
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps q*n = 99.00000000000001 from rounding up a rank.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// What one traced op spent, measured from outside the layers.
struct OpBreakdown {
  double total_us = 0;       // wall time at the FuseSim boundary
  double client_us = 0;      // wall time inside Client calls (shim + probe)
  double client_cpu_us = 0;  // calling-thread CPU inside those calls
  double store_us = 0;       // wall time of inline store calls
  double store_cpu_us = 0;   // calling-thread CPU inside inline store calls
};

// The split of an op's time into FuseSim self time, client CPU (outside the
// store), inline store time and the unexplained rest (rpc waits, locks,
// scheduling). The four shares sum to 1 for any total > 0.
struct LedgerShares {
  double fuse = 0;
  double cpu = 0;
  double store = 0;
  double other = 0;
};

// Shares of the mean breakdown over `ops`. Components are clamped so that
// clock skew between the wall and CPU clocks cannot make one negative; the
// rest absorbs the remainder.
inline LedgerShares ComputeShares(const std::vector<OpBreakdown>& ops) {
  OpBreakdown sum;
  for (const OpBreakdown& b : ops) {
    sum.total_us += b.total_us;
    sum.client_us += b.client_us;
    sum.client_cpu_us += b.client_cpu_us;
    sum.store_us += b.store_us;
    sum.store_cpu_us += b.store_cpu_us;
  }
  LedgerShares s;
  if (sum.total_us <= 0) return s;
  const double client = std::clamp(sum.client_us, 0.0, sum.total_us);
  const double store = std::clamp(sum.store_us, 0.0, client);
  const double cpu =
      std::clamp(sum.client_cpu_us - sum.store_cpu_us, 0.0, client - store);
  s.fuse = (sum.total_us - client) / sum.total_us;
  s.store = store / sum.total_us;
  s.cpu = cpu / sum.total_us;
  s.other = 1.0 - s.fuse - s.store - s.cpu;
  return s;
}

// The ops whose total sits in the middle tenth of the distribution, so the
// ledger explains the p50 rather than the mean (which tails would drag).
inline std::vector<OpBreakdown> MedianBand(std::vector<OpBreakdown> ops) {
  if (ops.empty()) return ops;
  std::sort(ops.begin(), ops.end(),
            [](const OpBreakdown& a, const OpBreakdown& b) {
              return a.total_us < b.total_us;
            });
  const std::size_t n = ops.size();
  const std::size_t width = std::max<std::size_t>(1, n / 10);
  const std::size_t lo = (n - width) / 2;
  return std::vector<OpBreakdown>(ops.begin() + lo, ops.begin() + lo + width);
}

// ok_ratio bookkeeping: an op counts as ok only if the call succeeded AND
// every output check on it passed; each end-of-run check (e.g. no fence
// rejections) is one more unit.
struct OkCounter {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OkCounter& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  double ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
