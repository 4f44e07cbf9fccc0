// Benchmark statistics: latency histogram and throughput counters.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"

namespace arkfs {

// Log-bucketed latency histogram (HDR-style, base-2 buckets with 16
// sub-buckets). Thread-safe recording via atomics.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(Nanos latency);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  Nanos min() const;
  Nanos max() const;
  Nanos mean() const;
  Nanos Percentile(double p) const;  // p in [0, 100]

  void Reset();

 private:
  static constexpr int kBuckets = 64 * 16;
  static int BucketFor(std::int64_t nanos);
  static std::int64_t BucketUpperBound(int bucket);

  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{0};
};

// Named per-operation latency histograms (get/put/delete/...). Register
// names up front, record from any thread, and render one p50/p95/p99 table.
class OpLatencySet {
 public:
  explicit OpLatencySet(std::vector<std::string> op_names);

  // Unknown names fall into a synthetic "other" histogram.
  void Record(std::string_view op, Nanos latency);
  const LatencyHistogram& For(std::string_view op) const;

  // Fixed-width table: one row per op with samples, mean, p50/p95/p99, max.
  std::string Table() const;
  void Reset();

  // All op names, including the trailing synthetic "other" bucket.
  const std::vector<std::string>& op_names() const { return names_; }

 private:
  std::size_t IndexFor(std::string_view op) const;

  std::vector<std::string> names_;  // last entry is "other"
  std::vector<LatencyHistogram> hists_;
};

// Aggregate ops + bytes counter with elapsed-time based rates.
class ThroughputMeter {
 public:
  void Start() { start_ = Now(); }
  void Stop() { stop_ = Now(); }

  void AddOps(std::uint64_t n = 1) {
    ops_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddBytes(std::uint64_t n) {
    bytes_.fetch_add(n, std::memory_order_relaxed);
  }

  double ElapsedSeconds() const;
  double OpsPerSecond() const;
  double BytesPerSecond() const;
  std::uint64_t ops() const { return ops_.load(); }
  std::uint64_t bytes() const { return bytes_.load(); }

 private:
  TimePoint start_{};
  TimePoint stop_{};
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

// Human-readable helpers for benchmark tables.
std::string FormatOps(double ops_per_sec);
std::string FormatBytes(double bytes_per_sec);

}  // namespace arkfs
