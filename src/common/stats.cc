#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace arkfs {

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets) {}

int LatencyHistogram::BucketFor(std::int64_t nanos) {
  if (nanos < 16) return static_cast<int>(nanos < 0 ? 0 : nanos);
  const int msb = 63 - std::countl_zero(static_cast<std::uint64_t>(nanos));
  const int sub =
      static_cast<int>((nanos >> (msb - 4)) & 0xF);  // top 4 bits after msb
  int bucket = (msb - 3) * 16 + sub;
  return std::min(bucket, kBuckets - 1);
}

std::int64_t LatencyHistogram::BucketUpperBound(int bucket) {
  if (bucket < 16) return bucket;
  const int msb = bucket / 16 + 3;
  const int sub = bucket % 16;
  return (std::int64_t{16} + sub + 1) << (msb - 4);
}

void LatencyHistogram::Record(Nanos latency) {
  const std::int64_t n = latency.count();
  buckets_[BucketFor(n)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(n, std::memory_order_relaxed);
  std::int64_t cur = min_.load(std::memory_order_relaxed);
  while (n < cur && !min_.compare_exchange_weak(cur, n)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (n > cur && !max_.compare_exchange_weak(cur, n)) {
  }
}

Nanos LatencyHistogram::min() const {
  return count() == 0 ? Nanos(0) : Nanos(min_.load());
}
Nanos LatencyHistogram::max() const { return Nanos(max_.load()); }

Nanos LatencyHistogram::mean() const {
  const auto c = count();
  return c == 0 ? Nanos(0) : Nanos(sum_.load() / static_cast<std::int64_t>(c));
}

Nanos LatencyHistogram::Percentile(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return Nanos(0);
  const auto target = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) return Nanos(BucketUpperBound(i));
  }
  return max();
}

OpLatencySet::OpLatencySet(std::vector<std::string> op_names)
    : names_(std::move(op_names)) {
  names_.emplace_back("other");
  hists_ = std::vector<LatencyHistogram>(names_.size());
}

std::size_t OpLatencySet::IndexFor(std::string_view op) const {
  for (std::size_t i = 0; i + 1 < names_.size(); ++i) {
    if (names_[i] == op) return i;
  }
  return names_.size() - 1;
}

void OpLatencySet::Record(std::string_view op, Nanos latency) {
  hists_[IndexFor(op)].Record(latency);
}

const LatencyHistogram& OpLatencySet::For(std::string_view op) const {
  return hists_[IndexFor(op)];
}

std::string OpLatencySet::Table() const {
  std::string out =
      "  op              n       mean       p50       p95       p99       "
      "max\n";
  char buf[256];
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const LatencyHistogram& h = hists_[i];
    if (h.count() == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  %-10s %6llu %7.1fus %7.1fus %7.1fus %7.1fus %7.1fus\n",
                  names_[i].c_str(), static_cast<unsigned long long>(h.count()),
                  h.mean().count() / 1e3, h.Percentile(50).count() / 1e3,
                  h.Percentile(95).count() / 1e3, h.Percentile(99).count() / 1e3,
                  h.max().count() / 1e3);
    out += buf;
  }
  return out;
}

void OpLatencySet::Reset() {
  for (auto& h : hists_) h.Reset();
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0);
  count_.store(0);
  sum_.store(0);
  min_.store(INT64_MAX);
  max_.store(0);
}

double ThroughputMeter::ElapsedSeconds() const {
  const TimePoint end = stop_ == TimePoint{} ? Now() : stop_;
  return std::chrono::duration<double>(end - start_).count();
}

double ThroughputMeter::OpsPerSecond() const {
  const double s = ElapsedSeconds();
  return s <= 0 ? 0 : static_cast<double>(ops()) / s;
}

double ThroughputMeter::BytesPerSecond() const {
  const double s = ElapsedSeconds();
  return s <= 0 ? 0 : static_cast<double>(bytes()) / s;
}

std::string FormatOps(double v) {
  char buf[64];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM ops/s", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK ops/s", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f ops/s", v);
  }
  return buf;
}

std::string FormatBytes(double v) {
  char buf[64];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2f GB/s", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1f MB/s", v / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f KB/s", v / 1e3);
  }
  return buf;
}

}  // namespace arkfs
