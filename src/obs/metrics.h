// The unified metrics plane.
//
// Every layer that used to carry a bespoke stats struct (AsyncIoStats,
// OutageStats, RetryCounters, JournalStats, ...) now owns plain atomic
// cells — obs::Counter / obs::Gauge — attached to a MetricsRegistry under
// stable hierarchical names ("objstore.retry.attempts",
// "journal.commit.fence_rejections", "lease.failover.quiet_ms"). The cell
// stays the component's own storage: bumping it is one relaxed atomic op,
// and per-instance introspection (a test reading one store wrapper's PUT
// count) reads the cell directly. The registry is only an index: Snapshot()
// walks the attached cells, summing same-name counters and maxing same-name
// gauges, so N clients in one process roll up into one process-wide view.
//
// OpLatencySet histograms register under a name prefix; the snapshot
// exports "<prefix>.<op>" percentile summaries next to the counters.
//
// Cells detach themselves on destruction; a registry must outlive the
// components attached to it (the Default() registry is process-lifetime,
// test-local registries outlive the fixtures that feed them).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace arkfs::obs {

class MetricsRegistry;

// Process-wide runtime switch. Off turns every Counter/Gauge bump into a
// load + branch, which is what the micro_ops --smoke overhead gate compares
// against. Defaults to on. Inline, so the check every bump makes is one
// relaxed load rather than a call.
inline std::atomic<bool> g_metrics_enabled{true};
inline bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void SetMetricsEnabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

// A counter cell: owned by a component, optionally attached to a registry.
class Counter {
 public:
  Counter() = default;
  ~Counter() { Detach(); }
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  // Attaches this cell to `registry` under `name`. A null registry attaches
  // to MetricsRegistry::Default(). Re-attaching moves the cell.
  void Attach(MetricsRegistry* registry, std::string name);
  void Detach();

  void Add(std::uint64_t n = 1) {
    if (MetricsEnabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
  MetricsRegistry* registry_ = nullptr;
};

// A gauge cell: latest (Set) or high-water (UpdateMax) value.
class Gauge {
 public:
  Gauge() = default;
  ~Gauge() { Detach(); }
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Attach(MetricsRegistry* registry, std::string name);
  void Detach();

  void Set(std::uint64_t v) {
    if (MetricsEnabled()) v_.store(v, std::memory_order_relaxed);
  }
  void UpdateMax(std::uint64_t v) {
    if (!MetricsEnabled()) return;
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
  MetricsRegistry* registry_ = nullptr;
};

struct HistogramSummary {
  std::uint64_t count = 0;
  std::int64_t mean_ns = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p95_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t max_ns = 0;
};

// Point-in-time export of everything attached to a registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  std::map<std::string, HistogramSummary> histograms;

  // 0 / empty summary when the name is absent.
  std::uint64_t counter(const std::string& name) const;
  std::uint64_t gauge(const std::string& name) const;
  HistogramSummary histogram(const std::string& name) const;
};

// One metric per line: "counter <name> <value>", "gauge <name> <value>",
// "hist <name> count=... mean=... p50=... p95=... p99=... max=...". Only
// names starting with `prefix` are listed; the empty prefix lists all.
std::string FormatMetrics(const MetricsSnapshot& snap,
                          std::string_view prefix = {});

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every component attaches to by default.
  static MetricsRegistry& Default();

  // Registers an OpLatencySet: each op exports as "<prefix>.<op>".
  void RegisterHistograms(std::string prefix, const OpLatencySet* set);
  void UnregisterHistograms(const OpLatencySet* set);

  MetricsSnapshot Snapshot() const;

 private:
  friend class Counter;
  friend class Gauge;
  void AttachCounter(const std::string& name, const Counter* cell);
  void DetachCounter(const Counter* cell);
  void AttachGauge(const std::string& name, const Gauge* cell);
  void DetachGauge(const Gauge* cell);

  mutable std::mutex mu_;
  std::multimap<std::string, const Counter*> counters_;
  std::multimap<std::string, const Gauge*> gauges_;
  std::map<const OpLatencySet*, std::string> histograms_;
};

}  // namespace arkfs::obs
