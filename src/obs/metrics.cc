#include "obs/metrics.h"

#include <sstream>

namespace arkfs::obs {

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

void Counter::Attach(MetricsRegistry* registry, std::string name) {
  Detach();
  registry_ = registry != nullptr ? registry : &MetricsRegistry::Default();
  registry_->AttachCounter(name, this);
}

void Counter::Detach() {
  if (registry_ == nullptr) return;
  registry_->DetachCounter(this);
  registry_ = nullptr;
}

void Gauge::Attach(MetricsRegistry* registry, std::string name) {
  Detach();
  registry_ = registry != nullptr ? registry : &MetricsRegistry::Default();
  registry_->AttachGauge(name, this);
}

void Gauge::Detach() {
  if (registry_ == nullptr) return;
  registry_->DetachGauge(this);
  registry_ = nullptr;
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::uint64_t MetricsSnapshot::gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0 : it->second;
}

HistogramSummary MetricsSnapshot::histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? HistogramSummary{} : it->second;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

MetricsRegistry::~MetricsRegistry() = default;

void MetricsRegistry::AttachCounter(const std::string& name,
                                    const Counter* cell) {
  std::lock_guard lock(mu_);
  counters_.emplace(name, cell);
}

void MetricsRegistry::DetachCounter(const Counter* cell) {
  std::lock_guard lock(mu_);
  for (auto it = counters_.begin(); it != counters_.end();) {
    it = it->second == cell ? counters_.erase(it) : std::next(it);
  }
}

void MetricsRegistry::AttachGauge(const std::string& name, const Gauge* cell) {
  std::lock_guard lock(mu_);
  gauges_.emplace(name, cell);
}

void MetricsRegistry::DetachGauge(const Gauge* cell) {
  std::lock_guard lock(mu_);
  for (auto it = gauges_.begin(); it != gauges_.end();) {
    it = it->second == cell ? gauges_.erase(it) : std::next(it);
  }
}

void MetricsRegistry::RegisterHistograms(std::string prefix,
                                         const OpLatencySet* set) {
  std::lock_guard lock(mu_);
  histograms_[set] = std::move(prefix);
}

void MetricsRegistry::UnregisterHistograms(const OpLatencySet* set) {
  std::lock_guard lock(mu_);
  histograms_.erase(set);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mu_);
  for (const auto& [name, cell] : counters_) {
    snap.counters[name] += cell->value();
  }
  for (const auto& [name, cell] : gauges_) {
    std::uint64_t& slot = snap.gauges[name];
    slot = std::max(slot, cell->value());
  }
  for (const auto& [set, prefix] : histograms_) {
    for (const std::string& op : set->op_names()) {
      const LatencyHistogram& h = set->For(op);
      HistogramSummary s;
      s.count = h.count();
      if (s.count > 0) {
        s.mean_ns = h.mean().count();
        s.p50_ns = h.Percentile(50).count();
        s.p95_ns = h.Percentile(95).count();
        s.p99_ns = h.Percentile(99).count();
        s.max_ns = h.max().count();
      }
      std::string name = prefix + "." + op;
      auto [it, inserted] = snap.histograms.emplace(name, s);
      if (!inserted) {
        // Same name registered by several sets: keep the busier one.
        if (s.count > it->second.count) it->second = s;
      }
    }
  }
  return snap;
}

std::string FormatMetrics(const MetricsSnapshot& snap,
                          std::string_view prefix) {
  std::ostringstream out;
  for (const auto& [name, v] : snap.counters) {
    if (!name.starts_with(prefix)) continue;
    out << "counter " << name << " " << v << "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    if (!name.starts_with(prefix)) continue;
    out << "gauge " << name << " " << v << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    if (!name.starts_with(prefix)) continue;
    out << "hist " << name << " count=" << h.count << " mean=" << h.mean_ns
        << "ns p50=" << h.p50_ns << "ns p95=" << h.p95_ns
        << "ns p99=" << h.p99_ns << "ns max=" << h.max_ns << "ns\n";
  }
  return out.str();
}

}  // namespace arkfs::obs
