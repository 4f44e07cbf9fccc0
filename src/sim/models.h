// Timing models for the simulated testbed.
//
// The paper's cluster (Table I) is 16 storage nodes + up to 64 client nodes
// on 10–50 Gbit networking, with Ceph RADOS or S3 as the object store. We
// reproduce the *costs* of that environment with explicit models:
//
//  * LatencyModel   — per-operation latency with bounded uniform jitter.
//  * CostProfile    — a named bundle of latencies/bandwidths for a backend
//                     (RADOS-like, S3-like) or the network fabric.
//
// All real-time benchmarks realize latency by sleeping, so on a single core
// many concurrent clients overlap their waits exactly like real distributed
// clients would.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/clock.h"

namespace arkfs::sim {

// Mean latency with +/- jitter_frac uniform jitter. Thread-safe; the jitter
// source is a cheap per-call hash of a counter so it needs no locking.
class LatencyModel {
 public:
  LatencyModel() = default;
  LatencyModel(Nanos mean, double jitter_frac = 0.1)
      : mean_(mean), jitter_frac_(jitter_frac) {}

  Nanos Sample() const;
  Nanos mean() const { return mean_; }
  bool zero() const { return mean_ <= Nanos::zero(); }

  // Sleep for one sample. No-op for a zero model.
  void Apply() const;

 private:
  Nanos mean_{0};
  double jitter_frac_ = 0.0;
  mutable std::atomic<std::uint64_t> seq_{0};
};

// A backend cost profile. The defaults are chosen to mirror the relative
// magnitudes of the paper's testbed (intra-cluster RTT in the 100s of
// microseconds; S3 operations in the milliseconds), scaled down uniformly so
// the benchmark suite completes in CI time. All benches print the profile
// they ran with.
struct CostProfile {
  std::string name;
  Nanos op_latency{0};          // fixed per-operation service latency
  Nanos small_io_latency{0};    // extra latency for data-carrying ops
  double bandwidth_bps = 0;     // per-node streaming bandwidth (0 = infinite)
  bool supports_partial_write = true;  // RADOS yes, S3 no (whole-object PUT)

  static CostProfile RadosLike();
  static CostProfile S3Like();
  static CostProfile Instant();  // for unit tests: no injected time
};

// Network fabric profile used by the RPC layer.
struct NetworkProfile {
  std::string name;
  Nanos rtt{0};                // request+response round-trip latency
  double bandwidth_bps = 0;    // payload streaming bandwidth

  static NetworkProfile Datacenter10G();
  static NetworkProfile Instant();
};

}  // namespace arkfs::sim
