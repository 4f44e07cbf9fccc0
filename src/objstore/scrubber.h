// Scrubber — scrub-and-repair passes for the EC archive tier.
//
// Archived data is written once and read rarely, so latent shard damage
// (bit rot, a torn write that slipped past its own generation fencing, an
// operator deleting the wrong object) would otherwise be discovered only by
// the unlucky read that needs the damaged shard *while* a node is also down
// — exactly when redundancy is already spent. The scrubber closes that
// window: it walks every stripe manifest, re-verifies each shard's CRC
// against the manifest, and rebuilds corrupt or missing shards from the
// surviving k, restoring full k+m redundancy long before it is needed.
//
// Repair follows the store's ordering rule (ec_store.h): rebuilt shards are
// PUT before any manifest copy is touched, and manifest copies are only
// ever rewritten with byte-identical content — a scrubber crash at any
// point leaves the stripe no less redundant than it found it. Shards that
// are unreachable (node down) are NOT "repaired": the bytes are intact and
// will return at rejoin-backfill; rewriting them from a degraded stripe
// would only churn. They are counted and retried next pass.
//
// A pass is a thread-pool walk over every stripe, run when an operator or a
// bench calls RunOnce (`arkfs_cli scrub`); nothing scrubs in the background.
#pragma once

#include <memory>

#include "common/thread_pool.h"
#include "objstore/ec_store.h"
#include "obs/metrics.h"

namespace arkfs {

struct ScrubberOptions {
  int threads = 2;                // stripes verified concurrently
  // Where the "ec.scrub.*" cells attach; null = process default registry.
  obs::MetricsRegistry* metrics = nullptr;

  static ScrubberOptions ForTests() {
    ScrubberOptions o;
    o.threads = 4;
    return o;
  }
};

// One pass's tally (also mirrored into the ec.scrub.* counters).
struct ScrubReport {
  std::uint64_t stripes = 0;         // stripes scanned
  std::uint64_t corrupt = 0;         // shards failing CRC/identity checks
  std::uint64_t missing = 0;         // shards absent (kNoEnt)
  std::uint64_t unreachable = 0;     // shards on down nodes (not repaired)
  std::uint64_t repaired = 0;        // shards re-encoded and rewritten
  std::uint64_t repair_failures = 0; // repairs that errored (retried later)
  std::uint64_t unrecoverable = 0;   // stripes with < k readable shards
  std::uint64_t manifest_fixed = 0;  // manifest copies restored
  std::uint64_t orphans_swept = 0;   // stale-generation shards deleted

  std::string ToString() const;
};

class Scrubber {
 public:
  Scrubber(EcStorePtr store, ScrubberOptions options);

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  // One full scrub pass, synchronously. Safe to call concurrently with
  // foreground I/O (repair is generation-fenced against overwrites).
  Result<ScrubReport> RunOnce();

 private:
  const ScrubberOptions options_;
  EcStorePtr store_;

  // "ec.scrub.*" cells.
  obs::Counter passes_, scanned_, corrupt_, missing_, repaired_,
      repair_failures_, unrecoverable_, orphans_swept_;
  obs::Gauge last_stripes_, last_repaired_;
};

using ScrubberPtr = std::shared_ptr<Scrubber>;

}  // namespace arkfs
