#include "objstore/scrubber.h"

#include <algorithm>
#include <mutex>

namespace arkfs {

std::string ScrubReport::ToString() const {
  std::string s;
  s += "stripes=" + std::to_string(stripes);
  s += " corrupt=" + std::to_string(corrupt);
  s += " missing=" + std::to_string(missing);
  s += " unreachable=" + std::to_string(unreachable);
  s += " repaired=" + std::to_string(repaired);
  s += " repair_failures=" + std::to_string(repair_failures);
  s += " unrecoverable=" + std::to_string(unrecoverable);
  s += " manifest_fixed=" + std::to_string(manifest_fixed);
  s += " orphans_swept=" + std::to_string(orphans_swept);
  return s;
}

Scrubber::Scrubber(EcStorePtr store, ScrubberOptions options)
    : options_(std::move(options)), store_(std::move(store)) {
  passes_.Attach(options_.metrics, "ec.scrub.passes");
  scanned_.Attach(options_.metrics, "ec.scrub.scanned");
  corrupt_.Attach(options_.metrics, "ec.scrub.corrupt");
  missing_.Attach(options_.metrics, "ec.scrub.missing");
  repaired_.Attach(options_.metrics, "ec.scrub.repaired");
  repair_failures_.Attach(options_.metrics, "ec.scrub.repair_failures");
  unrecoverable_.Attach(options_.metrics, "ec.scrub.unrecoverable");
  orphans_swept_.Attach(options_.metrics, "ec.scrub.orphans_swept");
  last_stripes_.Attach(options_.metrics, "ec.scrub.last_stripes");
  last_repaired_.Attach(options_.metrics, "ec.scrub.last_repaired");
}

Result<ScrubReport> Scrubber::RunOnce() {
  ARKFS_ASSIGN_OR_RETURN(const auto keys,
                         store_->ListStripes(""));
  ScrubReport report;
  std::mutex report_mu;
  ThreadPool pool(static_cast<std::size_t>(std::max(1, options_.threads)));
  WaitGroup wg;
  for (const auto& key : keys) {
    wg.Add();
    pool.Submit([this, &key, &report, &report_mu, &wg] {
      ScrubReport local;
      local.stripes = 1;
      auto probe = store_->ProbeStripe(key);
      if (probe.ok()) {
        local.corrupt = probe->corrupt.size();
        local.missing = probe->missing.size();
        local.unreachable = probe->unreachable.size();
        const bool manifests_dirty = probe->manifest_copies_bad > 0 ||
                                     probe->manifest_copies_missing > 0;
        if (!probe->corrupt.empty() || !probe->missing.empty() ||
            manifests_dirty) {
          auto repaired = store_->RepairStripe(key, *probe);
          if (repaired.ok()) {
            local.repaired = static_cast<std::uint64_t>(*repaired);
            if (manifests_dirty) local.manifest_fixed = 1;
          } else if (repaired.status().code() == Errc::kIo &&
                     static_cast<int>(probe->good.size()) <
                         probe->manifest.k) {
            local.unrecoverable = 1;
          } else {
            // kAgain (stripe superseded) or transient store error: the next
            // pass sees the fresh stripe.
            local.repair_failures = 1;
          }
        }
        if (auto swept = store_->SweepOrphans(key, probe->manifest);
            swept.ok()) {
          local.orphans_swept = static_cast<std::uint64_t>(*swept);
        }
      } else if (probe.status().code() != Errc::kNoEnt) {
        // Manifest unreadable this pass (e.g. every copy's node down).
        local.repair_failures = 1;
      }
      {
        std::lock_guard<std::mutex> lock(report_mu);
        report.stripes += local.stripes;
        report.corrupt += local.corrupt;
        report.missing += local.missing;
        report.unreachable += local.unreachable;
        report.repaired += local.repaired;
        report.repair_failures += local.repair_failures;
        report.unrecoverable += local.unrecoverable;
        report.manifest_fixed += local.manifest_fixed;
        report.orphans_swept += local.orphans_swept;
      }
      wg.Done();
    });
  }
  wg.Wait();
  pool.Shutdown();

  passes_.Add();
  scanned_.Add(report.stripes);
  corrupt_.Add(report.corrupt);
  missing_.Add(report.missing);
  repaired_.Add(report.repaired);
  repair_failures_.Add(report.repair_failures);
  unrecoverable_.Add(report.unrecoverable);
  orphans_swept_.Add(report.orphans_swept);
  last_stripes_.Set(report.stripes);
  last_repaired_.Set(report.repaired);
  return report;
}

}  // namespace arkfs
