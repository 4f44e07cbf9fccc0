// ChaosStore — the fault-injection decorator, scripted and seeded.
//
// It answers two questions. A scripted FaultFn, given at construction,
// answers "what happens when THIS op fails": the caller decides each fault.
// The seeded profile (ChaosConfig) answers "does the stack survive a store
// that is statistically flaky" — the CFS/λFS-style fault model where any
// node can time out, drop a request, or tear a write at any moment. The
// profile is driven by a seeded RNG, so a failing run reproduces exactly
// from its seed; a default ChaosConfig injects nothing.
//
// Faults injected:
//  * per-op transient errors with probability `fault_rate`, drawn from the
//    transient pool (kIo / kTimedOut / kAgain) — exactly the codes the
//    retry stack (retry.h) considers retryable;
//  * persistent per-key faults (Add/Clear) for dead-object scenarios;
//  * 2 ms latency spikes with probability `latency_spike_rate`;
//  * torn whole-object Puts with probability `torn_put_rate`: a random
//    prefix of the payload lands in the store and the op reports kIo —
//    the crash-atomicity hazard a whole-object backend really has. Layers
//    above must treat the object as garbage until the next full rewrite
//    (the journal's CRC framing is what detects exactly this). A guarded
//    Put tears only if its guard holds and never inside the guarded
//    extent, so its retry (same guard) can still land the full rewrite; a
//    guard pinning the whole object never tears.
//
// Every primitive consults the scripted hook first, then the profile. The
// hook sees the operation name ("get", "getrange", "put", "putrange",
// "delete", "head", "list"; the guarded forms are "put" / "putrange" /
// "delete") and key (the prefix for "list"), and returns the error to
// inject (kOk falls through to the profile). It runs without
// the store's mutex held, so it may block or call back into the store.
// Tests use it to kill writes after N ops to simulate a client crash
// mid-commit; hooks matching a whole family should prefix-match
// (op.starts_with("put")) so ranged variants stay covered.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "objstore/store_decorator.h"

namespace arkfs {

struct ChaosConfig {
  std::uint64_t seed = 1;
  double fault_rate = 0.0;          // per-op transient error probability
  double latency_spike_rate = 0.0;  // per-op 2 ms latency spike probability
  double torn_put_rate = 0.0;       // whole-object Put only
  // Read-path bit flips with probability `bit_flip_rate` per Get/GetRange:
  // one random bit of the returned payload is inverted (the op still
  // reports success — silent media corruption, the fault CRC layers must
  // catch). `bit_flip_filter` scopes the damage to matching keys (e.g. EC
  // shard objects) so a chaos run can rot the data plane without also
  // feeding garbage to layers that are DESIGNED to fail hard on it (journal
  // replay). Null = every key is fair game.
  double bit_flip_rate = 0.0;
  std::function<bool(const std::string&)> bit_flip_filter = nullptr;

  // The profile used by the chaos test lanes: `percent`% transient faults.
  static ChaosConfig Flaky(std::uint64_t seed, double percent) {
    ChaosConfig c;
    c.seed = seed;
    c.fault_rate = percent / 100.0;
    return c;
  }
};

class ChaosStore : public StoreDecorator {
 public:
  using FaultFn =
      std::function<Errc(std::string_view op, const std::string& key)>;

  ChaosStore(ObjectStorePtr base, ChaosConfig config, FaultFn hook = nullptr,
             obs::MetricsRegistry* registry = nullptr);

  // Persistent per-key faults: every op on `key` fails with `e` until
  // cleared. Models a dead/corrupt object rather than a flaky node.
  void AddPersistentFault(const std::string& key, Errc e);
  void ClearPersistentFault(const std::string& key);

  // Every primitive can fail; whole-object Put can also tear, and reads can
  // come back with a flipped bit.
  Result<Bytes> Get(const std::string& key) override;
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override;
  Status Put(const std::string& key, ByteSpan data) override;
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override;
  Status PutIf(const std::string& key, ByteSpan data,
               const WriteGuard& guard) override;
  Status PutRangeIf(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard& guard) override;
  Status Delete(const std::string& key) override;
  Status DeleteIf(const std::string& key, const WriteGuard& guard) override;
  Result<ObjectMeta> Head(const std::string& key) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;

  std::string name() const override { return "chaos/" + base()->name(); }

  struct Counters {
    std::uint64_t ops = 0;
    std::uint64_t transient_faults = 0;
    std::uint64_t persistent_faults = 0;
    std::uint64_t hook_faults = 0;
    std::uint64_t latency_spikes = 0;
    std::uint64_t torn_puts = 0;
    std::uint64_t bit_flips = 0;
  };
  Counters counters() const;

  const ChaosConfig& chaos_config() const { return config_; }

 private:
  // The verdict every operation funnels through: hook, then profile.
  Errc Decide(std::string_view op, const std::string& key);
  // Put and PutIf: a null guard writes unconditionally.
  Status DoPut(const std::string& key, ByteSpan data, const WriteGuard* guard);
  // Flips one random bit of `data` when the profile + filter say so.
  void MaybeFlipBit(const std::string& key, Bytes* data);

  const ChaosConfig config_;
  const FaultFn hook_;
  mutable std::mutex mu_;
  Rng rng_;
  std::map<std::string, Errc> persistent_;
  // Metric cells ("chaos.*"); counters() snapshots them per instance.
  obs::Counter ops_, transient_faults_, persistent_faults_, hook_faults_,
      latency_spikes_, torn_puts_, bit_flips_;
};

}  // namespace arkfs
