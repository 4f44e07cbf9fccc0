// StackBuilder — the one way to assemble an ObjectStore stack.
//
// Every stack in the repo (the ArkFsCluster constructor for every data
// placement, benches, chaos tests) composes the same decorators in the same
// order:
//
//   instrumented → retrying → chaos → ec|tiering → cluster|base
//   (top)                                                (bottom)
//
// and each layer only behaves correctly in that position: retrying must sit
// ABOVE chaos (it exists to ride out injected faults), chaos ABOVE ec (so a
// flaky backend exercises reconstruct-on-read; stacks that want chaos BELOW
// ec to rot raw shard bytes pass the pre-wrapped store to Base()), and
// ec/tiering directly over the cluster (their placement probes walk down to
// it). Build() always puts one InstrumentedStore on top, so every stack
// counts, times and traces the calls its users make — the calls the
// retrying layer absorbs stay invisible to it. Hand-wiring that order at
// every call site invited silent misbehavior; the builder enforces it at
// construct time instead.
//
// A new backend needs no registration: implement ObjectStore and pass it to
// Base().
//
// Usage (stages in canonical bottom-up order; skipping stages is fine,
// reordering or repeating them is a Build() error):
//
//   ARKFS_ASSIGN_OR_RETURN(auto stack,
//       objstore::StackBuilder()
//           .Metrics(&registry)
//           .Cluster(ClusterConfig::RadosLike())
//           .Tiering(tiering_opts, migrator_opts, ec_geometry)
//           .Scrub()
//           .Retrying(RetryPolicy::ForTests())
//           .Build());
//   stack.store         // the top of the stack — hand this to clients
//   stack.instrumented  // the same store, typed: counters and histograms
//   stack.tiering       // typed handles for every stage that was added
//
// The Tiering stage synthesizes the cold tier itself: an EcStore over the
// current store restricted to the "..cold" namespace, its shards placed via
// the cluster probe — encode-on-demote composes for free and `stack.ec` is
// the cold tier's handle (that is what ArkFsCluster::ec_store() exposes
// under DataPlacement::kTiered).
#pragma once

#include <memory>

#include "objstore/chaos_store.h"
#include "objstore/cluster_store.h"
#include "objstore/ec_store.h"
#include "objstore/instrumented_store.h"
#include "objstore/retrying_store.h"
#include "objstore/scrubber.h"
#include "objstore/tiering_store.h"

namespace arkfs::objstore {

// Typed handles to every layer a Build() produced. `store` is the top of
// the stack (what clients and lease managers should use) and `instrumented`
// is the same object; the rest are null unless the corresponding stage was
// added.
struct StoreStack {
  ObjectStorePtr store;  // top of the stack
  ObjectStorePtr base;   // bottom: the Base() store or the cluster
  std::shared_ptr<ClusterObjectStore> cluster;
  // The EC tier: the data path under Ec(), the cold tier under Tiering().
  EcStorePtr ec;
  ScrubberPtr scrubber;
  TieringStorePtr tiering;
  MigratorPtr migrator;
  std::shared_ptr<ChaosStore> chaos;
  std::shared_ptr<RetryingStore> retrying;
  std::shared_ptr<InstrumentedStore> instrumented;
};

class StackBuilder {
 public:
  StackBuilder() = default;

  // Default registry for every subsequent stage whose options carry a null
  // metrics pointer. Rank-free, but only affects stages added AFTER it —
  // call it first.
  StackBuilder& Metrics(obs::MetricsRegistry* registry);

  // --- bottom layer (exactly one of the two) ---
  // An externally built store (memory store, disk store, or a pre-wrapped
  // stack for non-canonical experiments like chaos-below-ec).
  StackBuilder& Base(ObjectStorePtr store);
  // The simulated cluster; `stack.cluster` keeps the typed handle for
  // SetNodeDown / placement introspection.
  StackBuilder& Cluster(const ClusterConfig& config);

  // --- data-placement layer (at most one of the two) ---
  StackBuilder& Ec(EcStoreOptions options);
  // TieringStore over the current store as the hot path. When
  // options.cold is null a cold-tier EcStore with `cold_geometry` is
  // synthesized over the current store (should_encode / placement are set
  // by the builder); a Migrator with `migrate` is always created.
  StackBuilder& Tiering(TieringOptions options, MigratorOptions migrate,
                        EcStoreOptions cold_geometry = EcStoreOptions());

  // A Scrubber over the EC tier (requires Ec or Tiering before it), its
  // cells on the builder's registry; its owner runs the passes.
  StackBuilder& Scrub();

  // --- fault / client-behaviour layers ---
  StackBuilder& Chaos(ChaosConfig config);
  StackBuilder& Retrying(RetryPolicy policy);

  // Puts the InstrumentedStore on top and returns the finished stack, or
  // the first composition error (wrong stage order, repeated stage, missing
  // Base/Cluster, Scrub without an EC tier).
  Result<StoreStack> Build();

 private:
  // Stage ranks (strictly increasing along the canonical order).
  // Base/Cluster=0, Ec/Tiering=1, Scrub=2, Chaos=3, Retrying=4. Returns
  // false (with error_ set) on an out-of-order call.
  bool Require(int rank, const char* stage);
  void Fail(std::string message);

  StoreStack stack_;
  ObjectStorePtr cur_;  // current top while building
  obs::MetricsRegistry* metrics_ = nullptr;
  int last_rank_ = -1;
  Status error_;
};

}  // namespace arkfs::objstore
