// ArkFsCluster — a one-call harness that assembles a complete ArkFS
// deployment: object store, RPC fabric, replicated lease-manager group,
// and N clients. Used by tests, examples and every benchmark.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/fuse_sim.h"
#include "lease/lease_manager.h"
#include "objstore/stack_builder.h"
#include "qos/admission.h"
#include "qos/quota.h"
#include "qos/tenant.h"
#include "rpc/fabric.h"
#include "sim/models.h"

namespace arkfs {

// How PRT data chunks are made durable. Metadata (inodes, dentries,
// journals) always takes the replica path — its safety comes from
// journaling + CoW flips, and the lease/journal codecs fail hard on damage
// by design.
enum class DataPlacement {
  kReplica,  // whole objects, store-level replication (the historic layout)
  kEc,       // k+m Reed–Solomon stripes with reconstruct-on-read (ec_store.h)
  kTiered,   // hot replica tier + cold EC tier with operator-run
             // migration passes (tiering_store.h); new data lands at
             // replica speed, cold bytes demote to EC overhead
};

struct ArkFsClusterOptions {
  sim::NetworkProfile network = sim::NetworkProfile::Instant();
  lease::LeaseManagerConfig lease = lease::LeaseManagerConfig::ForTests();
  ClientConfig client_template = ClientConfig::ForTests("");
  // Format the store first unless it already holds a file system. Either
  // way Create mounts only an image stamped with kFormatVersion.
  bool format_store = true;
  // Lease-manager replicas (HA). 1 = single manager at kManagerAddress
  // (the historical layout); N > 1 = replicas "lease-manager-0..N-1" with
  // epoch-fenced failover through the store's epoch record. Tests that
  // exercise failover set 3.
  int lease_replicas = 1;
  // Data-chunk durability. kEc wraps the store in an EcStore (data keys
  // only) whose shards spread across ClusterObjectStore nodes when the
  // stack bottoms out in one, plus a Scrubber the deployment owns. kTiered
  // keeps data keys on the replica hot path and wraps a TieringStore whose
  // cold tier is that same EcStore geometry — demotion EC-encodes, the
  // Scrubber scrubs the cold stripes, and a Migrator the deployment owns
  // moves data by access heat.
  DataPlacement placement = DataPlacement::kReplica;
  int ec_data_shards = 4;    // k
  int ec_parity_shards = 2;  // m
  // kTiered only: migration policy (demote-after idle, promote-on-heat
  // read threshold). Scrub and migration passes run only when called
  // (scrubber()->RunOnce, migrator()->RunOnce): the CLI's `scrub` / `tier
  // migrate`, a bench or a test; the cluster starts no background loop.
  MigratorOptions migrate = MigratorOptions::ForTests();

  // --- multi-tenant QoS (all disabled by default) ---
  // Token-bucket admission, charged at ServeDirOp on the leader that serves
  // an op, and on the manager for an Acquire that grants or renews a lease
  // (a redirect is free, so a forwarded op pays once). The cluster owns one
  // shared AdmissionController and injects it into every lease-manager
  // config and every client it creates.
  qos::AdmissionConfig admission;
  // Per-tenant namespace quotas (inodes + bytes), charged at the directory
  // leader and persisted to qos::kQuotaUsageKey after journal checkpoints.
  qos::QuotaConfig quota;
  // Per-node weighted fair queueing lives in ClusterConfig::fair_queue on
  // the store the caller builds — the store exists before the cluster does.

  static ArkFsClusterOptions ForTests() { return {}; }
};

class ArkFsCluster {
 public:
  static Result<std::unique_ptr<ArkFsCluster>> Create(
      ObjectStorePtr store, ArkFsClusterOptions options);
  ~ArkFsCluster();

  // Adds a client named "client-<index>" (or `name` if given). `tenant`
  // overrides the template's tenant id when nonzero — every op the client
  // issues is admitted/queued/charged under it.
  Result<std::shared_ptr<Client>> AddClient(std::string name = "",
                                            qos::TenantId tenant = 0);

  // Wraps a client in the FUSE behaviour model, answering LOOKUPs from the
  // client's permission cache.
  VfsPtr WithFuse(const std::shared_ptr<Client>& client,
                  FuseSimConfig config = FuseSimConfig{});

  // The top of the cluster's store stack, shared by clients and lease
  // managers: an InstrumentedStore over the placement layer over the store
  // passed to Create().
  const ObjectStorePtr& store() const { return stack_.store; }
  // The same store, typed: its op counters and latency histograms see
  // every store call the deployment makes, under every placement.
  const std::shared_ptr<InstrumentedStore>& instrumented_store() const {
    return stack_.instrumented;
  }
  // The EC tier, null under kReplica. Under kEc it IS the data path (the
  // layer under instrumented_store()); under kTiered it is the COLD tier
  // the TieringStore demotes into — do not gate on `placement == kEc` to
  // decide whether EC machinery (scrub, stripe introspection) exists, check
  // the handle.
  const EcStorePtr& ec_store() const { return stack_.ec; }
  // Non-null whenever ec_store() is (kEc and kTiered both scrub their
  // stripes); a pass runs only when its RunOnce is called.
  const ScrubberPtr& scrubber() const { return stack_.scrubber; }
  // Null unless options.placement == kTiered.
  const TieringStorePtr& tiering_store() const { return stack_.tiering; }
  const MigratorPtr& migrator() const { return stack_.migrator; }
  const rpc::FabricPtr& fabric() const { return fabric_; }
  lease::LeaseManager& lease_manager() { return *lease_managers_.front(); }
  lease::LeaseManager& lease_manager(int replica) {
    return *lease_managers_.at(static_cast<std::size_t>(replica));
  }
  int lease_replica_count() const {
    return static_cast<int>(lease_managers_.size());
  }
  // Index of the replica currently claiming active, or -1 if none does
  // (mid-failover, or everything is down).
  int ActiveLeaseReplica();
  // How many replicas claim active right now (more than one = split brain
  // at the manager layer). Like ActiveLeaseReplica, safe to call from any
  // thread while another one kills or revives replicas.
  int ActiveLeaseReplicaCount();
  // Chaos hooks: stop/revive one replica. Kill models a crash of the manager
  // process — leases it granted stay valid until they expire. Revive is an
  // amnesiac restart: a FRESH LeaseManager over the shared store (all
  // in-memory lease/epoch/fence state lost, role re-resolved from the epoch
  // record), so references obtained via lease_manager(replica) before the
  // revive are invalidated; a thread observing replicas while another
  // revives them must go through the two calls above.
  Status KillLeaseReplica(int replica);
  Status ReviveLeaseReplica(int replica);

  const std::vector<std::shared_ptr<Client>>& clients() const {
    return clients_;
  }

  // Shared QoS plane; null members when the corresponding option is
  // disabled. Valid for the cluster's lifetime.
  qos::AdmissionController* admission() { return admission_.get(); }
  qos::QuotaManager* quota() { return quota_.get(); }
  qos::TenantMetrics* tenant_metrics() { return tenant_metrics_.get(); }

 private:
  ArkFsCluster(ObjectStorePtr store, ArkFsClusterOptions options);

  const ArkFsClusterOptions options_;
  // Declared before clients/lease managers so it outlives everything that
  // holds a raw pointer into it during member destruction.
  std::unique_ptr<qos::TenantMetrics> tenant_metrics_;
  std::unique_ptr<qos::AdmissionController> admission_;
  std::unique_ptr<qos::QuotaManager> quota_;
  objstore::StoreStack stack_;
  rpc::FabricPtr fabric_;
  std::vector<std::string> manager_addresses_;
  // Guards replacement of the lease_managers_ slots (ReviveLeaseReplica)
  // against the replica observers and the other chaos hooks.
  std::mutex lease_mu_;
  std::vector<std::unique_ptr<lease::LeaseManager>> lease_managers_;
  std::vector<std::shared_ptr<Client>> clients_;
  int next_index_ = 0;
};

}  // namespace arkfs
