#include "core/cluster.h"

namespace arkfs {

namespace {
// Tier/EC-place exactly the PRT data chunks ('d'-prefixed keys,
// key_schema.h); metadata keeps the journaled replica path.
bool IsDataChunkKey(const std::string& key) {
  return !key.empty() && key.front() == 'd';
}
}  // namespace

ArkFsCluster::ArkFsCluster(ObjectStorePtr store, ArkFsClusterOptions options)
    : options_(std::move(options)) {
  tenant_metrics_ = std::make_unique<qos::TenantMetrics>(
      options_.client_template.metrics);
  if (options_.admission.enabled) {
    admission_ = std::make_unique<qos::AdmissionController>(
        options_.admission, tenant_metrics_.get());
  }
  if (options_.quota.enabled) {
    quota_ = std::make_unique<qos::QuotaManager>(options_.quota,
                                                 tenant_metrics_.get());
  }
  objstore::StackBuilder builder;
  builder.Metrics(options_.client_template.metrics).Base(std::move(store));
  EcStoreOptions ec;
  ec.k = options_.ec_data_shards;
  ec.m = options_.ec_parity_shards;
  if (options_.placement == DataPlacement::kEc) {
    ec.should_encode = IsDataChunkKey;
    builder.Ec(std::move(ec)).Scrub();
  } else if (options_.placement == DataPlacement::kTiered) {
    TieringOptions tiering;
    tiering.should_tier = IsDataChunkKey;
    builder.Tiering(std::move(tiering), options_.migrate, std::move(ec))
        .Scrub();
  }
  // Canonically composed over a live base: Build() cannot fail here.
  stack_ = builder.Build().value();  // clients AND lease managers share it
  fabric_ = std::make_shared<rpc::Fabric>(options_.network);

  const int replicas = options_.lease_replicas < 1 ? 1 : options_.lease_replicas;
  if (replicas == 1) {
    manager_addresses_ = {lease::kManagerAddress};
  } else {
    for (int i = 0; i < replicas; ++i) {
      manager_addresses_.push_back("lease-manager-" + std::to_string(i));
    }
  }
  for (int i = 0; i < replicas; ++i) {
    lease::LeaseManagerConfig config = options_.lease;
    config.self_address = manager_addresses_[static_cast<std::size_t>(i)];
    config.group = manager_addresses_;
    config.admission = admission_.get();
    lease_managers_.push_back(
        std::make_unique<lease::LeaseManager>(fabric_, stack_.store, config));
  }
}

Result<std::unique_ptr<ArkFsCluster>> ArkFsCluster::Create(
    ObjectStorePtr store, ArkFsClusterOptions options) {
  if (options.format_store) {
    Status st = Client::Format(store);
    if (!st.ok() && st.code() != Errc::kExist) return st;
  }
  ARKFS_RETURN_IF_ERROR(Client::CheckFormat(*store));
  std::unique_ptr<ArkFsCluster> cluster(
      new ArkFsCluster(std::move(store), std::move(options)));
  if (cluster->quota_) {
    // Reload quota usage persisted by a previous incarnation. kNoEnt means
    // a fresh namespace; a corrupt blob means starting from zero (usage can
    // only under-count, which is the safe direction for admission).
    auto usage = cluster->store()->Get(qos::kQuotaUsageKey);
    if (usage.ok()) (void)cluster->quota_->LoadUsage(*usage);
  }
  if (const auto& tiering = cluster->tiering_store()) {
    // Reload access stats persisted by a previous incarnation. kNoEnt or a
    // corrupt blob only resets idle clocks (demotion waits a fresh
    // demote_after) — placement itself is re-derived from the store.
    auto stats = cluster->store()->Get(kTierStatsKey);
    if (stats.ok()) (void)tiering->LoadAccessStats(*stats);
  }
  // In rank order: replica 0 finds no epoch record and claims epoch 1; the
  // rest start as its standbys.
  for (auto& manager : cluster->lease_managers_) {
    ARKFS_RETURN_IF_ERROR(manager->Start());
  }
  return cluster;
}

ArkFsCluster::~ArkFsCluster() {
  // Shut clients down before the lease managers so their releases land.
  for (auto& client : clients_) {
    (void)client->Shutdown();
  }
  clients_.clear();
  for (auto& manager : lease_managers_) manager->Stop();
}

int ArkFsCluster::ActiveLeaseReplica() {
  std::lock_guard lock(lease_mu_);
  for (std::size_t i = 0; i < lease_managers_.size(); ++i) {
    if (lease_managers_[i]->is_active()) return static_cast<int>(i);
  }
  return -1;
}

int ArkFsCluster::ActiveLeaseReplicaCount() {
  std::lock_guard lock(lease_mu_);
  int n = 0;
  for (const auto& manager : lease_managers_) n += manager->is_active();
  return n;
}

Status ArkFsCluster::KillLeaseReplica(int replica) {
  if (replica < 0 || replica >= lease_replica_count()) {
    return ErrStatus(Errc::kInval, "no such lease replica");
  }
  std::lock_guard lock(lease_mu_);
  lease_managers_[static_cast<std::size_t>(replica)]->Stop();
  return Status::Ok();
}

Status ArkFsCluster::ReviveLeaseReplica(int replica) {
  if (replica < 0 || replica >= lease_replica_count()) {
    return ErrStatus(Errc::kInval, "no such lease replica");
  }
  std::lock_guard lock(lease_mu_);
  auto& slot = lease_managers_[static_cast<std::size_t>(replica)];
  // True crash-restart semantics: the revived process has no memory of its
  // previous life. Reconstruct the manager so leases_, epoch and fence state
  // are re-derived from the shared store's epoch record — reviving the old
  // object would only model a pause/partition, never an amnesiac restart.
  lease::LeaseManagerConfig config = slot->config();
  slot->Stop();
  slot = std::make_unique<lease::LeaseManager>(fabric_, stack_.store, config);
  return slot->Start();
}

Result<std::shared_ptr<Client>> ArkFsCluster::AddClient(std::string name,
                                                        qos::TenantId tenant) {
  ClientConfig config = options_.client_template;
  config.address =
      name.empty() ? "client-" + std::to_string(next_index_++) : std::move(name);
  config.lease_options.managers = manager_addresses_;
  if (tenant != 0) config.tenant = tenant;
  config.admission = admission_.get();
  config.quota = quota_.get();
  if (quota_ || stack_.tiering) {
    // Persist quota usage and tiering access stats on the checkpoint
    // cadence: after each successful journal checkpoint, write each blob
    // iff something changed since its last write. A failed put re-arms the
    // dirty flag so the next checkpoint retries.
    qos::QuotaManager* quota = quota_.get();
    TieringStorePtr tiering = stack_.tiering;
    ObjectStorePtr store = stack_.store;
    config.journal.on_checkpoint = [quota, tiering, store] {
      if (quota && quota->ConsumeDirty()) {
        const Bytes blob = quota->EncodeUsage();
        if (!store->Put(qos::kQuotaUsageKey, blob).ok()) quota->MarkDirty();
      }
      if (tiering && tiering->ConsumeStatsDirty()) {
        const Bytes blob = tiering->EncodeAccessStats();
        if (!store->Put(kTierStatsKey, blob).ok()) tiering->MarkStatsDirty();
      }
    };
  }
  ARKFS_ASSIGN_OR_RETURN(
      auto client, Client::Create(stack_.store, fabric_, std::move(config)));
  clients_.push_back(client);
  return client;
}

VfsPtr ArkFsCluster::WithFuse(const std::shared_ptr<Client>& client,
                              FuseSimConfig config) {
  auto probe = [client](const std::string& path, const UserCred& cred) {
    return client->Probe(path, cred);
  };
  return std::make_shared<FuseSim>(client, config, probe);
}

}  // namespace arkfs
