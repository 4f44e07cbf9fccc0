// ClusterObjectStore: the simulated distributed object store.
//
// Stands in for the paper's Ceph RADOS cluster (16 storage nodes, 64 OSDs)
// or an S3-compatible service. Objects are placed on simulated storage nodes
// with consistent hashing (a hash ring with virtual nodes — CRUSH-lite) and
// replicated R ways. Each node charges a per-operation service latency and
// streams payload bytes through its own bandwidth-limited link, so aggregate
// throughput scales with nodes while a hot node saturates — the two cluster
// behaviours the evaluation depends on.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "obs/metrics.h"
#include "objstore/memory_store.h"
#include "objstore/object_store.h"
#include "qos/fair_queue.h"
#include "qos/tenant.h"
#include "sim/models.h"
#include "sim/shared_link.h"

namespace arkfs {

struct ClusterConfig {
  int num_nodes = 16;            // paper Table I: 16 storage nodes
  int replication = 3;           // RADOS default pool size
  std::uint64_t max_object_size = kDefaultMaxObjectSize;
  sim::CostProfile profile = sim::CostProfile::RadosLike();
  std::uint64_t seed = 42;       // ring placement seed
  // Where the "cluster.outage.*" counters attach; null = process default.
  obs::MetricsRegistry* metrics = nullptr;

  // --- multi-tenant QoS ---
  // Per-node weighted fair queueing: when enabled, every op waits for a
  // service slot on its PRIMARY node, drained deficit-round-robin across
  // tenant sub-queues (tenant from the ambient trace context). Only the
  // primary is gated — replica writes ride the primary's slot, so one op
  // never holds slots on several nodes (no cross-queue deadlock).
  qos::FairQueueConfig fair_queue;
  // Per-tenant shed/queued accounting; null = none. Must outlive the store.
  qos::TenantMetrics* tenant_metrics = nullptr;

  static ClusterConfig RadosLike() { return ClusterConfig{}; }
  static ClusterConfig S3Like() {
    ClusterConfig c;
    c.profile = sim::CostProfile::S3Like();
    c.max_object_size = 64ull << 20;  // S3 multipart-part-sized objects
    return c;
  }
  // No injected latency; used by unit tests that only need placement logic.
  static ClusterConfig Instant(int nodes = 4) {
    ClusterConfig c;
    c.num_nodes = nodes;
    c.profile = sim::CostProfile::Instant();
    return c;
  }
};

class ClusterObjectStore : public ObjectStore {
 public:
  explicit ClusterObjectStore(const ClusterConfig& config);

  Result<Bytes> Get(const std::string& key) override;
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override;
  Status Put(const std::string& key, ByteSpan data) override;
  // A whole-object profile (S3) answers PutRange and PutRangeIf with
  // kNotSup, before any node is charged; the PRT rewrites the chunk
  // instead (Prt::WriteData).
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override;
  // Guarded writes are evaluated atomically at the primary (one call into
  // its node store, under that store's lock) before the replicas are
  // written; a mismatch returns kStale with nothing written anywhere.
  Status PutIf(const std::string& key, ByteSpan data,
               const WriteGuard& guard) override;
  Status PutRangeIf(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard& guard) override;
  Status Delete(const std::string& key) override;
  // Like PutIf, the primary decides the guard; the replicas then follow.
  Status DeleteIf(const std::string& key, const WriteGuard& guard) override;
  Result<ObjectMeta> Head(const std::string& key) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;

  bool supports_partial_write() const override {
    return config_.profile.supports_partial_write;
  }
  std::uint64_t max_object_size() const override {
    return config_.max_object_size;
  }
  std::string name() const override { return "cluster/" + config_.profile.name; }

  const ClusterConfig& config() const { return config_; }

  // Placement introspection (tested for balance & determinism).
  std::vector<int> ReplicaNodes(const std::string& key) const;
  std::vector<std::size_t> PerNodeObjectCounts() const;

  // --- node outage / recovery (chaos controls) ---
  // While node i is down, every op whose PRIMARY replica hashes there fails
  // with kTimedOut (no read failover — the paper's Ceph pool
  // behaves the same while a PG's primary is unreachable). Writes whose
  // primary is up simply skip a down secondary; the skipped keys are
  // remembered and backfilled from a live replica when the node rejoins
  // (RADOS-recovery-lite), so a heal never resurrects stale bytes.
  void SetNodeDown(int node, bool down);
  bool NodeDown(int node) const;

 private:
  struct Node {
    std::unique_ptr<MemoryObjectStore> store;
    std::unique_ptr<sim::SharedLink> link;
    std::unique_ptr<qos::WeightedFairQueue> queue;  // null = WFQ off
  };

  // RAII pass through a node's fair queue; empty when WFQ is off.
  struct QueueTicket {
    qos::WeightedFairQueue* queue = nullptr;
    QueueTicket() = default;
    QueueTicket(const QueueTicket&) = delete;
    QueueTicket& operator=(const QueueTicket&) = delete;
    ~QueueTicket() {
      if (queue) queue->Release();
    }
  };
  // Waits for a service slot on `node` (kOk, ticket armed) or sheds
  // (kAgain + retry-after hint, ticket left empty).
  Status AdmitToNode(int node, QueueTicket* ticket);

  int PrimaryNode(const std::string& key) const;
  // The replicated write behind Put/PutRange and their guarded forms:
  // whole-object without an offset, ranged with one; a null guard writes
  // unconditionally.
  Status Write(const std::string& key, std::optional<std::uint64_t> offset,
               ByteSpan data, const WriteGuard* guard);
  // The replicated delete behind Delete and DeleteIf; a null guard deletes
  // unconditionally.
  Status Remove(const std::string& key, const WriteGuard* guard);
  void ChargeOp(int node, std::uint64_t payload_bytes, bool data_op);
  // Records that `node` missed a write for `key` while down. chaos_mu_ held.
  void MarkStaleLocked(int node, const std::string& key);
  void BackfillNodeLocked(int node);

  const ClusterConfig config_;
  sim::LatencyModel op_latency_;
  sim::LatencyModel io_latency_;
  std::vector<Node> nodes_;
  // Hash ring: position -> node index.
  std::map<std::uint64_t, int> ring_;

  mutable std::mutex chaos_mu_;
  std::vector<bool> down_;                      // per-node outage flag
  std::vector<std::set<std::string>> stale_;    // per-node missed writes
  // Outage accounting ("cluster.outage.*"): ops failed because the primary
  // was down, writes skipped on a down replica, keys resynced at recovery.
  obs::Counter rejected_ops_, stale_marks_, keys_backfilled_;
};

}  // namespace arkfs
