#include "objstore/cluster_store.h"

#include <algorithm>
#include <functional>

#include "common/rng.h"
#include "obs/trace.h"

namespace arkfs {
namespace {

constexpr int kVirtualNodes = 64;  // ring positions per node
// What an op on a key whose primary node is down reports: a transient,
// retryable error, as an unreachable RADOS primary times out.
constexpr Errc kDownError = Errc::kTimedOut;

std::uint64_t HashKey(const std::string& key) {
  // FNV-1a 64.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  // Avalanche finalizer (splitmix64). Raw FNV-1a barely moves the high bits
  // when only trailing bytes differ, and ring lookup is ordered by the high
  // bits — without this, keys that differ in a short suffix (e.g. the EC
  // placement salts) collapse onto one node and salt probing can never
  // escape it.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

}  // namespace

ClusterObjectStore::ClusterObjectStore(const ClusterConfig& config)
    : config_(config),
      op_latency_(config.profile.op_latency),
      io_latency_(config.profile.small_io_latency) {
  rejected_ops_.Attach(config_.metrics, "cluster.outage.rejected_ops");
  stale_marks_.Attach(config_.metrics, "cluster.outage.stale_marks");
  keys_backfilled_.Attach(config_.metrics, "cluster.outage.keys_backfilled");
  nodes_.reserve(config_.num_nodes);
  down_.assign(config_.num_nodes, false);
  stale_.resize(config_.num_nodes);
  Rng rng(config_.seed);
  for (int i = 0; i < config_.num_nodes; ++i) {
    Node n;
    n.store = std::make_unique<MemoryObjectStore>(
        config_.max_object_size, config_.profile.supports_partial_write);
    n.link = std::make_unique<sim::SharedLink>(config_.profile.bandwidth_bps);
    if (config_.fair_queue.enabled) {
      n.queue = std::make_unique<qos::WeightedFairQueue>(
          config_.fair_queue, config_.tenant_metrics);
    }
    nodes_.push_back(std::move(n));
    for (int v = 0; v < kVirtualNodes; ++v) {
      ring_.emplace(rng.Next(), i);
    }
  }
}

Status ClusterObjectStore::AdmitToNode(int node, QueueTicket* ticket) {
  qos::WeightedFairQueue* queue = nodes_[static_cast<std::size_t>(node)]
                                      .queue.get();
  if (queue == nullptr) return Status::Ok();
  // Tenant identity rides the ambient trace context, so background store
  // I/O (journal flushers, async writeback) queues under the tenant that
  // initiated it — the capture/restore the obs plane already does.
  ARKFS_RETURN_IF_ERROR(queue->Acquire(obs::CurrentTenant()));
  ticket->queue = queue;
  return Status::Ok();
}

int ClusterObjectStore::PrimaryNode(const std::string& key) const {
  auto it = ring_.lower_bound(HashKey(key));
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::vector<int> ClusterObjectStore::ReplicaNodes(const std::string& key) const {
  std::vector<int> out;
  auto it = ring_.lower_bound(HashKey(key));
  // Walk the ring collecting distinct nodes, wrapping at the end.
  for (std::size_t steps = 0; steps < ring_.size() &&
       out.size() < static_cast<std::size_t>(config_.replication); ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
    ++it;
  }
  return out;
}

void ClusterObjectStore::ChargeOp(int node, std::uint64_t payload_bytes,
                                  bool data_op) {
  op_latency_.Apply();
  if (data_op) io_latency_.Apply();
  if (payload_bytes > 0) nodes_[node].link->Transfer(payload_bytes);
}

// Returns the kDownError status if `node` is down, bumping rejected_ops.
#define ARKFS_CLUSTER_REJECT_IF_DOWN(node, key)                        \
  do {                                                                 \
    std::lock_guard _lock(chaos_mu_);                                  \
    if (down_[node]) {                                                 \
      rejected_ops_.Add();                                             \
      return ErrStatus(kDownError,                                     \
                       "node " + std::to_string(node) + " down: " + (key)); \
    }                                                                  \
  } while (0)

Result<Bytes> ClusterObjectStore::Get(const std::string& key) {
  const int node = PrimaryNode(key);
  QueueTicket ticket;
  ARKFS_RETURN_IF_ERROR(AdmitToNode(node, &ticket));
  ARKFS_CLUSTER_REJECT_IF_DOWN(node, key);
  auto result = nodes_[node].store->Get(key);
  ChargeOp(node, result.ok() ? result->size() : 0, true);
  return result;
}

Result<Bytes> ClusterObjectStore::GetRange(const std::string& key,
                                           std::uint64_t offset,
                                           std::uint64_t length) {
  const int node = PrimaryNode(key);
  QueueTicket ticket;
  ARKFS_RETURN_IF_ERROR(AdmitToNode(node, &ticket));
  ARKFS_CLUSTER_REJECT_IF_DOWN(node, key);
  auto result = nodes_[node].store->GetRange(key, offset, length);
  ChargeOp(node, result.ok() ? result->size() : 0, true);
  return result;
}

Status ClusterObjectStore::Put(const std::string& key, ByteSpan data) {
  return Write(key, std::nullopt, data, nullptr);
}

Status ClusterObjectStore::PutIf(const std::string& key, ByteSpan data,
                                 const WriteGuard& guard) {
  return Write(key, std::nullopt, data, &guard);
}

Status ClusterObjectStore::PutRange(const std::string& key,
                                    std::uint64_t offset, ByteSpan data) {
  return Write(key, offset, data, nullptr);
}

Status ClusterObjectStore::PutRangeIf(const std::string& key,
                                      std::uint64_t offset, ByteSpan data,
                                      const WriteGuard& guard) {
  return Write(key, offset, data, &guard);
}

Status ClusterObjectStore::Write(const std::string& key,
                                 std::optional<std::uint64_t> offset,
                                 ByteSpan data, const WriteGuard* guard) {
  if (offset && !supports_partial_write()) {
    return ErrStatus(Errc::kNotSup, "cluster profile is whole-object only");
  }
  const auto replicas = ReplicaNodes(key);
  QueueTicket ticket;
  ARKFS_RETURN_IF_ERROR(AdmitToNode(replicas[0], &ticket));
  ARKFS_CLUSTER_REJECT_IF_DOWN(replicas[0], key);
  // Primary-copy replication: client streams to the primary, which pipelines
  // to replicas. The client-visible cost is the primary transfer plus one
  // inter-replica op latency (pipelined, so not multiplied by R).
  ChargeOp(replicas[0], data.size(), true);
  if (replicas.size() > 1) op_latency_.Apply();
  auto write = [&](MemoryObjectStore& node, const WriteGuard* g) {
    if (!offset) return g ? node.PutIf(key, data, *g) : node.Put(key, data);
    return g ? node.PutRangeIf(key, *offset, data, *g)
             : node.PutRange(key, *offset, data);
  };
  Status st = Status::Ok();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const int node = replicas[i];
    if (i > 0 || guard == nullptr) {
      std::lock_guard lock(chaos_mu_);
      if (down_[node]) {
        MarkStaleLocked(node, key);
        continue;
      }
    }
    // The primary decides the guard (a primary that went down since
    // admission still takes the op it admitted); the replicas then follow
    // unconditionally.
    Status s = write(*nodes_[node].store, i == 0 ? guard : nullptr);
    if (i == 0 && s.code() == Errc::kStale) return s;
    if (!s.ok()) st = s;
  }
  return st;
}

Status ClusterObjectStore::Delete(const std::string& key) {
  return Remove(key, nullptr);
}

Status ClusterObjectStore::DeleteIf(const std::string& key,
                                    const WriteGuard& guard) {
  return Remove(key, &guard);
}

Status ClusterObjectStore::Remove(const std::string& key,
                                  const WriteGuard* guard) {
  const auto replicas = ReplicaNodes(key);
  QueueTicket ticket;
  ARKFS_RETURN_IF_ERROR(AdmitToNode(replicas[0], &ticket));
  ARKFS_CLUSTER_REJECT_IF_DOWN(replicas[0], key);
  ChargeOp(replicas[0], 0, false);
  Status st = Status::Ok();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const int node = replicas[i];
    if (i > 0 || guard == nullptr) {
      std::lock_guard lock(chaos_mu_);
      if (down_[node]) {
        // Backfill resolves a missed delete the same way as a missed write:
        // no live replica holds the object, so the stale copy is dropped.
        MarkStaleLocked(node, key);
        continue;
      }
    }
    // As in Write: the primary decides the guard, the replicas follow.
    MemoryObjectStore& store = *nodes_[node].store;
    Status s =
        i == 0 && guard ? store.DeleteIf(key, *guard) : store.Delete(key);
    if (i == 0 && s.code() == Errc::kStale) return s;
    if (!s.ok()) st = s;
  }
  return st;
}

Result<ObjectMeta> ClusterObjectStore::Head(const std::string& key) {
  const int node = PrimaryNode(key);
  QueueTicket ticket;
  ARKFS_RETURN_IF_ERROR(AdmitToNode(node, &ticket));
  ARKFS_CLUSTER_REJECT_IF_DOWN(node, key);
  ChargeOp(node, 0, false);
  return nodes_[node].store->Head(key);
}

#undef ARKFS_CLUSTER_REJECT_IF_DOWN

Result<std::vector<std::string>> ClusterObjectStore::List(
    const std::string& prefix) {
  // Scatter-gather across all nodes; queries run in parallel on a real
  // cluster, so charge a single op latency. Down nodes are skipped — with
  // R-way replication their keys still appear via live replicas (with R=1
  // they are invisible until recovery, like a degraded pool).
  op_latency_.Apply();
  std::vector<std::string> merged;
  std::size_t live = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (NodeDown(static_cast<int>(i))) continue;
    ++live;
    auto part = nodes_[i].store->List(prefix);
    if (!part.ok()) return part.status();
    merged.insert(merged.end(), part->begin(), part->end());
  }
  if (live == 0) return ErrStatus(kDownError, "all nodes down");
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

void ClusterObjectStore::SetNodeDown(int node, bool down) {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return;
  std::lock_guard lock(chaos_mu_);
  if (down_[static_cast<std::size_t>(node)] == down) return;
  down_[static_cast<std::size_t>(node)] = down;
  if (!down) BackfillNodeLocked(node);
}

bool ClusterObjectStore::NodeDown(int node) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return false;
  std::lock_guard lock(chaos_mu_);
  return down_[static_cast<std::size_t>(node)];
}

void ClusterObjectStore::MarkStaleLocked(int node, const std::string& key) {
  if (stale_[static_cast<std::size_t>(node)].insert(key).second) {
    stale_marks_.Add();
  }
}

void ClusterObjectStore::BackfillNodeLocked(int node) {
  // Recovery backfill: every write the node missed is resynced from a live
  // replica; a key no live replica holds any more was deleted meanwhile and
  // the rejoining node drops its stale copy.
  auto& stale = stale_[static_cast<std::size_t>(node)];
  for (const auto& key : stale) {
    bool restored = false;
    for (int replica : ReplicaNodes(key)) {
      if (replica == node || down_[static_cast<std::size_t>(replica)]) continue;
      auto data = nodes_[replica].store->Get(key);
      if (data.ok()) {
        (void)nodes_[node].store->Put(key, *data);
        restored = true;
        break;
      }
    }
    if (!restored) (void)nodes_[node].store->Delete(key);
    keys_backfilled_.Add();
  }
  stale.clear();
}

std::vector<std::size_t> ClusterObjectStore::PerNodeObjectCounts() const {
  std::vector<std::size_t> counts;
  counts.reserve(nodes_.size());
  for (const auto& node : nodes_) counts.push_back(node.store->ObjectCount());
  return counts;
}

}  // namespace arkfs
