// arkfs::Client — the ArkFS file-system client (paper §III).
//
// Each client is a full participant in metadata management:
//
//  * It acquires per-directory leases from the lease manager and, as
//    *directory leader*, serves every metadata operation on that directory
//    from an in-memory metatable — no metadata server exists anywhere.
//  * Mutations are journaled to the directory's own journal object and
//    checkpointed back to inode/dentry objects in the background.
//  * Operations on directories led by other clients are forwarded to those
//    leaders over RPC (the paper's client-to-client gRPC path).
//  * File data flows through a write-back object cache with read-ahead,
//    coordinated across clients by read/write file leases that the
//    directory leader issues.
//  * An optional permission cache (pcache mode) lets the client resolve
//    paths locally, relieving near-root directory leaders (paper §III-C);
//    it relaxes ACL-change visibility to lease-period granularity.
//
// A Client is driven either directly through the Vfs interface (library
// use) or through FuseSim, which models FUSE's per-component LOOKUP
// behaviour for the benchmarks.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "cache/object_cache.h"
#include "core/vfs.h"
#include "core/wire.h"
#include "journal/journal.h"
#include "lease/lease_client.h"
#include "meta/metatable.h"
#include "meta/path.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "objstore/object_store.h"
#include "prt/translator.h"
#include "qos/admission.h"
#include "qos/quota.h"
#include "rpc/fabric.h"

namespace arkfs {

struct ClientConfig {
  std::string address;             // this client's fabric address
  bool permission_cache = true;    // pcache mode (paper §III-C)
  Nanos perm_cache_ttl{Seconds(5)};  // = lease period by default
  // Read delegations: when a directory is led by someone else, ask the lease
  // manager for a delegation alongside the redirect, pull a versioned
  // metatable slice from the leader once, and serve stat/lookup/readdir
  // locally until the leader's journal watermark moves past the slice (or
  // the tenure's fence token changes, or one lease term elapses). Staleness
  // is bounded by one lease term — the same window the lease protocol
  // already tolerates for a crashed leader's last acked ops.
  bool read_delegations = true;
  std::uint64_t chunk_size = 0;    // PRT data chunk size (0 = store max)
  // Async object-I/O layer config (workers, in-flight cap). Store retries
  // are the store stack's business (RetryingStore), not this layer's.
  AsyncIoConfig async;
  CacheConfig cache;
  journal::JournalConfig journal;
  lease::LeaseClient::Options lease_options;

  // Where this client's metric cells attach (propagated into the journal
  // and async-I/O configs when those leave theirs null); null = process
  // default registry.
  obs::MetricsRegistry* metrics = nullptr;

  // --- multi-tenant QoS ---
  // Tenant this client's applications run as (0 = default/untenanted).
  // Stamped into the ambient trace context at every Vfs entry point, so it
  // rides to lease acquires, forwarded ops and background store I/O.
  std::uint32_t tenant = 0;
  // Shared QoS objects, injected by the cluster (null = feature off; must
  // outlive the client). `admission` gates ops this client serves as a
  // directory leader; `quota` charges namespace usage on the mutation path.
  qos::AdmissionController* admission = nullptr;
  qos::QuotaManager* quota = nullptr;

  static ClientConfig ForTests(std::string address) {
    ClientConfig c;
    c.address = std::move(address);
    c.cache = CacheConfig::ForTests();
    c.journal = journal::JournalConfig::ForTests();
    c.perm_cache_ttl = Millis(200);
    // Tests run 200 ms lease terms; a renewal stall must resolve (to lame
    // duck or failover) well inside one term, not ride the 2 s default
    // manager-retry deadline.
    c.lease_options.rpc_retry.max_attempts = 4;
    c.lease_options.rpc_retry.initial_backoff = Millis(1);
    c.lease_options.rpc_retry.max_backoff = Millis(5);
    c.lease_options.rpc_retry.deadline = Millis(150);
    return c;
  }
};

// Point-in-time copy of one client's "client.*" metric cells (the cells
// themselves also report into the MetricsRegistry under these names).
struct ClientStats {
  std::uint64_t local_meta_ops = 0;     // served from own metatables
  std::uint64_t forwarded_ops = 0;      // sent to remote leaders
  std::uint64_t served_remote_ops = 0;  // served on behalf of other clients
  std::uint64_t lease_acquires = 0;
  std::uint64_t lease_redirects = 0;
  std::uint64_t perm_cache_hits = 0;
  std::uint64_t recoveries = 0;
  // Stat-family ops (lookup / getattr) split by serving path.
  std::uint64_t stat_local = 0;      // this client led the directory
  std::uint64_t stat_forwarded = 0;  // sent to the remote leader
  std::uint64_t stat_delegated = 0;  // served from a delegated slice
  // Read-delegation cache traffic.
  std::uint64_t deleg_hits = 0;           // ops served from a cached slice
  std::uint64_t deleg_misses = 0;         // delegable ops that fell through
  std::uint64_t deleg_refetches = 0;      // slice pulls from the leader
  std::uint64_t deleg_invalidations = 0;  // slices dropped (watermark/token)
  // Leader hints dropped because the hinted client answered "not leader" /
  // "lease expired" or could not be reached.
  std::uint64_t leader_hint_stale = 0;
};

class Client : public Vfs {
 public:
  // Initializes an empty file system on the store: writes the root inode,
  // its dentry manifest and, last, the format stamp (kFormatKey). Idempotent
  // only if `force`, which also restamps an existing image.
  static Status Format(const ObjectStorePtr& store, bool force = false);
  // The mount check: Ok only if the store carries a well-formed stamp of
  // kFormatVersion. A missing, torn or other-version stamp is kInval.
  static Status CheckFormat(ObjectStore& store);

  // Uses `store` as given: a deployment's store stack (StackBuilder, as
  // ArkFsCluster builds it) already counts, times and traces every call.
  static Result<std::shared_ptr<Client>> Create(ObjectStorePtr store,
                                                rpc::FabricPtr fabric,
                                                ClientConfig config);
  ~Client() override;

  // Flushes all state, releases leases, unbinds from the fabric.
  Status Shutdown();

  // Simulates a hard crash: the client vanishes from the network without
  // flushing anything. Journal objects keep whatever was committed; running
  // transactions and dirty cache entries are lost. For crash tests.
  void CrashHard();

  // --- Vfs interface ---
  Result<Fd> Open(const std::string& path, const OpenOptions& options,
                  const UserCred& cred) override;
  Status Close(Fd fd) override;
  Result<Bytes> Read(Fd fd, std::uint64_t offset,
                     std::uint64_t length) override;
  Result<std::uint64_t> Write(Fd fd, std::uint64_t offset,
                              ByteSpan data) override;
  Status Fsync(Fd fd) override;
  Result<StatResult> Stat(const std::string& path,
                          const UserCred& cred) override;
  Status Mkdir(const std::string& path, std::uint32_t mode,
               const UserCred& cred) override;
  Status Rmdir(const std::string& path, const UserCred& cred) override;
  Status Unlink(const std::string& path, const UserCred& cred) override;
  Status Rename(const std::string& from, const std::string& to,
                const UserCred& cred) override;
  Result<std::vector<Dentry>> ReadDir(const std::string& path,
                                      const UserCred& cred) override;
  Status SetAttr(const std::string& path, const SetAttrRequest& req,
                 const UserCred& cred) override;
  Status Symlink(const std::string& target, const std::string& path,
                 const UserCred& cred) override;
  Result<std::string> ReadLink(const std::string& path,
                               const UserCred& cred) override;
  Status SetAcl(const std::string& path, const Acl& acl,
                const UserCred& cred) override;
  Result<Acl> GetAcl(const std::string& path, const UserCred& cred) override;
  Status SyncAll() override;
  Status DropCaches() override;

  // Lightweight existence/permission probe used by the FUSE model's
  // per-component LOOKUPs. Served from the permission cache when enabled.
  Status Probe(const std::string& path, const UserCred& cred);

  ClientStats stats() const;
  const ClientConfig& config() const { return config_; }
  const std::string& address() const { return config_.address; }
  CacheStats cache_stats() const { return cache_->stats(); }
  // This client's journal metric cells (crash tests distinguish a deposed
  // leader's fence rejections from its successor's).
  const journal::JournalMetrics& journal_metrics() const {
    return journal_->metrics();
  }
  // The per-client span ring (also surfaced through Vfs::Introspect).
  obs::Tracer& tracer() { return tracer_; }

  // The metrics snapshot of config_.metrics (or the process default), the
  // span ring, the journal's mode and window, and the held delegations.
  IntrospectReport Introspect() override;

 private:
  friend class ClientOpsTestPeer;

  // --- per-directory leader state ---
  struct FileLeaseInfo {
    std::set<std::string> readers;  // client addresses holding read leases
    std::string writer;             // exclusive write-lease holder
    bool direct_io = false;         // caching revoked; everyone goes direct
  };

  struct DirHandle {
    Uuid ino;
    std::shared_mutex mu;
    // Serializes applying lease grants, so a concurrent grant on this
    // client cannot become leader before the predecessor flush of another
    // has landed. That flush is a fabric call made under grant_mu and never
    // under `mu`, which the predecessor's ServeDirOp takes on its side;
    // grant_mu is only ever taken with no other lock held.
    std::mutex grant_mu;
    std::unique_ptr<Metatable> metatable;  // present iff leader
    bool leader = false;
    // Lame duck: still leader with an unexpired lease, but renewal is
    // failing (manager unreachable). Reads keep being served; mutations are
    // fenced with kStale so nothing new lands that a successor — who may
    // already be getting elected — could miss. Cleared on successful
    // renewal, on handoff (kFlushDir), and when the lease finally expires.
    bool lame_duck = false;
    TimePoint lease_until{};
    Nanos lease_duration{0};
    // Fencing token of the current leadership tenure (lease-HA). Stamped
    // into journal commits; a successor advancing the persisted fence makes
    // our commits fail kStale, which HandleDeposed turns into a clean
    // leadership drop.
    FenceToken fence;
    // Dentry shard count observed at the last leadership (1 until known).
    // Seeds the speculative bootstrap batch so re-acquiring the lease loads
    // inode + shards + journal probe in one store round trip.
    std::uint32_t shard_hint = 1;
    std::unordered_map<Uuid, FileLeaseInfo> file_leases;
  };
  using DirHandlePtr = std::shared_ptr<DirHandle>;

  // Result of resolving who serves a directory.
  struct DirRef {
    DirHandlePtr local;   // set if this client leads the directory
    std::string remote;   // else: the leader's address
  };

  // --- read delegations (client_deleg.cc) ---
  // Immutable point-in-time copy of a remote leader's metatable, stamped
  // with the tenure + watermark it was read under. Shared by reference so
  // concurrent delegated ops serve from it without holding deleg_mu_; no
  // one writes to the table after DelegFetchSlice builds it.
  struct DelegSlice {
    Metatable table;
    FenceToken fence;          // leader tenure the slice was read under
    std::uint64_t watermark = 0;  // leader's journal watermark at read time
  };
  using DelegSlicePtr = std::shared_ptr<const DelegSlice>;

  // Per-directory record of a directory another client leads: the leader
  // hint RunDirOp routes by, plus the read delegation when one rode along
  // with the redirect. `leader`/`token`/`until` come from the lease
  // manager's redirect (refreshed on every one). While now < `until` ops go
  // straight to `leader` without asking the manager; the leader still checks
  // its own lease on every op, so a stale hint costs a round trip, never a
  // wrong answer. The slice is pulled lazily from the leader and dropped the
  // moment its watermark falls behind or the tenure changes; a changed
  // tenure voids the whole record.
  struct DirDelegation {
    std::string leader;
    FenceToken token;             // the live lease's fencing token
    // The lease's expiry, capped by the delegation's when one rode along
    // (one lease term past the watermark report it rests on), so a lapsed
    // delegation re-asks the manager.
    TimePoint until{};
    bool delegated = false;       // a read delegation rode along
    std::uint64_t watermark = 0;  // newest leader watermark observed
    TimePoint last_fetch{};           // refetch-pacing clock
    // Quiet detector: the dir counts as quiet only when two forwarded
    // replies at least kQuietBeforeRefetch apart reported the SAME
    // watermark — a single stale reading is not evidence the churn ended.
    std::uint64_t last_seen_wm = 0;   // watermark on the last forwarded reply
    TimePoint first_seen_at{};        // first observation of that watermark
    TimePoint last_obs_at{};          // latest observation of that watermark
    Nanos backoff{};                  // adaptive refetch window (0 = base)
    DelegSlicePtr slice;
  };

  // Ops a delegate may serve from a cached slice (read-only, no directory
  // mutation, answerable from dentries + inodes alone).
  static bool IsDelegable(wire::DirOp op);
  // Stat-family ops (the fig5 STAT phase): path-component lookups and
  // getattrs. Drives the client.stat.{local,forwarded,delegated} split.
  static bool IsStatFamily(wire::DirOp op);

  // Serves `req` from the delegation cache through ServeRead; pulls a fresh
  // slice from `leader` when the cached one is missing or behind. Returns
  // false when the op must be forwarded instead: no/expired delegation,
  // failed fetch, or a ServeRead outcome other than kOk/kAccess.
  bool DelegatedServe(const Uuid& dir_ino, const std::string& leader,
                      const wire::DirOpRequest& req, wire::DirOpResponse* out);
  // Records a lease redirect: the leader hint, and the delegation when one
  // rode along.
  void AdoptRedirect(const Uuid& dir_ino,
                     const lease::LeaseClient::Redirect& redirect);
  // The hinted leader of dir_ino while its hint is live, else empty.
  std::string LeaderHint(const Uuid& dir_ino);
  // `leader` answered "not leader"/"lease expired" or was unreachable: drop
  // its record so the next attempt asks the manager. A record naming
  // another leader (a newer redirect) is kept.
  void DropLeaderHint(const Uuid& dir_ino, const std::string& leader);
  // This client leads dir_ino now: the record for a remote leader is void.
  void ForgetRemoteDir(const Uuid& dir_ino);
  // Folds the {fence, watermark} stamp piggybacked on a leader-served reply
  // into the delegation cache: a moved watermark strands the slice (next
  // delegated op refetches), a changed token voids the delegation. This is
  // what makes a delegate that just forwarded a mutation read its own write.
  void DelegObserve(const Uuid& dir_ino, const FenceToken& fence,
                    std::uint64_t watermark);
  // Pulls a slice from the leader and installs it if the delegation is still
  // the same tenure. Returns the slice to serve from, or null.
  DelegSlicePtr DelegFetchSlice(const Uuid& dir_ino,
                                const std::string& leader);
  void DelegDropAll();
  std::vector<DelegationEntry> DelegEntries();  // for Introspect

  // --- permission/dentry cache (pcache mode) ---
  struct CachedDirMeta {
    std::uint32_t mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    Acl acl;
    TimePoint expires{};
  };
  struct CachedDentry {
    Dentry dentry;
    TimePoint expires{};
  };

  struct OpenFile {
    Uuid ino;
    Uuid parent;
    OpenOptions options;
    UserCred cred;
    std::uint64_t size = 0;
    std::uint64_t chunk_size = 0;
    bool size_dirty = false;
    bool direct_io = false;   // write-back caching revoked
    bool cache_read = false;  // read lease held
    bool cache_write = false; // write lease held
  };

  Client(ObjectStorePtr store, rpc::FabricPtr fabric, ClientConfig config);
  Status Start();

  // --- directory access / lease flows (client.cc) ---
  Result<DirRef> EnsureDirAccess(const Uuid& dir_ino);
  // `predecessor_crashed`: the grant named a previous leader and the
  // kFlushDir sent to it (before handle->mu was taken) did not get through.
  Status BecomeLeader(const DirHandlePtr& handle,
                      const lease::LeaseClient::Grant& grant,
                      bool predecessor_crashed);
  // Applies a grant to a directory whose metatable is still authoritative:
  // the new term, and the fence when the token changed.
  Status ExtendTenure(DirHandle& handle,
                      const lease::LeaseClient::Grant& grant);
  // Builds the metatable; with `preloaded` (one LoadDirObjects batch) no
  // extra store round trips are paid.
  Status BuildMetatable(DirHandle& handle,
                        Prt::DirObjects* preloaded = nullptr);
  Status RelinquishDir(const Uuid& dir_ino);  // flush + drop leadership
  // A journal commit came back kStale: a successor fenced us off. Drop all
  // leadership state for the directory without writing anything — the
  // durable journal now belongs to the successor, which replays it.
  void HandleDeposed(const Uuid& dir_ino);
  // Clears every piece of leadership state (leader, lame duck, metatable,
  // file leases, fence) and, with `reset_journal`, the journal's in-memory
  // bookkeeping for the directory. handle.mu held exclusively.
  void DropLeadershipLocked(DirHandle& handle, bool reset_journal);
  // Validates/renews the lease for a local op; kAgain if leadership lost.
  Status ValidateLeaseLocked(DirHandle& handle);
  DirHandlePtr HandleFor(const Uuid& dir_ino);

  // --- RPC server side (client.cc) ---
  Result<Bytes> HandleDirOp(ByteSpan payload);
  Result<Bytes> HandleFlushFile(ByteSpan payload);
  wire::DirOpResponse ServeDirOp(const wire::DirOpRequest& req);

  // The four delegable reads (kLookup, kGetAttrDir, kGetAttrChild,
  // kReadDir) answered from `mt` — by a leader from its own metatable
  // (handle.mu held), by a delegate from its read-only slice. `child_loader`
  // yields a child-file inode `mt` may not hold yet (lazy loading).
  using ChildInodeLoader = std::function<Result<Inode>(const Uuid&)>;
  Status ServeRead(const Metatable& mt, const wire::DirOpRequest& req,
                   const UserCred& cred, const ChildInodeLoader& child_loader,
                   wire::DirOpResponse* out);

  // --- leader-local operation bodies (client_ops.cc); handle.mu held ---
  Status LeaderCreate(DirHandle& dir, const std::string& name,
                      std::uint32_t mode, bool exclusive, FileType type,
                      const std::string& symlink_target, const UserCred& cred,
                      wire::DirOpResponse* out);
  Status LeaderMkdir(DirHandle& dir, const std::string& name,
                     std::uint32_t mode, const UserCred& cred,
                     wire::DirOpResponse* out);
  Status LeaderUnlink(DirHandle& dir, const std::string& name,
                      const UserCred& cred, wire::DirOpResponse* out);
  Status LeaderRmdir(DirHandle& dir, const std::string& name,
                     const UserCred& cred);
  Status LeaderRenameLocal(DirHandle& dir, const std::string& from,
                           const std::string& to, const UserCred& cred);
  // Snapshot the metatable for a read delegate (client_deleg.cc). No cred
  // check: like kIsEmptyDir this is client-infrastructure traffic; the
  // delegate serves every op through ServeRead, the leader's own read body,
  // permission checks included.
  Status LeaderDelegateFetch(DirHandle& dir, wire::DirOpResponse* out);
  Status LeaderSetAttrChild(DirHandle& dir, const std::string& name,
                            const SetAttrRequest& req, const UserCred& cred,
                            wire::DirOpResponse* out);
  Status LeaderSetAttrDir(DirHandle& dir, const SetAttrRequest& req,
                          const UserCred& cred, wire::DirOpResponse* out);
  Status LeaderSetAclChild(DirHandle& dir, const std::string& name,
                           const Acl& acl, const UserCred& cred);
  Status LeaderSetAclDir(DirHandle& dir, const Acl& acl, const UserCred& cred);
  Status LeaderLeaseOpen(DirHandle& dir, const Uuid& ino,
                         const std::string& client, bool* granted,
                         wire::DirOpResponse* out);
  Status LeaderLeaseUpgrade(DirHandle& dir, const Uuid& ino,
                            const std::string& client, bool* granted);
  Status LeaderLeaseRelease(DirHandle& dir, const Uuid& ino,
                            const std::string& client);
  Status LeaderCommitSize(DirHandle& dir, const Uuid& ino, std::uint64_t size,
                          std::int64_t mtime_sec);

  // Ensures the child-file inode for `ino` is loaded into the metatable
  // (lazy loading; §III-C "pull the metadata from object storage").
  Result<Inode*> LoadChildInodeLocked(DirHandle& dir, const Uuid& ino);

  // --- forwarding machinery (client_ops.cc) ---
  // Runs `op` against dir_ino's leader: locally if this client leads it,
  // else as a remote DirOpRequest. Retries through lease churn.
  Result<wire::DirOpResponse> RunDirOp(const Uuid& dir_ino,
                                       wire::DirOpRequest req);
  // fsync/sync durability for one directory: commits its running journal
  // transaction at whichever client leads it (kCommitDir via RunDirOp).
  Status CommitAtLeader(const Uuid& dir_ino);

  // --- path resolution (client_ops.cc) ---
  // Resolves a directory path to its inode, enforcing exec permission on
  // every component (and following symlinks).
  Result<Uuid> ResolveDir(const std::string& path, const UserCred& cred);
  // Resolves parent of `path` and returns (parent ino, leaf name).
  struct ResolvedParent {
    Uuid parent;
    std::string name;
  };
  Result<ResolvedParent> ResolveParent(const std::string& path,
                                       const UserCred& cred);
  // One component step: lookup `name` in `dir`, with traversal perm check.
  Result<Dentry> LookupStep(const Uuid& dir, const std::string& name,
                            const UserCred& cred);

  void CachePermEntry(const Uuid& dir, const wire::DirMetaOut& meta);
  void CacheDentryEntry(const Uuid& dir, const Dentry& dentry);
  bool PcacheLookup(const Uuid& dir, const std::string& name,
                    const UserCred& cred, Dentry* out, Status* perm);
  void PcacheInvalidate(const Uuid& dir, const std::string& name);

  // Broadcast "flush your cache for ino" to lease holders. dir.mu held.
  void BroadcastFlush(DirHandle& dir, const Uuid& ino,
                      const std::string& except);

  // Writes back one open file's cached data and pushes its size to the
  // parent's leader (Fsync, SyncAll).
  Status FlushOpenFile(OpenFile& of);

  const ClientConfig config_;
  ObjectStorePtr store_;
  rpc::FabricPtr fabric_;
  std::shared_ptr<Prt> prt_;
  std::unique_ptr<lease::LeaseClient> lease_;
  std::shared_ptr<journal::JournalManager> journal_;
  std::shared_ptr<ObjectCache> cache_;
  std::shared_ptr<rpc::Endpoint> endpoint_;

  std::mutex dirs_mu_;
  std::unordered_map<Uuid, DirHandlePtr> dirs_;

  std::mutex pcache_mu_;
  std::unordered_map<Uuid, CachedDirMeta> perm_cache_;
  std::map<std::pair<Uuid, std::string>, CachedDentry> dentry_cache_;

  std::mutex deleg_mu_;
  std::unordered_map<Uuid, DirDelegation> delegations_;

  // Directories this client forwarded a mutation to since its last SyncAll
  // (their leaders hold the records; SyncAll commits there).
  std::mutex forwarded_mu_;
  std::set<Uuid> forwarded_dirs_;

  std::mutex fd_mu_;
  std::map<Fd, OpenFile> open_files_;
  Fd next_fd_ = 3;

  std::atomic<bool> shut_down_{false};

  // "client.*" metric cells (attached to config_.metrics in the ctor).
  obs::Counter local_meta_ops_;
  obs::Counter forwarded_ops_;
  obs::Counter served_remote_ops_;
  obs::Counter lease_acquires_;
  obs::Counter lease_redirects_;
  obs::Counter perm_cache_hits_;
  obs::Counter recoveries_;
  obs::Counter stat_local_;
  obs::Counter stat_forwarded_;
  obs::Counter stat_delegated_;
  obs::Counter deleg_hits_;
  obs::Counter deleg_misses_;
  obs::Counter deleg_refetches_;
  obs::Counter deleg_invalidations_;
  obs::Counter leader_hint_stale_;

  // Span ring: every Vfs entry point roots a trace here; spans recorded by
  // deeper layers (lease RPCs, journal commits, object-store ops) land in
  // the rooting client's ring via the thread-local active trace.
  obs::Tracer tracer_;
};

}  // namespace arkfs
