// The lease manager (paper §III-B, §III-E.2), replicated for HA.
//
// A lightweight coordinator that hands out per-directory leases
// first-come-first-served. It never touches file system metadata itself —
// it only remembers, per directory inode, who leads it and until when.
// Acquiring or extending a lease is one small RPC; everything heavy happens
// at the clients. The paper ran a single manager and deferred a manager
// cluster to future work; here the manager runs as a replica group:
//
//  * Replication model: N replicas on distinct fabric addresses; exactly one
//    is ACTIVE per fencing epoch, the rest are standbys that answer every
//    request with a redirect-to-active hint. There is no consensus protocol —
//    the group serializes failover through a small persisted epoch record in
//    the object store (kEpochRecordKey). Every write of it is one guarded
//    claim (ClaimEpoch): {epoch + 1, self}, landing only if the record still
//    holds exactly the bytes the claimant read (or, for the first claim, if
//    there is none). So each epoch has exactly one owner, and a replica is
//    active only at an epoch it persisted. Split brain across epochs (a
//    deposed active that has not noticed yet) is made harmless by fencing at
//    the journal layer: every grant carries a FenceToken, and commits from a
//    deposed epoch are rejected kStale at the store.
//  * Failover: standbys heartbeat the active replica; after kFailoverProbes
//    (3) consecutive misses (staggered by replica rank, so the winner is
//    predictable) a standby claims the epoch after the one it has seen. A
//    claim that misses re-reads the record and follows whoever it names. The
//    winner clears all lease state and serves a quiet period of one lease
//    term — a still-live leader's lease can therefore never be double-granted
//    — then announces the new epoch to its peers so a deposed active
//    abdicates immediately.
//
// Fault behaviours implemented:
//  * leader change with a live predecessor: the grant carries `prev_leader`
//    so the new leader can request a final flush before loading metadata;
//  * crashed leader: journal recovery — BeginRecovery fences the directory
//    (other clients get kWait) and waits out the read/write-lease period;
//  * manager restart (Stop + Start, or a fresh process over the same store):
//    a replica the record still names claims the next epoch and serves a
//    quiet period of one lease term during which every Acquire gets kWait,
//    so a still-live leader's lease cannot be double-granted;
//  * manager crash with standbys: epoch-fenced takeover as above.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/fence.h"
#include "common/uuid.h"
#include "lease/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "objstore/object_store.h"
#include "qos/admission.h"
#include "rpc/fabric.h"

namespace arkfs::lease {

struct LeaseManagerConfig {
  Nanos lease_period{Seconds(5)};   // paper default: 5 seconds
  // How long BeginRecovery wait-fences a directory so outstanding
  // read/write leases issued by the dead leader drain. Defaults to the
  // lease period (paper: "waits at least the lease period"). Tests shrink it.
  Nanos recovery_wait{Seconds(5)};

  // --- HA group ---
  // This replica's fabric address. Single-replica deployments keep the
  // canonical kManagerAddress.
  std::string self_address{kManagerAddress};
  // Every replica's address (including self), same order on all replicas;
  // the index of self_address is the replica's rank (failover stagger).
  // Empty or size 1 == unreplicated.
  std::vector<std::string> group;
  Nanos heartbeat_interval{Millis(500)};

  // Where this manager's "lease.*" metric cells attach; null = process
  // default registry.
  obs::MetricsRegistry* metrics = nullptr;
  // Optional per-tenant admission control (must outlive the manager). When
  // set, an Acquire that would grant or extend a lease first runs the
  // requesting tenant through the token bucket (a redirect is not charged);
  // a throttled tenant gets kWait with retry_after_ns — in-band, so it
  // cannot be confused with the standby-redirect kAgain convention.
  qos::AdmissionController* admission = nullptr;

  static LeaseManagerConfig ForTests() {
    LeaseManagerConfig c;
    c.lease_period = Millis(200);
    c.recovery_wait = Nanos(0);
    c.heartbeat_interval = Millis(10);
    return c;
  }
};

class LeaseManager {
 public:
  // Role and epoch come from the epoch record in `store`; in a replica
  // group, standbys heartbeat and take over per the config.
  LeaseManager(rpc::FabricPtr fabric, ObjectStorePtr store,
               LeaseManagerConfig config);
  ~LeaseManager();

  // Binds the manager's endpoint at config.self_address, resolves this
  // replica's role from the epoch record, and (in a group) starts the
  // heartbeat thread. With no record yet, the replica claims epoch 1 and
  // serves at once (no grant can predate the first epoch). If the record
  // names another replica, this one joins as its standby. If it still names
  // this replica — a restart, which Stop then Start models — the replica
  // claims the next epoch and serves a quiet period first: the process has
  // no memory of its previous life's grants, so resuming at the old epoch
  // with a reset grant counter would re-mint still-live tokens (paper
  // §III-E.2). A claim that does not land leaves the replica a standby.
  Status Start();
  void Stop();

  // --- direct (in-process) API; the RPC handlers call these ---
  AcquireResponse Acquire(const AcquireRequest& req);
  void Release(const ReleaseRequest& req);
  Status Recovery(const RecoveryRequest& req);
  PingResponse Ping(const PingRequest& req);

  // Introspection for tests.
  std::size_t ActiveLeaseCount() const;
  std::uint64_t epoch() const;
  bool is_active() const;
  const std::string& self_address() const { return config_.self_address; }
  const LeaseManagerConfig& config() const { return config_; }

 private:
  struct DirLease {
    std::string leader;
    TimePoint expires{};
    std::string last_leader;  // survives expiry; drives the `fresh` hint
    FenceToken token;         // fencing token of the live grant
    bool recovering = false;
    std::string recoverer;
    // Journal watermark the leader reported on its most recent renewal, and
    // when it reported it. Piggybacked on every read delegation; a delegate
    // whose cached slice seq falls behind refetches. Dies with leases_ on
    // every epoch change, so delegations never outlive the tenure.
    std::uint64_t watermark = 0;
    TimePoint watermark_at{};
  };

  bool Expired(const DirLease& l, TimePoint now) const {
    return l.leader.empty() || l.expires <= now;
  }

  // kAgain + active-address hint when this replica is a standby (the RPC
  // handlers' answer; LeaseClient's sweep consumes it).
  Status RedirectIfStandby() const;
  // Standby-side role decision, at Start and (`takeover`) after missed
  // heartbeats: reads the epoch record and claims the next epoch when the
  // record is absent, names this replica, or — on a takeover — is no newer
  // than the epoch this replica has seen; otherwise follows the replica it
  // names. A claim that misses (kStale) re-reads once under the Start rule
  // and follows whoever won. mu_ not held.
  void SettleRole(bool takeover);
  // Writes {read_epoch + 1, self} guarded on `read`, the record's bytes as
  // read (null: no record, create-only). Only once it lands does this
  // replica become active at that epoch, with lease state cleared, the
  // grant sequence restarted and, if it superseded a record, a quiet period
  // of one lease term. Returns the store's status; on failure the replica
  // stays a standby.
  Status ClaimEpoch(const Bytes* read, std::uint64_t read_epoch,
                    bool takeover);
  // Standby heartbeat loop; calls SettleRole(true) on missed probes.
  void HeartbeatMain();
  // Active-side deposition check: re-reads the epoch record and abdicates
  // the moment it stops naming this replica. Covers the partitioned active,
  // which never receives its successor's announce ping.
  void AuditEpochRecord();
  // Announce the (new) epoch to every peer so a deposed active abdicates.
  void AnnounceEpoch(std::uint64_t epoch);
  int Rank() const;  // index of self in group (0 if absent/unreplicated)

  const LeaseManagerConfig config_;
  rpc::FabricPtr fabric_;
  ObjectStorePtr store_;  // holds the epoch record
  std::shared_ptr<rpc::Endpoint> endpoint_;

  mutable std::mutex mu_;
  std::map<Uuid, DirLease> leases_;
  TimePoint quiet_until_{};  // post-restart / post-takeover quiet period
  bool started_ = false;
  bool active_ = false;
  std::uint64_t epoch_ = 0;      // highest epoch seen; 0 = none yet
  std::uint64_t fence_seq_ = 0;  // grant sequence of the epoch this replica
                                 // claimed; restarts at 0 with each claim
  std::string active_hint_;      // standby's best guess at the active address

  // Heartbeat thread (group deployments only).
  std::thread heartbeat_thread_;
  std::condition_variable heartbeat_cv_;
  bool heartbeat_stop_ = false;

  // "lease.*" metric cells (attached to config_.metrics in the ctor).
  obs::Counter grants_;       // new tenures (fresh fencing token minted)
  obs::Counter extensions_;   // same-tenure renewals by the current leader
  obs::Counter redirects_;    // Acquire answered kRedirect (live other leader)
  obs::Counter waits_;        // Acquire answered kWait (recovery/quiet period)
  obs::Counter releases_;     // releases that actually cleared a live grant
  obs::Counter recoveries_;   // BeginRecovery fences accepted
  obs::Counter takeovers_;    // standby->active promotions won
  obs::Counter depositions_;  // active->standby abdications (ping or record)
  obs::Counter delegations_;  // read delegations granted alongside redirects
  obs::Gauge quiet_ms_;       // width of the most recent post-failover quiet
                              // period, milliseconds
};

}  // namespace arkfs::lease
