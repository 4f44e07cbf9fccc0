// Wire format of the lease protocol (client <-> lease manager, and
// manager <-> manager heartbeats for the replicated HA group).
//
// Decoding is strict end to end: every message rejects truncated input,
// out-of-range enum values, and trailing garbage. Lease grants are the root
// of all fencing decisions, so a mangled message must fail loudly rather
// than decode to something plausible. These frames only travel the
// in-process fabric, so one build writes and reads every one of them:
// every field is mandatory, and no older frame shape is accepted.
#pragma once

#include <cstdint>
#include <string>

#include "common/codec.h"
#include "common/fence.h"
#include "common/uuid.h"

namespace arkfs::lease {

// RPC method names served by the lease manager.
inline constexpr char kMethodAcquire[] = "lease.acquire";
inline constexpr char kMethodRelease[] = "lease.release";
inline constexpr char kMethodRecovery[] = "lease.recovery";
inline constexpr char kMethodPing[] = "lease.ping";  // replica heartbeat

// The canonical fabric address of a single-replica lease manager; replicated
// groups bind "lease-manager-<i>" per replica (see ArkFsCluster).
inline constexpr char kManagerAddress[] = "lease-manager";

// Object-store key of the persisted fencing-epoch record that serializes
// manager failover (the "small persisted-epoch record" the group agrees
// through; there is no manager-to-manager consensus protocol).
inline constexpr char kEpochRecordKey[] = "sys.lease-epoch";

struct AcquireRequest {
  Uuid dir_ino;
  std::string client;  // requester's fabric address (the paper's <ip, port>)

  // Read delegations: a non-leader asking to serve reads from a cached
  // metatable slice; a live lease answers kRedirect + a delegation stamped
  // with the leader's token and last-reported watermark.
  bool want_delegation = false;
  // Leader renewals report the directory's current journal watermark here;
  // the manager piggybacks it on every delegation it hands out.
  std::uint64_t watermark = 0;

  // Requesting tenant (0 = untenanted); the manager runs it through
  // admission control before touching lease state.
  std::uint32_t tenant = 0;

  Bytes Encode() const;
  static Result<AcquireRequest> Decode(ByteSpan data);
};

enum class AcquireOutcome : std::uint8_t {
  kGranted = 0,    // caller is now the directory leader
  kRedirect = 1,   // someone else leads; `leader` has their address
  kWait = 2,       // directory recovering or manager in post-takeover quiet
                   // period; retry after a backoff
  kNotActive = 3,  // this replica is a standby; `leader` hints the active
                   // manager's fabric address (may be stale or empty)
};

struct AcquireResponse {
  AcquireOutcome outcome = AcquireOutcome::kWait;
  std::string leader;            // kRedirect: current leader address;
                                 // kNotActive: active-manager hint
  // kGranted: steady-clock expiry of the caller's lease. kRedirect: expiry
  // of the live lease, so the caller may route to `leader` until then.
  std::int64_t lease_until_ns = 0;
  // kGranted: true when the caller was also the previous leader and nobody
  // led in between — its in-memory metatable is still authoritative and need
  // not be reloaded (paper's lease-extension optimization).
  bool fresh = false;
  // kGranted: previous (different) leader to ask for a final flush, empty if
  // none. Unreachable previous leader == crash; run journal recovery.
  std::string prev_leader;
  // kGranted: the fencing token (manager epoch, per-epoch grant sequence)
  // the journal layer stamps into commit records. A grant from a deposed
  // epoch is rejected at the store (kStale) — split-brain-proof commits.
  // kRedirect: the LIVE lease's token, identifying the tenure `leader`
  // serves under (and a delegation's validity with it).
  FenceToken token;

  // Read delegations: the leader's journal watermark as last reported on a
  // renewal (0 until the first report of the tenure).
  std::uint64_t watermark = 0;
  // kRedirect only: true when the manager grants a read delegation against
  // the live lease (want_delegation was set and the lease is unexpired, not
  // recovering, and this replica is active past its quiet period).
  bool deleg = false;
  // kRedirect+deleg: steady-clock expiry of the delegation — the moment the
  // watermark report it is based on turns one lease term old.
  std::int64_t deleg_until_ns = 0;

  // kWait only: server-computed retry-after hint (0 = none). Admission
  // throttling travels IN-BAND as kWait + this field — never as a
  // status-level kAgain, whose detail the client reserves for
  // standby-redirect hints (LeaseClient::SweepManagers). The client sleeps this
  // long before retrying instead of its doubling backoff.
  std::int64_t retry_after_ns = 0;

  Bytes Encode() const;
  static Result<AcquireResponse> Decode(ByteSpan data);
};

struct ReleaseRequest {
  Uuid dir_ino;
  std::string client;
  // Token of the grant being released. A release whose token does not match
  // the live lease is ignored (late release from a deposed leader must not
  // evict the successor).
  FenceToken token;

  Bytes Encode() const;
  static Result<ReleaseRequest> Decode(ByteSpan data);
};

enum class RecoveryPhase : std::uint8_t { kBegin = 0, kEnd = 1 };

struct RecoveryRequest {
  Uuid dir_ino;
  std::string client;
  RecoveryPhase phase = RecoveryPhase::kBegin;

  Bytes Encode() const;
  static Result<RecoveryRequest> Decode(ByteSpan data);
};

// Replica heartbeat / epoch announcement. Standbys ping the active replica;
// a newly promoted active pings its peers so a deposed active abdicates
// immediately instead of waiting to observe the bumped epoch record.
struct PingRequest {
  std::uint64_t epoch = 0;  // sender's view of the current fencing epoch
  std::string from;         // sender's fabric address

  Bytes Encode() const;
  static Result<PingRequest> Decode(ByteSpan data);
};

struct PingResponse {
  std::uint64_t epoch = 0;  // responder's view of the current fencing epoch
  bool active = false;      // responder believes it is the active replica
  std::string active_hint;  // responder's best guess at the active address

  Bytes Encode() const;
  static Result<PingResponse> Decode(ByteSpan data);
};

// The persisted fencing-epoch record at kEpochRecordKey. Every write is a
// claim: {epoch + 1, self}, put with a guard on the exact bytes the claimant
// read (create-only when there was no record), so it lands only if nobody
// claimed in between and each epoch has one owner. Replicas follow whoever
// the record names. Strict magic + CRC, so outside damage fails loudly.
struct EpochRecord {
  std::uint64_t epoch = 0;
  std::string active;  // fabric address of the active replica

  Bytes Encode() const;
  static Result<EpochRecord> Decode(ByteSpan data);
};

}  // namespace arkfs::lease
