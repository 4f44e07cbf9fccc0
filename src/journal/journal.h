// Per-directory journaling (paper §III-E).
//
// One journal object per directory ("j<uuid>"), so journals for different
// directories commit in parallel with zero contention — the property that
// lets ArkFS absorb bursty archiving metadata storms. Within a directory:
//
//   running transaction  --commit-->  journal object  --checkpoint-->
//   (in-memory, buffered              (durable, framed     inode / dentry
//    up to the commit                  + CRC)              objects
//    interval, 1 s default)
//
// One flusher thread commits every directory whose running transaction is
// due (group_commit.h: the durability mode sets how long records linger).
// Checkpoints run on a small pool; each directory is statically mapped to
// one checkpoint thread by its inode number, as in the paper. A checkpointed
// transaction is removed from the journal object; any transaction still
// present in the journal at lease acquisition time therefore marks a crashed
// predecessor, and the new leader replays it (RecoverDir).
//
// RENAME across directories commits via two-phase commit: both prepared
// transactions are appended durably (phase 1), then decision records
// (phase 2), all under both directories' I/O locks so a checkpoint can never
// observe an undecided prepare. Recovery resolves a dangling prepare by
// consulting the peer directory's journal (presumed abort).
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/stats.h"
#include "journal/group_commit.h"
#include "journal/record.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prt/translator.h"

namespace arkfs::journal {

// How many dentry shards a directory gets. Checkpointing picks the smallest
// power of two B <= max_shards with entries <= target_entries * B, and only
// ever grows a directory's shard count (shrinking would churn layouts for no
// read-path win). `override_count` (benches/tests) pins B outright.
struct DentryShardPolicy {
  std::uint32_t target_entries = 4096;  // max entries per shard before growing
  std::uint32_t max_shards = 64;        // policy cap (format cap is 256)
  std::uint32_t override_count = 0;     // 0 = derive from size
};

// Smallest power-of-two shard count the policy allows for `entries`.
std::uint32_t ShardCountFor(const DentryShardPolicy& policy,
                            std::uint64_t entries);

struct JournalConfig {
  // Paper: 1 s in-memory buffering. The linger of async mode (and of sync
  // mode's redrives), and the checkpoint cadence of every mode.
  Nanos commit_interval{Seconds(1)};
  int checkpoint_threads = 2;
  DentryShardPolicy shard_policy;
  // When a mutation is acked relative to its journal append — see
  // group_commit.h for the mode contract. `group_window` bounds the
  // sequenced-but-unflushed loss window in group mode (ignored otherwise).
  DurabilityMode durability = DurabilityMode::kAsync;
  GroupWindowLimits group_window;
  // Where the "journal.*" metric cells attach; null = process default.
  obs::MetricsRegistry* metrics = nullptr;
  // Invoked (on the checkpoint thread) after each successful checkpoint of
  // any directory, once the journal trim has landed. Deployments hang
  // periodic durable housekeeping off this — e.g. persisting QoS quota
  // usage — so the extra store write rides the checkpoint cadence instead
  // of needing its own timer. Must be cheap and must not call back into
  // the JournalManager.
  std::function<void()> on_checkpoint;

  static JournalConfig ForTests() {
    JournalConfig c;
    c.commit_interval = Millis(20);
    return c;
  }
};

// Registry-backed journal metric cells (one bundle per JournalManager).
// Exported as "journal.*"; tests read a specific manager's cells directly.
struct JournalMetrics {
  obs::Counter transactions_committed;
  obs::Counter records_committed;
  obs::Counter transactions_checkpointed;
  obs::Counter journal_bytes_written;
  obs::Counter checkpoints;
  obs::Counter dentry_shards_loaded;
  obs::Counter dentry_shards_written;
  obs::Counter dentry_reshards;    // shard-count growth events
  // Lease-HA fencing (see FenceDir): guarded journal appends (one per
  // commit), commits rejected kStale because a successor advanced the
  // fence, and violations — a persisted fence BEHIND
  // the registered token, which must never happen (it would mean a grant
  // was used without FenceDir'ing first). Rejections and violations are
  // told apart by one header read after a guard mismatch, off the success
  // path. Chaos tests assert fence_violations == 0.
  obs::Counter fence_checks;
  obs::Counter fence_rejections;
  obs::Counter fence_violations;
  // Per-directory failures inside CommitAll and flusher fan-outs. The
  // Status those calls return is first-error-wins; this counter makes every
  // failing directory visible to Introspect.
  obs::Counter flush_errors;
  // Group-commit pipeline ("journal.group.*"): flusher rounds, transactions
  // they drained, appender backpressure stalls, explicit drains (fsync /
  // CommitAll and the lease-event subset: release, handoff, lame-duck
  // deposition warning), and records dropped undurable at ResetDir — the
  // realized loss window of a deposed tenure.
  obs::Counter group_flushes;
  obs::Counter group_flushed_txns;
  obs::Counter group_stalls;
  obs::Counter group_drains;
  obs::Counter group_lease_drains;
  obs::Counter group_dropped_records;

  void Attach(obs::MetricsRegistry* registry);
};

// What one ApplyTransactions call did to the dentry layout (stats/tests).
struct ApplyOutcome {
  std::uint32_t shard_count = 0;  // layout after apply (0 = untouched)
  std::uint64_t shards_loaded = 0;
  std::uint64_t shards_written = 0;
  bool resharded = false;
  bool swept = false;  // orphan-generation sweep ran this apply
};

struct RecoveryReport {
  std::size_t transactions_replayed = 0;
  std::size_t transactions_aborted = 0;  // undecided 2PC prepares
  std::size_t records_applied = 0;
};

class JournalManager {
 public:
  JournalManager(std::shared_ptr<Prt> prt, JournalConfig config);
  ~JournalManager();

  JournalManager(const JournalManager&) = delete;
  JournalManager& operator=(const JournalManager&) = delete;

  // Directory lifecycle: FenceDir + Register when a lease is acquired,
  // Unregister (flush + cut the journal object back to its header, so the
  // stored fence stays monotone across releases) when it is cleanly
  // released. Append and CommitCrossDir refuse an unregistered directory.
  //
  // Registers under a lease fencing token: every commit for this directory
  // is stamped with `token`, and every write to its journal object — the
  // append, the checkpoint trim, the release rewrite — is one guarded store
  // write that lands only while the object's fence header still holds
  // `token`. A deposed leader's write therefore never lands after its
  // successor's FenceDir, and an acked commit provably landed before it
  // (DESIGN.md §4.4). Re-registering with a newer token (fresh re-grant)
  // keeps the journal bookkeeping intact: the durable frames stay owned.
  void RegisterDir(const Uuid& dir_ino, const FenceToken& token);
  Status UnregisterDir(const Uuid& dir_ino);

  // Stamps `token` into the fence header at offset 0 of the directory's
  // journal object, as a write guarded on what it read: the header (or, on
  // a whole-object store, the entire object, whose frames move behind the
  // new header), or a create-only write if there is no journal yet — so
  // every journal is born with its header. A stamp never truncates frames:
  // a racing stamp or append makes it miss, and it reads and decides again.
  // kStale if the stored token is NEWER (the caller's grant is from a
  // deposed epoch); kInval for the zero token; kIo for a journal without a
  // header. New leaders must call this BEFORE loading/replaying the
  // directory's journal — that ordering is the split-brain argument.
  Status FenceDir(const Uuid& dir_ino, const FenceToken& token);

  // Drops all in-memory journal bookkeeping for the directory (running
  // records, committed-but-uncheckpointed queue, journal-length cursor)
  // WITHOUT touching the store. Used when leadership is lost (deposed or
  // relinquished-by-fence): the durable journal now belongs to the
  // successor, which replays it; replaying our stale in-memory copy on top
  // would double-apply or clobber.
  void ResetDir(const Uuid& dir_ino);

  // Adds records to the running transaction. Records passed together are
  // committed atomically in one transaction (e.g. CREATE = inode + dentry).
  // The records take their sequence position on the directory's running
  // queue before this returns; what else happens depends on the durability
  // mode (group_commit.h): sync commits them durably here (the returned
  // Status is the commit result — kStale means a successor fenced us mid-
  // op), group wakes the flusher and may backpressure briefly if the dirty
  // window is over its bounds, async returns immediately (the flusher
  // commits the directory one commit_interval later). Group/async always
  // return Ok.
  Status Append(const Uuid& dir_ino, std::vector<Record> records);

  // Forces running -> journal object for this directory. Does not
  // checkpoint inline; if it committed something, it asks the flusher for a
  // checkpoint under the per-interval limit, as a flusher round does.
  Status CommitDir(const Uuid& dir_ino);

  // Commit + checkpoint everything pending for the directory (fsync path,
  // lease handoff).
  Status FlushDir(const Uuid& dir_ino);

  // Durability-only flush: CommitDir for every directory, without an inline
  // checkpoint. This is what fsync()/sync() need — journaled state is
  // crash-safe; checkpointing remains background work.
  Status CommitAll();

  // Two-phase commit for RENAME: atomically (w.r.t. checkpointing) appends
  // the prepared transactions to both journals, then the commit decisions.
  // src_ino == dst_ino is invalid (same-directory rename needs no 2PC).
  Status CommitCrossDir(const Uuid& src_dir, std::vector<Record> src_records,
                        const Uuid& dst_dir, std::vector<Record> dst_records);

  // Replays any surviving journal of dir_ino from the store (crash
  // recovery). Does not require the directory to be registered.
  Result<RecoveryReport> RecoverDir(const Uuid& dir_ino);

  // True if the directory has a non-empty journal object in the store (the
  // "valid transactions remain" predecessor-crash test a new leader runs).
  bool HasSurvivingJournal(const Uuid& dir_ino);

  // Monotonic mutation watermark of the directory within the CURRENT
  // leadership tenure: bumped on every Append (and on both sides of a
  // cross-directory commit), reset to zero whenever the tenure's journal
  // bookkeeping is dropped (ResetDir, RecoverDir). Read delegations compare
  // watermarks only under an unchanged fence token, so the reset-on-tenure-
  // change is exactly what makes the comparison sound. 0 = no mutations
  // this tenure (or directory unknown).
  std::uint64_t Watermark(const Uuid& dir_ino);

  const JournalMetrics& metrics() const { return metrics_; }
  const JournalConfig& config() const { return config_; }
  DurabilityMode durability() const { return config_.durability; }

  // Current dirty-window depth: sequenced-but-unflushed records/bytes
  // (estimated) and the age of the oldest one. Tracked in every mode so
  // introspection is uniform; only group mode enforces limits against it.
  GroupWindow::Depth WindowDepth() const { return window_.depth(); }

  // Tags the caller's next CommitDir/FlushDir as a lease-event drain
  // (handoff, lame-duck deposition warning) for the introspection counters;
  // release tags itself inside UnregisterDir.
  void NoteLeaseDrain() { metrics_.group_lease_drains.Add(); }

  // Stops all background activity (flusher, checkpoint workers) at once,
  // WITHOUT flushing: models a process crash. Running transactions
  // that were never committed are abandoned in memory; only what already
  // reached the journal objects survives to recovery. Idempotent; the
  // destructor calls it too.
  void Halt();

  // Wall-clock histograms for "commit" (running txn -> journal object) and
  // "checkpoint" (journal -> authoritative objects). p50/p95/p99 via Table().
  const OpLatencySet& latencies() const { return op_latencies_; }

  // Applies parsed transactions to the authoritative objects. Exposed for
  // tests. `peer_decision` resolves prepared transactions with no local
  // decision (recovery passes a peer-journal scan; checkpointing never
  // needs it). Dentry deltas touch only the shards the batch dirtied,
  // writing each dirty shard's INACTIVE slot and flipping the manifest
  // afterwards (copy-on-write: a torn put can never damage referenced
  // state); a never-checkpointed directory starts from the empty layout
  // (see DESIGN.md for the crash-ordering protocol).
  // `sweep_orphans` additionally LISTs the directory's dentry prefix and
  // deletes every shard generation other than the final one — recovery
  // always sweeps, checkpointing sweeps after a failed apply may have left
  // orphan generation objects behind (a stale-but-decodable orphan must not
  // survive to confuse a later torn-manifest adoption).
  static Status ApplyTransactions(
      Prt& prt, const Uuid& dir_ino, const std::vector<Transaction>& txns,
      const std::function<bool(const Uuid& txid, const Uuid& peer)>&
          peer_decision,
      RecoveryReport* report, const DentryShardPolicy& policy = {},
      ApplyOutcome* outcome = nullptr, bool sweep_orphans = false);

 private:
  struct DirState {
    std::mutex mu;  // guards running/first_op/next_seq/trace
    std::vector<Record> running;
    // Arrival of the oldest record on `running`: the flusher's due clock.
    TimePoint first_op{};
    std::uint64_t next_seq = 1;
    // Estimated bytes of `running` as accounted in the manager-wide dirty
    // window (group_commit.h). Kept symmetric with the window: incremented
    // on Append, zeroed when a commit takes the batch, restored on commit
    // unwind — so drains subtract exactly what sequencing added.
    std::uint64_t pending_window_bytes = 0;
    // When the flusher last pushed this directory to a checkpoint queue,
    // and when it next should (max = none pending; see ScheduleCheckpoint).
    // Guarded by mu.
    TimePoint last_checkpoint_enqueue{};
    TimePoint checkpoint_due = TimePoint::max();
    // Trace of the op that opened the running transaction; re-installed
    // around the (possibly deferred, background-thread) commit so the
    // journal append lands in the originating request's trace.
    obs::ActiveTrace trace;

    // Lock order: checkpoint_mu -> append_mu -> mu.
    std::mutex append_mu;  // journal-object appends, committed, journal_bytes
    // Fencing token of the current leadership tenure (zero once ResetDir
    // ended it): stamped into every committed frame, and — encoded as the
    // journal's fence header — what every journal write is guarded on.
    // Guarded by append_mu.
    FenceToken fence;
    // Committed transactions awaiting checkpoint, in journal order: their
    // frames are exactly the journal object's bytes after the header, so a
    // trim rewrites the object from what stays queued.
    std::deque<Transaction> committed;
    std::uint64_t journal_bytes = 0;  // journal frame bytes after the header
    // Mutation watermark of the current tenure (see Watermark()). Atomic so
    // the read-delegation path can sample it without taking either journal
    // lock; bumps happen under st.mu (Append) or append_mu (cross-dir).
    std::atomic<std::uint64_t> watermark{0};
    std::mutex checkpoint_mu;         // one checkpointer per directory
    // A failed apply may have landed orphan shard-generation objects; the
    // next successful dentry checkpoint must sweep them (before the journal
    // is trimmed) so a stale orphan can never outlive the entries that
    // supersede it. Guarded by checkpoint_mu.
    bool sweep_orphans = false;
  };
  using DirStatePtr = std::shared_ptr<DirState>;

  DirStatePtr FindDir(const Uuid& dir_ino);
  static Status NotRegistered(const Uuid& dir_ino);

  // Writes the directory's journal object: `data` at `offset` past the
  // fence header, or (no offset) the whole object as header + `data`. It is
  // one write guarded on st.fence's header — it lands only while no
  // successor has restamped the header — and a miss reads the header once
  // to count a rejection (successor's fence) or a violation (fence behind
  // ours) before returning kStale. kInval once ResetDir ended the tenure.
  // append_mu held.
  Status WriteJournalLocked(const Uuid& dir_ino, const DirState& st,
                            std::optional<std::uint64_t> offset,
                            ByteSpan data);

  // Appends one framed transaction to the journal object. append_mu held.
  // Consumes `txn` only on success; on a store failure `txn` is left intact
  // so the caller can unwind (nothing was made durable).
  Status AppendToJournalLocked(const Uuid& dir_ino, DirState& st,
                               Transaction& txn);
  // Takes the running txn (if any) and appends it (acquires append_mu, or
  // expects it held for the Locked variant).
  Status CommitRunning(const Uuid& dir_ino, DirState& st);
  Status CommitRunningLocked(const Uuid& dir_ino, DirState& st);
  // Checkpoints all committed txns. Applies store updates WITHOUT holding
  // append_mu, so fsync-path commits never stall behind a checkpoint; the
  // consumed journal prefix is trimmed afterwards.
  Status Checkpoint(const Uuid& dir_ino, DirState& st);

  // Copies the registry, so per-directory work never runs under
  // registry_mu_ (which every metadata op takes via FindDir).
  std::vector<std::pair<Uuid, DirStatePtr>> SnapshotDirs();
  // Runs `op` against every registered directory, fanned out through the
  // async layer (first-error-wins; every directory is attempted).
  Status ForEachDir(std::function<Status(const Uuid&)> op);

  void CheckpointThreadMain(int index);
  // The one background commit loop, in every mode: commits every directory
  // whose running transaction is due through one async fan-out per round,
  // enqueues every checkpoint the per-interval limit deferred that is now
  // due, then parks on the dirty window until the next due time.
  void FlusherMain();
  // When a running transaction opened at `first_op` falls due: at once in
  // group mode, one commit_interval later otherwise — rounded up to a
  // quarter-interval grid so directories opened close together fall due
  // together (one flusher round per grid step, however many are dirty).
  TimePoint DueAt(TimePoint first_op) const;
  // Drops the tenure's journal bookkeeping (running records, with their
  // share of the dirty window; the committed queue; the journal cursor and
  // the watermark) without touching the store: ResetDir, RecoverDir. All
  // three DirState locks held.
  void DropTenureLocked(DirState& st, bool count_as_dropped);
  // Counts an explicit drain (fsync, lease event) of a directory that had
  // something pending; returns whether it had.
  bool CountDrain(DirState& st, bool lease_event);
  // Adds one ApplyTransactions outcome to the dentry-layout counters.
  void NoteApplyOutcome(const ApplyOutcome& outcome);
  // Asks the flusher to checkpoint the directory: at once, or, within
  // commit_interval of the last checkpoint it enqueued, once that interval
  // has passed (st.checkpoint_due). Sync commits and group rounds can be far
  // more frequent than that, but checkpoint cadence should not be — and no
  // commit is left unscheduled, however close behind the last one it lands.
  void ScheduleCheckpoint(DirState& st);

  int CheckpointThreadFor(const Uuid& dir) const {
    return static_cast<int>(UuidHash{}(dir) % config_.checkpoint_threads);
  }

  const JournalConfig config_;
  std::shared_ptr<Prt> prt_;

  std::mutex registry_mu_;
  std::unordered_map<Uuid, DirStatePtr> dirs_;

  std::vector<std::thread> checkpoint_threads_;
  std::vector<std::unique_ptr<MpmcQueue<Uuid>>> checkpoint_queues_;
  std::thread flusher_;

  GroupWindow window_;
  JournalMetrics metrics_;
  OpLatencySet op_latencies_{{"commit", "checkpoint", "group_flush"}};
};

}  // namespace arkfs::journal
