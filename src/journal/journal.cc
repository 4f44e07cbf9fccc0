#include "journal/journal.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/log.h"

namespace arkfs::journal {

std::uint32_t ShardCountFor(const DentryShardPolicy& policy,
                            std::uint64_t entries) {
  std::uint32_t cap = std::min(policy.max_shards, kMaxDentryShards);
  if (!IsPow2(cap)) {  // round a non-pow2 cap down
    std::uint32_t p = 1;
    while (p * 2 <= cap) p *= 2;
    cap = p;
  }
  if (cap == 0) cap = 1;
  if (policy.override_count != 0) {
    std::uint32_t b = 1;  // round the override up to a power of two
    while (b < policy.override_count && b < kMaxDentryShards) b *= 2;
    return b;
  }
  std::uint32_t b = 1;
  while (b < cap &&
         entries > static_cast<std::uint64_t>(policy.target_entries) * b) {
    b *= 2;
  }
  return b;
}

void JournalMetrics::Attach(obs::MetricsRegistry* registry) {
  transactions_committed.Attach(registry, "journal.transactions_committed");
  records_committed.Attach(registry, "journal.records_committed");
  transactions_checkpointed.Attach(registry,
                                   "journal.transactions_checkpointed");
  journal_bytes_written.Attach(registry, "journal.bytes_written");
  checkpoints.Attach(registry, "journal.checkpoints");
  dentry_shards_loaded.Attach(registry, "journal.dentry.shards_loaded");
  dentry_shards_written.Attach(registry, "journal.dentry.shards_written");
  dentry_reshards.Attach(registry, "journal.dentry.reshards");
  fence_checks.Attach(registry, "journal.commit.fence_checks");
  fence_rejections.Attach(registry, "journal.commit.fence_rejections");
  fence_violations.Attach(registry, "journal.commit.fence_violations");
  flush_errors.Attach(registry, "journal.flush.errors");
  group_flushes.Attach(registry, "journal.group.flushes");
  group_flushed_txns.Attach(registry, "journal.group.flushed_txns");
  group_stalls.Attach(registry, "journal.group.stalls");
  group_drains.Attach(registry, "journal.group.drains");
  group_lease_drains.Attach(registry, "journal.group.lease_drains");
  group_dropped_records.Attach(registry, "journal.group.dropped_records");
}

JournalManager::JournalManager(std::shared_ptr<Prt> prt, JournalConfig config)
    : config_(config), prt_(std::move(prt)), window_(config_.group_window) {
  metrics_.Attach(config_.metrics);
  obs::MetricsRegistry& reg = config_.metrics != nullptr
                                  ? *config_.metrics
                                  : obs::MetricsRegistry::Default();
  reg.RegisterHistograms("journal", &op_latencies_);
  checkpoint_queues_.reserve(config_.checkpoint_threads);
  for (int i = 0; i < config_.checkpoint_threads; ++i) {
    checkpoint_queues_.push_back(std::make_unique<MpmcQueue<Uuid>>());
  }
  for (int i = 0; i < config_.checkpoint_threads; ++i) {
    checkpoint_threads_.emplace_back([this, i] { CheckpointThreadMain(i); });
  }
  flusher_ = std::thread([this] { FlusherMain(); });
}

JournalManager::~JournalManager() {
  Halt();
  obs::MetricsRegistry& reg = config_.metrics != nullptr
                                  ? *config_.metrics
                                  : obs::MetricsRegistry::Default();
  reg.UnregisterHistograms(&op_latencies_);
}

void JournalManager::Halt() {
  window_.Close();  // wakes the flusher wherever it is parked
  if (flusher_.joinable()) flusher_.join();
  for (auto& q : checkpoint_queues_) q->Close();
  for (auto& t : checkpoint_threads_) {
    if (t.joinable()) t.join();
  }
}

void JournalManager::RegisterDir(const Uuid& dir_ino,
                                 const FenceToken& token) {
  DirStatePtr st;
  {
    std::lock_guard lock(registry_mu_);
    auto& slot = dirs_[dir_ino];
    if (!slot) slot = std::make_shared<DirState>();
    st = slot;
  }
  std::lock_guard append(st->append_mu);
  // Only the token changes: on a fresh re-grant (same client, metatable
  // still authoritative) durable frames and their bookkeeping stay owned by
  // this journal — resetting here would orphan acked transactions.
  st->fence = token;
}

Status JournalManager::FenceDir(const Uuid& dir_ino, const FenceToken& token) {
  if (!token.valid()) {
    return ErrStatus(Errc::kInval, "fence token " + token.ToString());
  }
  obs::Span span("journal.fence");
  ObjectStore& store = prt_->store();
  const std::string key = JournalKey(dir_ino);
  const Bytes mine = EncodeFenceObject(token);
  const bool in_place = store.supports_partial_write();
  // Every stamp is guarded on what was read (a first one is create-only),
  // so a racing stamp or append makes it miss instead of being overwritten
  // or truncated; then read and decide again.
  for (int attempt = 0; attempt < 8; ++attempt) {
    // Only the header where it can be restamped in place: the journal
    // behind it may be long.
    auto read = in_place ? store.GetRange(key, 0, kFenceObjectBytes)
                         : store.Get(key);
    const bool exists = read.ok();
    if (!exists && read.code() != Errc::kNoEnt) return read.status();
    Bytes current = exists ? std::move(*read) : Bytes{};
    // Every journal is born with its header: one without is corrupt.
    FenceToken stored;
    if (exists) {
      ARKFS_ASSIGN_OR_RETURN(stored, JournalFence(current));
    }
    if (stored > token) {
      return ErrStatus(Errc::kStale, "lease fence superseded: stored " +
                                         stored.ToString() + " > granted " +
                                         token.ToString());
    }
    if (stored == token) return Status::Ok();
    Status stamped;
    if (!exists) {
      stamped = store.PutIf(key, mine, WriteGuard::Absent());
    } else if (in_place) {
      stamped = store.PutRangeIf(key, 0, mine, {0, current});
    } else {
      // Whole-object store: swap our header in front of the frames, guarded
      // on the entire object as read — an append racing the rewrite must
      // make it miss, not vanish under it.
      Bytes object = mine;
      object.insert(object.end(), current.begin() + kFenceObjectBytes,
                    current.end());
      stamped = store.PutIf(key, object, {0, current, /*whole=*/true});
    }
    if (stamped.code() != Errc::kStale) return stamped;
  }
  return ErrStatus(Errc::kAgain, "journal fence kept changing: " + key);
}

void JournalManager::ResetDir(const Uuid& dir_ino) {
  DirStatePtr st = FindDir(dir_ino);
  if (!st) return;
  std::scoped_lock locks(st->checkpoint_mu, st->append_mu, st->mu);
  // Sequenced-but-unflushed records die here with the tenure — that is the
  // documented loss window of the group/async modes, and dropped_records is
  // its realized size.
  DropTenureLocked(*st, /*count_as_dropped=*/true);
  st->fence = FenceToken{};
}

void JournalManager::DropTenureLocked(DirState& st, bool count_as_dropped) {
  const std::uint64_t n = st.running.size();
  window_.NoteDrained(n, st.pending_window_bytes);
  st.pending_window_bytes = 0;
  if (count_as_dropped && n > 0) metrics_.group_dropped_records.Add(n);
  st.running.clear();
  st.committed.clear();
  st.journal_bytes = 0;
  st.watermark.store(0, std::memory_order_relaxed);
}

bool JournalManager::CountDrain(DirState& st, bool lease_event) {
  std::lock_guard lock(st.mu);
  if (st.running.empty()) return false;
  metrics_.group_drains.Add();
  if (lease_event) metrics_.group_lease_drains.Add();
  return true;
}

Status JournalManager::UnregisterDir(const Uuid& dir_ino) {
  DirStatePtr st = FindDir(dir_ino);
  if (!st) return Status::Ok();
  // Lease release is a forced drain point: nothing sequenced may stay
  // unflushed once the lease (and with it our fence) is gone.
  CountDrain(*st, /*lease_event=*/true);
  ARKFS_RETURN_IF_ERROR(CommitRunning(dir_ino, *st));
  ARKFS_RETURN_IF_ERROR(Checkpoint(dir_ino, *st));
  {
    std::lock_guard append(st->append_mu);
    ARKFS_RETURN_IF_ERROR(WriteJournalLocked(dir_ino, *st, {}, {}));
    st->journal_bytes = 0;
  }
  std::lock_guard lock(registry_mu_);
  dirs_.erase(dir_ino);
  return Status::Ok();
}

Status JournalManager::Append(const Uuid& dir_ino,
                              std::vector<Record> records) {
  obs::Span span("journal.append");
  const std::uint64_t n_records = records.size();
  const std::uint64_t est_bytes = ApproxRecordBytes(records);
  DirStatePtr st = FindDir(dir_ino);
  if (!st) return NotRegistered(dir_ino);
  {
    std::lock_guard lock(st->mu);
    const bool opened = st->running.empty();
    if (opened) {
      st->first_op = Now();
      // The transaction's trace is the trace of its first op; a deferred
      // commit on the flusher replays it (later appends piggyback).
      st->trace = obs::CaptureTrace();
    }
    // Taking a position on the running queue under st->mu IS the sequence
    // assignment: commits drain the queue in order and allocate the frame
    // seq under the same locks.
    st->running.insert(st->running.end(),
                       std::make_move_iterator(records.begin()),
                       std::make_move_iterator(records.end()));
    st->pending_window_bytes += est_bytes;
    // Publish to the window while still holding st->mu (lock order st.mu ->
    // GroupWindow::mu_, same as DropTenureLocked): a concurrent
    // CommitRunningLocked can only claim these records AFTER this critical
    // section, so its NoteDrained always observes this NoteSequenced. Done
    // outside, the drain's min-clamp could run first and the late sequence
    // add would leak window depth permanently (and with it the age bound,
    // stalling every subsequent group-mode append).
    // Only an append that opens the running transaction moves the
    // directory's due time, so only it announces one to the flusher — and
    // never in sync mode, whose inline commit below takes the records
    // (the flusher hears of them only if that commit unwinds).
    const bool announce =
        opened && config_.durability != DurabilityMode::kSync;
    window_.NoteSequenced(n_records, est_bytes,
                          announce ? DueAt(st->first_op) : TimePoint::max());
    // Delegation watermark: every accepted mutation advances it, BEFORE the
    // op is acked, so a delegate that observes the piggybacked watermark on
    // any later reply can never miss the mutation it races with.
    st->watermark.fetch_add(1, std::memory_order_relaxed);
  }
  switch (config_.durability) {
    case DurabilityMode::kSync: {
      // Durable before ack. On failure the records stay on the running
      // queue (commit unwind), so the flusher redrives them once they are
      // commit_interval old — the caller sees the error and must not ack
      // the op.
      ARKFS_RETURN_IF_ERROR(CommitRunning(dir_ino, *st));
      ScheduleCheckpoint(*st);
      return Status::Ok();
    }
    case DurabilityMode::kGroup:
      // Acked on sequence; the flusher was woken by NoteSequenced. Hold the
      // appender only while the dirty window is over its bounds.
      if (window_.Backpressure()) metrics_.group_stalls.Add();
      return Status::Ok();
    case DurabilityMode::kAsync:
      return Status::Ok();
  }
  return Status::Ok();
}

std::uint64_t JournalManager::Watermark(const Uuid& dir_ino) {
  DirStatePtr st = FindDir(dir_ino);
  return st ? st->watermark.load(std::memory_order_relaxed) : 0;
}

JournalManager::DirStatePtr JournalManager::FindDir(const Uuid& dir_ino) {
  std::lock_guard lock(registry_mu_);
  auto it = dirs_.find(dir_ino);
  return it == dirs_.end() ? nullptr : it->second;
}

Status JournalManager::NotRegistered(const Uuid& dir_ino) {
  return ErrStatus(Errc::kInval,
                   "journal not registered: " + dir_ino.ToString());
}

Status JournalManager::WriteJournalLocked(const Uuid& dir_ino,
                                          const DirState& st,
                                          std::optional<std::uint64_t> offset,
                                          ByteSpan data) {
  ObjectStore& store = prt_->store();
  const std::string key = JournalKey(dir_ino);
  // Reset: the tenure is over, and its journal is someone else's.
  if (!st.fence.valid()) return NotRegistered(dir_ino);
  const Bytes header = EncodeFenceObject(st.fence);
  const WriteGuard guard{0, header};
  Status written;
  if (offset && store.supports_partial_write()) {
    written = store.PutRangeIf(key, header.size() + *offset, data, guard);
  } else {
    // One whole-object write: the header, the frames before `offset` (read
    // back on a whole-object store), then `data`.
    Result<Bytes> existing =
        offset.value_or(0) > 0 ? store.Get(key) : Result<Bytes>(Bytes{});
    if (!existing.ok() && existing.code() != Errc::kNoEnt) {
      return existing.status();  // never rewrite frames we cannot see
    }
    Bytes object = existing.value_or(Bytes{});
    object.resize(header.size() + offset.value_or(0));  // drop stale tail
    std::copy(header.begin(), header.end(), object.begin());
    object.insert(object.end(), data.begin(), data.end());
    written = store.PutIf(key, object, guard);
  }
  if (written.code() != Errc::kStale) return written;
  // The guard missed: one header read tells a successor's fence from a
  // broken invariant (a missing or undecodable header reads as zero).
  auto raw = store.GetRange(key, 0, kFenceObjectBytes);
  if (!raw.ok() && raw.code() != Errc::kNoEnt) return raw.status();
  const FenceToken stored =
      JournalFence(raw.value_or(Bytes{})).value_or(FenceToken{});
  const bool superseded = stored > st.fence;
  (superseded ? metrics_.fence_rejections : metrics_.fence_violations).Add();
  return ErrStatus(Errc::kStale, std::string(superseded ? "journal write fenced"
                                                        : "fence violated") +
                                     ": stored " + stored.ToString() +
                                     ", granted " + st.fence.ToString());
}

Status JournalManager::AppendToJournalLocked(const Uuid& dir_ino,
                                             DirState& st, Transaction& txn) {
  // One store write per commit, guarded on this tenure's fence header: it
  // lands only if no successor has restamped the header, which a successor
  // does BEFORE it loads the journal — so an acked frame is always one the
  // successor's recovery replays, and a deposed leader's stale offset never
  // reaches the successor's journal (DESIGN.md §4.4).
  txn.fence = st.fence;
  const Bytes framed = EncodeTransaction(txn);
  metrics_.fence_checks.Add();
  ARKFS_RETURN_IF_ERROR(
      WriteJournalLocked(dir_ino, st, st.journal_bytes, framed));
  st.journal_bytes += framed.size();
  metrics_.transactions_committed.Add();
  metrics_.records_committed.Add(txn.records.size());
  metrics_.journal_bytes_written.Add(framed.size());
  st.committed.push_back(std::move(txn));
  return Status::Ok();
}

Status JournalManager::CommitRunningLocked(const Uuid& dir_ino, DirState& st) {
  Transaction txn;
  obs::ActiveTrace trace;
  std::uint64_t window_bytes = 0;
  TimePoint opened;
  {
    std::lock_guard lock(st.mu);
    if (st.running.empty()) return Status::Ok();
    opened = st.first_op;
    txn.records = std::move(st.running);
    st.running.clear();
    txn.seq = st.next_seq++;
    // Claim the batch's dirty-window share; it is drained only once the
    // append succeeds (the records stay "unflushed" while in flight).
    window_bytes = st.pending_window_bytes;
    st.pending_window_bytes = 0;
    trace = st.trace;
    st.trace = obs::ActiveTrace{};
  }
  const std::uint64_t n_records = txn.records.size();
  // Commit under the trace of the op that opened the transaction, whether
  // we run on the caller's thread (fsync) or the flusher.
  obs::TraceScope scope(trace.tracer, trace.ctx);
  obs::Span span("journal.commit");
  const TimePoint commit_start = Now();
  Status append = AppendToJournalLocked(dir_ino, st, txn);
  if (append.ok()) {
    op_latencies_.Record("commit", Now() - commit_start);
    window_.NoteDrained(n_records, window_bytes);
  }
  if (!append.ok()) {
    // Unwind: nothing was made durable, so the records must stay committable
    // — losing them here would silently drop already-applied metatable
    // mutations on the floor. Re-prepend them ahead of anything appended
    // meanwhile and return the seq (safe: seqs are only allocated under
    // append_mu, which we still hold, so no later seq exists yet).
    std::lock_guard lock(st.mu);
    txn.records.insert(txn.records.end(),
                       std::make_move_iterator(st.running.begin()),
                       std::make_move_iterator(st.running.end()));
    st.running = std::move(txn.records);
    st.first_op = opened;  // the unwound records are the oldest pending
    st.pending_window_bytes += window_bytes;  // still pending, still counted
    --st.next_seq;
    window_.NoteDue(DueAt(opened));  // the flusher redrives them
  }
  return append;
}

Status JournalManager::CommitRunning(const Uuid& dir_ino, DirState& st) {
  std::lock_guard append(st.append_mu);
  return CommitRunningLocked(dir_ino, st);
}

Status JournalManager::Checkpoint(const Uuid& dir_ino, DirState& st) {
  obs::Span span("journal.checkpoint");
  std::lock_guard cp(st.checkpoint_mu);
  std::vector<Transaction> batch;
  {
    std::lock_guard append(st.append_mu);
    if (st.committed.empty()) return Status::Ok();
    batch.assign(std::make_move_iterator(st.committed.begin()),
                 std::make_move_iterator(st.committed.end()));
    st.committed.clear();
  }

  // Apply to the authoritative objects WITHOUT blocking appends: anything
  // committed meanwhile lands after the prefix we are consuming, and a
  // crash at any point simply replays (idempotently) from the journal.
  // 2PC prepares are always co-batched with their decisions (CommitCrossDir
  // appends both phases under append_mu), so no peer consultation is needed.
  const TimePoint cp_start = Now();
  ApplyOutcome outcome;
  Status done = ApplyTransactions(
      *prt_, dir_ino, batch, [](const Uuid&, const Uuid&) { return false; },
      nullptr, config_.shard_policy, &outcome, st.sweep_orphans);
  if (!done.ok()) {
    // The failed apply may have landed some of a new shard generation before
    // dying; flag the orphan sweep so the retry cleans it up before trimming.
    st.sweep_orphans = true;
  } else {
    if (outcome.shard_count > 0) st.sweep_orphans = false;
    // Trim exactly the checkpointed prefix: the journal is rewritten with
    // the frames committed meanwhile, re-encoded from the queue (framing is
    // deterministic). Guarded like every journal write, so a deposed
    // leader's late trim cannot chop frames its successor has acked since.
    std::lock_guard append(st.append_mu);
    Bytes remainder;
    for (const Transaction& txn : st.committed) {
      const Bytes framed = EncodeTransaction(txn);
      remainder.insert(remainder.end(), framed.begin(), framed.end());
    }
    done = WriteJournalLocked(dir_ino, st, {}, remainder);
    if (done.ok()) st.journal_bytes = remainder.size();
  }
  if (!done.ok()) {
    // The batch goes back to the FRONT of the queue: its frames are still at
    // the head of the journal, so the retry re-applies them (idempotently)
    // and no acked transaction is orphaned until a full recovery.
    std::lock_guard append(st.append_mu);
    st.committed.insert(st.committed.begin(),
                        std::make_move_iterator(batch.begin()),
                        std::make_move_iterator(batch.end()));
    return done;
  }
  op_latencies_.Record("checkpoint", Now() - cp_start);
  metrics_.transactions_checkpointed.Add(batch.size());
  metrics_.checkpoints.Add();
  NoteApplyOutcome(outcome);
  if (config_.on_checkpoint) config_.on_checkpoint();
  return Status::Ok();
}

Status JournalManager::CommitDir(const Uuid& dir_ino) {
  DirStatePtr st = FindDir(dir_ino);
  if (!st) return Status::Ok();
  const bool pending = CountDrain(*st, /*lease_event=*/false);
  // Even with nothing pending, wait out a commit already in flight.
  ARKFS_RETURN_IF_ERROR(CommitRunning(dir_ino, *st));
  // An explicit commit asks for a checkpoint like a flusher round, under
  // the same per-interval limit. Sync-mode appends have already asked, and
  // leave nothing pending here.
  if (pending) ScheduleCheckpoint(*st);
  return Status::Ok();
}

Status JournalManager::FlushDir(const Uuid& dir_ino) {
  DirStatePtr st = FindDir(dir_ino);
  if (!st) return Status::Ok();
  CountDrain(*st, /*lease_event=*/false);
  ARKFS_RETURN_IF_ERROR(CommitRunning(dir_ino, *st));
  return Checkpoint(dir_ino, *st);
}

Status JournalManager::CommitAll() {
  return ForEachDir([this](const Uuid& ino) { return CommitDir(ino); });
}

std::vector<std::pair<Uuid, JournalManager::DirStatePtr>>
JournalManager::SnapshotDirs() {
  std::lock_guard lock(registry_mu_);
  return {dirs_.begin(), dirs_.end()};
}

Status JournalManager::ForEachDir(std::function<Status(const Uuid&)> op) {
  // Per-directory journals are independent, so the work fans out across
  // directories and overlaps their store round trips. RunAll runs every
  // task even after a failure (first-error-wins, not abort-on-first): one
  // bad directory must not leave the rest of the namespace unsynced. The
  // per-directory failure COUNT is only visible through the
  // journal.flush.errors counter, so bump it for every failing directory
  // here.
  std::vector<std::function<Status()>> tasks;
  for (const auto& [ino, st] : SnapshotDirs()) {
    tasks.push_back([this, &op, ino = ino] {
      Status s = op(ino);
      if (!s.ok()) metrics_.flush_errors.Add();
      return s;
    });
  }
  return prt_->async().RunAll(std::move(tasks));
}

Status JournalManager::CommitCrossDir(const Uuid& src_dir,
                                      std::vector<Record> src_records,
                                      const Uuid& dst_dir,
                                      std::vector<Record> dst_records) {
  if (src_dir == dst_dir) {
    return ErrStatus(Errc::kInval, "cross-dir commit needs two directories");
  }
  DirStatePtr src = FindDir(src_dir);
  DirStatePtr dst = FindDir(dst_dir);
  if (!src) return NotRegistered(src_dir);
  if (!dst) return NotRegistered(dst_dir);
  // Canonical lock order by inode id prevents deadlock with a concurrent
  // rename in the opposite direction. Holding both append locks across both
  // 2PC phases guarantees a checkpoint never sees an undecided prepare.
  DirState* first = src.get();
  DirState* second = dst.get();
  if (dst_dir < src_dir) std::swap(first, second);
  std::lock_guard io1(first->append_mu);
  std::lock_guard io2(second->append_mu);

  // Preserve intra-directory ordering: anything already buffered commits
  // ahead of the rename.
  ARKFS_RETURN_IF_ERROR(CommitRunningLocked(src_dir, *src));
  ARKFS_RETURN_IF_ERROR(CommitRunningLocked(dst_dir, *dst));

  const Uuid txid = NewUuid();

  // Phase 1: durable prepares in both journals.
  Transaction src_prep;
  {
    std::lock_guard lock(src->mu);
    src_prep.seq = src->next_seq++;
  }
  src_prep.records.push_back(Record::Prepare(txid, dst_dir));
  for (auto& r : src_records) src_prep.records.push_back(std::move(r));
  ARKFS_RETURN_IF_ERROR(AppendToJournalLocked(src_dir, *src, src_prep));

  Transaction dst_prep;
  {
    std::lock_guard lock(dst->mu);
    dst_prep.seq = dst->next_seq++;
  }
  dst_prep.records.push_back(Record::Prepare(txid, src_dir));
  for (auto& r : dst_records) dst_prep.records.push_back(std::move(r));
  ARKFS_RETURN_IF_ERROR(AppendToJournalLocked(dst_dir, *dst, dst_prep));

  // Phase 2: commit decisions.
  for (DirStatePtr* side : {&src, &dst}) {
    Transaction decision;
    {
      std::lock_guard lock((*side)->mu);
      decision.seq = (*side)->next_seq++;
    }
    decision.records.push_back(Record::Decision(txid, /*commit=*/true));
    const Uuid& ino = (side == &src) ? src_dir : dst_dir;
    ARKFS_RETURN_IF_ERROR(AppendToJournalLocked(ino, **side, decision));
  }
  // Cross-dir renames mutate both directories without passing through
  // Append(): advance both watermarks before the ack.
  src->watermark.fetch_add(1, std::memory_order_relaxed);
  dst->watermark.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Result<RecoveryReport> JournalManager::RecoverDir(const Uuid& dir_ino) {
  obs::Span span("journal.recover");
  RecoveryReport report;
  auto raw = prt_->LoadJournal(dir_ino);
  if (!raw.ok()) {
    if (raw.code() == Errc::kNoEnt) return report;  // nothing to recover
    return raw.status();
  }
  ARKFS_RETURN_IF_ERROR(JournalFence(*raw).status());
  const std::vector<Transaction> txns = ParseJournal(*raw);
  if (txns.empty()) return report;

  auto peer_decision = [this](const Uuid& txid, const Uuid& peer) -> bool {
    auto peer_raw = prt_->LoadJournal(peer);
    if (!peer_raw.ok()) return false;  // presumed abort
    for (const auto& txn : ParseJournal(*peer_raw)) {
      for (const auto& rec : txn.records) {
        if (rec.type == RecordType::kDecision && rec.txid == txid) {
          return rec.commit;
        }
      }
    }
    return false;
  };

  ApplyOutcome outcome;
  ARKFS_RETURN_IF_ERROR(ApplyTransactions(*prt_, dir_ino, txns, peer_decision,
                                          &report, config_.shard_policy,
                                          &outcome, /*sweep_orphans=*/true));
  // Reset to the header we read, guarded on it: if the fence moved since
  // the load, the journal is someone else's now and stays as it is.
  const ByteSpan header = ByteSpan(*raw).first(kFenceObjectBytes);
  ARKFS_RETURN_IF_ERROR(
      prt_->store().PutIf(JournalKey(dir_ino), header, {0, header}));
  NoteApplyOutcome(outcome);

  // Reset any stale in-memory bookkeeping for this directory.
  if (DirStatePtr st = FindDir(dir_ino)) {
    std::scoped_lock locks(st->checkpoint_mu, st->append_mu, st->mu);
    DropTenureLocked(*st, /*count_as_dropped=*/false);
  }
  return report;
}

bool JournalManager::HasSurvivingJournal(const Uuid& dir_ino) {
  auto raw = prt_->LoadJournal(dir_ino);
  return raw.ok() && !ParseJournal(*raw).empty();
}

Status JournalManager::ApplyTransactions(
    Prt& prt, const Uuid& dir_ino, const std::vector<Transaction>& txns,
    const std::function<bool(const Uuid& txid, const Uuid& peer)>&
        peer_decision,
    RecoveryReport* report, const DentryShardPolicy& policy,
    ApplyOutcome* outcome, bool sweep_orphans) {
  // Decisions may live in later transactions than their prepares.
  std::map<Uuid, bool> decisions;
  for (const auto& txn : txns) {
    for (const auto& rec : txn.records) {
      if (rec.type == RecordType::kDecision) decisions[rec.txid] = rec.commit;
    }
  }

  // Fold every record in replay order into the FINAL per-key action, then
  // execute the whole group as one batched put and one batched delete: a
  // checkpoint of N transactions costs ~one overlapped store round trip
  // instead of one blocking op per record. Replay is idempotent, so the
  // all-attempt/first-error batch semantics are safe on partial failure.
  std::map<Uuid, std::optional<Inode>> inode_ops;  // value = upsert, nullopt = remove
  // Final per-name dentry action (value = upsert, nullopt = remove). Folding
  // to actions first means we never load a shard the batch didn't touch.
  std::map<std::string, std::optional<Dentry>> dentry_ops;
  // Data chunks of removed files. Kept even if the ino is later re-upserted
  // (the serial path deleted them at the remove record too).
  std::map<Uuid, std::pair<std::uint64_t, std::uint64_t>> data_removes;
  std::set<Uuid> dir_removes;  // dentry objects + journal of removed child dirs

  for (const auto& txn : txns) {
    if (const Record* prep = txn.FindPrepare()) {
      bool commit = false;
      auto it = decisions.find(prep->txid);
      if (it != decisions.end()) {
        commit = it->second;
      } else if (peer_decision) {
        commit = peer_decision(prep->txid, prep->peer_dir);
      }
      if (!commit) {
        if (report) ++report->transactions_aborted;
        continue;
      }
    }
    if (report) ++report->transactions_replayed;

    for (const auto& rec : txn.records) {
      switch (rec.type) {
        case RecordType::kInodeUpsert:
          inode_ops[rec.inode.ino] = rec.inode;
          break;
        case RecordType::kInodeRemove:
          inode_ops[rec.target_ino] = std::nullopt;
          if (rec.chunk_size > 0 && rec.file_size > 0) {
            data_removes[rec.target_ino] = {rec.chunk_size, rec.file_size};
          }
          break;
        case RecordType::kDentryAdd:
          dentry_ops[rec.dentry.name] = rec.dentry;
          break;
        case RecordType::kDentryRemove:
          dentry_ops[rec.name] = std::nullopt;
          break;
        case RecordType::kDirRemove:
          dir_removes.insert(rec.target_ino);
          break;
        case RecordType::kPrepare:
        case RecordType::kDecision:
          break;  // control records
      }
      if (report && rec.type != RecordType::kPrepare &&
          rec.type != RecordType::kDecision) {
        ++report->records_applied;
      }
    }
  }

  ApplyOutcome out;
  std::vector<Bytes> put_bufs;  // owns encodings until the batches join
  std::vector<BatchPut> puts;
  // Ordered manifest Put, issued only after the main MultiPut fully lands.
  // For a first checkpoint or a reshard it is the commit point that atomically switches
  // readers to the new generation (the old layout is deleted only after);
  // for steady-state checkpoints it carries the entry-count update. Either
  // way the manifest object only ever transitions valid -> valid, and a
  // crash before it leaves the previous layout intact with the journal
  // unconsumed, so replay converges.
  std::optional<std::pair<std::string, Bytes>> layout_commit;
  std::vector<std::string> deletes;

  for (const auto& [ino, op] : inode_ops) {
    if (op) {
      put_bufs.push_back(op->Encode());
      BatchPut p;
      p.key = InodeKey(ino);
      p.data = put_bufs.back();
      puts.push_back(std::move(p));
    } else {
      deletes.push_back(InodeKey(ino));
    }
  }

  if (!dentry_ops.empty()) {
    auto add_shard_put = [&](std::uint32_t shard_count, std::uint32_t shard,
                             std::uint32_t slot, std::uint64_t epoch,
                             const std::vector<Dentry>& entries) {
      put_bufs.push_back(EncodeDentryShardObject(epoch, entries));
      BatchPut p;
      p.key = DentryShardKey(dir_ino, shard_count, shard, slot);
      p.data = put_bufs.back();
      puts.push_back(std::move(p));
      ++out.shards_written;
    };
    auto apply_ops = [&](std::map<std::string, Dentry>& entries) {
      for (const auto& [name, op] : dentry_ops) {
        if (op) {
          entries[name] = *op;
        } else {
          entries.erase(name);
        }
      }
    };
    auto partition = [&](std::map<std::string, Dentry>& entries,
                         std::uint32_t shard_count) {
      std::vector<std::vector<Dentry>> shards(shard_count);
      for (auto& [name, d] : entries) {
        shards[DentryShardOf(name, shard_count)].push_back(std::move(d));
      }
      return shards;
    };

    auto manifest = prt.LoadDentryManifest(dir_ino);
    bool adopted = false;
    std::uint64_t adopted_epoch_max = 0;
    if (!manifest.ok() && manifest.code() != Errc::kNoEnt) {
      if (!report) return manifest.status();
      // Undecodable manifest during recovery: the layout-flip Put tore. The
      // journal is only ever trimmed AFTER a successful flip, so this journal
      // provably covers everything since the last durable layout — all we
      // need as a base is some fully materialized generation. Candidates are
      // verified shard-by-shard before adoption (a failed reshard can leave
      // a partially landed orphan generation, possibly LARGER than the real
      // one): take the biggest generation where every shard index has at
      // least one decodable slot object, preferring the highest epoch per
      // shard. Stale-but-complete orphans cannot occur here — they are swept
      // by the next successful checkpoint before its journal trim, so any
      // generation still present is no older than this journal's coverage.
      ARKFS_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                             prt.store().List(DentryObjectPrefix(dir_ino)));
      // gen -> per-shard slot presence (2 bits).
      std::map<std::uint32_t, std::vector<std::uint8_t>> gens;
      for (const auto& k : keys) {
        auto parsed = ParseKey(k);
        if (!parsed.ok() || parsed->kind != KeyKind::kDentryShard) continue;
        auto& present = gens[parsed->dentry_shard_count];
        present.resize(parsed->dentry_shard_count, 0);
        present[parsed->dentry_shard] |=
            static_cast<std::uint8_t>(1u << parsed->dentry_slot);
      }
      for (auto it = gens.rbegin(); it != gens.rend() && !adopted; ++it) {
        const std::uint32_t g = it->first;
        const auto& present = it->second;
        std::vector<BatchGet> gets;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> which;
        for (std::uint32_t s = 0; s < g; ++s) {
          for (std::uint32_t slot = 0; slot < 2; ++slot) {
            if (present[s] & (1u << slot)) {
              BatchGet bg;
              bg.key = DentryShardKey(dir_ino, g, s, slot);
              gets.push_back(std::move(bg));
              which.emplace_back(s, slot);
            }
          }
        }
        auto mg = prt.async().MultiGet(std::move(gets));
        DentryManifest candidate;
        candidate.shard_count = g;
        std::vector<std::uint64_t> best_epoch(g, 0);
        std::vector<bool> has_slot(g, false);
        std::uint64_t epoch_max = 0;
        for (std::size_t i = 0; i < which.size(); ++i) {
          if (!mg.results[i].ok()) continue;
          auto decoded = DecodeDentryShardObject(*mg.results[i]);
          if (!decoded.ok()) continue;  // torn artifact at this slot
          const auto [s, slot] = which[i];
          if (!has_slot[s] || decoded->epoch > best_epoch[s]) {
            has_slot[s] = true;
            best_epoch[s] = decoded->epoch;
            candidate.SetSlot(s, static_cast<std::uint8_t>(slot));
          }
          epoch_max = std::max(epoch_max, decoded->epoch);
        }
        bool complete = true;
        for (std::uint32_t s = 0; s < g; ++s) complete &= has_slot[s];
        if (!complete) continue;  // torn orphan generation: skip it
        manifest = candidate;  // entry_count recomputed by the rewrite below
        adopted = true;
        adopted_epoch_max = epoch_max;
      }
      if (!adopted) {
        // No complete generation at all: the tear was the directory's first
        // checkpoint, whose shards never fully landed either — start from
        // the empty base, which rewrites every shard of its generation.
        manifest = ErrStatus(Errc::kNoEnt, "torn manifest, no shards");
      }
    }
    if (!manifest.ok()) {
      // Never checkpointed: the journal holds every entry, so the first
      // checkpoint lays the sharded layout out from the empty base.
      std::map<std::string, Dentry> entries;
      apply_ops(entries);
      const std::uint32_t b = ShardCountFor(policy, entries.size());
      const std::uint64_t total = entries.size();
      auto shards = partition(entries, b);
      for (std::uint32_t s = 0; s < b; ++s) {
        // Every shard of the new generation is written, empty ones included:
        // a replayed first checkpoint must overwrite any torn artifact a
        // crashed earlier attempt left at these keys.
        add_shard_put(b, s, /*slot=*/0, /*epoch=*/1, shards[s]);
      }
      layout_commit.emplace(DentryManifestKey(dir_ino),
                            EncodeDentryManifest({b, total}));
      out.shard_count = b;
    } else {
      const std::uint32_t b = manifest->shard_count;
      // Grow decision from the size hint plus an upper bound on net adds;
      // overestimating only grows a touch early, and counts are corrected
      // whenever all shards are in hand.
      std::uint64_t adds = 0;
      for (const auto& [_, op] : dentry_ops) adds += op ? 1 : 0;
      std::uint32_t target = ShardCountFor(policy, manifest->entry_count + adds);
      if (target > b || adopted) {
        // Full rewrite: reshard into a bigger generation, or (after a torn-
        // manifest adoption) re-materialize the adopted generation with a
        // freshly recomputed entry count and a valid manifest.
        std::vector<std::uint32_t> all_idx(b);
        for (std::uint32_t s = 0; s < b; ++s) all_idx[s] = s;
        ARKFS_ASSIGN_OR_RETURN(auto loaded,
                               prt.LoadDentryShards(dir_ino, *manifest, all_idx));
        out.shards_loaded += b;
        std::map<std::string, Dentry> entries;
        for (auto& part : loaded) {
          for (auto& d : part.entries) entries[d.name] = std::move(d);
        }
        apply_ops(entries);
        const std::uint64_t total = entries.size();
        // An adopted manifest carries no usable size hint; re-derive the
        // target from the true count now that everything is in hand.
        if (adopted) target = std::max(b, ShardCountFor(policy, total));
        if (target > b) {
          // New generation at slot 0, epoch 1; the old generation's objects
          // (both slots) are dropped only after the flip.
          auto shards = partition(entries, target);
          for (std::uint32_t s = 0; s < target; ++s) {
            add_shard_put(target, s, /*slot=*/0, /*epoch=*/1, shards[s]);
          }
          layout_commit.emplace(DentryManifestKey(dir_ino),
                                EncodeDentryManifest({target, total}));
          for (std::uint32_t s = 0; s < b; ++s) {
            deletes.push_back(DentryShardKey(dir_ino, b, s, 0));
            deletes.push_back(DentryShardKey(dir_ino, b, s, 1));
          }
          out.resharded = true;
          out.shard_count = target;
        } else {
          // Same generation: write every shard's INACTIVE slot and flip all
          // the slot bits, exactly like a whole-directory steady-state
          // checkpoint. Epochs restart above everything the adoption saw so
          // a future adoption prefers these objects.
          DentryManifest updated = *manifest;
          updated.entry_count = total;
          auto shards = partition(entries, b);
          for (std::uint32_t s = 0; s < b; ++s) {
            const std::uint8_t slot = 1 - manifest->SlotOf(s);
            add_shard_put(b, s, slot, adopted_epoch_max + 1, shards[s]);
            updated.SetSlot(s, slot);
          }
          layout_commit.emplace(DentryManifestKey(dir_ino),
                                EncodeDentryManifest(updated));
          out.shard_count = b;
        }
      } else {
        // Steady state: load and rewrite ONLY the shards this batch dirtied,
        // each into its INACTIVE slot (copy-on-write double buffer). The
        // manifest flip after the MultiPut is the commit point; until it
        // lands, readers and recovery still see the previous slots, so a
        // torn shard put can never damage referenced state — which is what
        // lets every load above decode strictly and fail loudly.
        std::set<std::uint32_t> dirty;
        for (const auto& [name, _] : dentry_ops) {
          dirty.insert(DentryShardOf(name, b));
        }
        const std::vector<std::uint32_t> idx(dirty.begin(), dirty.end());
        ARKFS_ASSIGN_OR_RETURN(auto loaded,
                               prt.LoadDentryShards(dir_ino, *manifest, idx));
        out.shards_loaded += idx.size();
        DentryManifest updated = *manifest;
        std::int64_t delta = 0;
        for (std::size_t i = 0; i < idx.size(); ++i) {
          std::map<std::string, Dentry> entries;
          for (auto& d : loaded[i].entries) entries[d.name] = std::move(d);
          for (const auto& [name, op] : dentry_ops) {
            if (DentryShardOf(name, b) != idx[i]) continue;
            const bool existed = entries.count(name) != 0;
            if (op) {
              entries[name] = *op;
              delta += existed ? 0 : 1;
            } else {
              entries.erase(name);
              delta -= existed ? 1 : 0;
            }
          }
          std::vector<Dentry> shard;
          shard.reserve(entries.size());
          for (auto& [_, d] : entries) shard.push_back(std::move(d));
          // A now-empty shard is still written (as an empty object) so the
          // superseded slot can't resurrect stale entries after the flip.
          const std::uint8_t slot = 1 - manifest->SlotOf(idx[i]);
          add_shard_put(b, idx[i], slot, loaded[i].epoch + 1, shard);
          updated.SetSlot(idx[i], slot);
        }
        updated.entry_count =
            delta < 0 && updated.entry_count < static_cast<std::uint64_t>(-delta)
                ? 0
                : updated.entry_count + delta;
        // The slot-bit flip rides the ordered commit-point Put (after the
        // shard MultiPut), never the MultiPut itself: the manifest object
        // only ever transitions valid -> valid, and nothing references the
        // freshly written slots until it lands.
        layout_commit.emplace(DentryManifestKey(dir_ino),
                              EncodeDentryManifest(updated));
        out.shard_count = b;
      }
    }

    // Orphan-generation sweep: recovery always sweeps; checkpointing sweeps
    // after a failed apply (which may have landed part — or, worse, all — of
    // a generation that never got its manifest flip). A complete-but-stale
    // orphan is the one artifact torn-manifest adoption cannot tell from the
    // real layout, so it must never survive past the journal trim that
    // settles the entries superseding it; the deletes below are ordered
    // after this apply's own manifest flip and before any trim.
    if ((sweep_orphans || report) && out.shard_count > 0) {
      ARKFS_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                             prt.store().List(DentryObjectPrefix(dir_ino)));
      for (auto& k : keys) {
        auto parsed = ParseKey(k);
        if (parsed.ok() && parsed->kind == KeyKind::kDentryShard &&
            parsed->dentry_shard_count != out.shard_count) {
          deletes.push_back(std::move(k));
        }
      }
      out.swept = true;
    }
  }

  for (const auto& [ino, geom] : data_removes) {
    const auto [rec_chunk_size, rec_file_size] = geom;
    const std::uint64_t chunks = (rec_file_size - 1) / rec_chunk_size + 1;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      deletes.push_back(DataKey(ino, c));
    }
  }
  for (const auto& ino : dir_removes) {
    // The removed child's manifest and every shard generation (by prefix),
    // and its journal.
    ARKFS_ASSIGN_OR_RETURN(std::vector<std::string> listed,
                           prt.store().List(DentryObjectPrefix(ino)));
    for (auto& k : listed) deletes.push_back(std::move(k));
    deletes.push_back(JournalKey(ino));
  }

  Status first = Status::Ok();
  if (!puts.empty()) {
    auto pr = prt.async().MultiPut(std::move(puts));
    first = pr.status;
  }
  if (layout_commit && first.ok()) {
    first = prt.store().Put(layout_commit->first, layout_commit->second);
  }
  // Deletes only run after every put landed: on a torn reshard the
  // old layout MUST survive (the manifest still points at it), and for plain
  // failures the journal is retained for replay anyway.
  if (!deletes.empty() && first.ok()) {
    first = prt.async().MultiDelete(std::move(deletes)).FirstErrorIgnoringNoEnt();
  }
  if (outcome) *outcome = out;
  return first;
}

void JournalManager::NoteApplyOutcome(const ApplyOutcome& outcome) {
  metrics_.dentry_shards_loaded.Add(outcome.shards_loaded);
  metrics_.dentry_shards_written.Add(outcome.shards_written);
  if (outcome.resharded) metrics_.dentry_reshards.Add();
}

void JournalManager::CheckpointThreadMain(int index) {
  while (auto ino = checkpoint_queues_[index]->Pop()) {
    DirStatePtr st = FindDir(*ino);
    if (!st) continue;
    Status s = Checkpoint(*ino, *st);
    if (!s.ok()) {
      ARKFS_WLOG << "checkpoint failed for " << ino->ToString() << ": "
                 << s.ToString();
    }
  }
}

void JournalManager::ScheduleCheckpoint(DirState& st) {
  std::lock_guard lock(st.mu);  // st.mu -> GroupWindow::mu_, as in Append
  st.checkpoint_due = std::min(
      st.checkpoint_due,
      std::max(Now(), st.last_checkpoint_enqueue + config_.commit_interval));
  window_.NoteDue(st.checkpoint_due);
}

TimePoint JournalManager::DueAt(TimePoint first_op) const {
  if (config_.durability == DurabilityMode::kGroup) return first_op;
  const Nanos step = std::max<Nanos>(config_.commit_interval / 4, Millis(1));
  const Nanos due = (first_op + config_.commit_interval).time_since_epoch();
  return TimePoint{(due + step - Nanos{1}) / step * step};
}

void JournalManager::FlusherMain() {
  // The adaptive batching loop: commit EVERY due directory in one async
  // fan-out, then park until the next one falls due or an appender (or a
  // commit unwind) announces an earlier due time. In group mode everything
  // pending is due, so under light load each append gets its own
  // near-immediate flush, while records arriving during a round's store
  // round trip coalesce into the next round — no timer in the ack path.
  TimePoint next_due = TimePoint::max();
  while (window_.AwaitDirty(next_due)) {
    next_due = TimePoint::max();
    const TimePoint now = Now();
    std::vector<std::function<Status()>> round;
    for (auto& [ino, st] : SnapshotDirs()) {
      bool checkpoint = false;
      bool commit = false;
      {
        std::lock_guard lock(st->mu);
        if (st->checkpoint_due <= now) {  // the per-interval limit allows it
          st->checkpoint_due = TimePoint::max();
          st->last_checkpoint_enqueue = now;
          checkpoint = true;
        }
        next_due = std::min(next_due, st->checkpoint_due);
        const TimePoint at =
            st->running.empty() ? TimePoint::max() : DueAt(st->first_op);
        commit = at <= now;
        if (!commit) next_due = std::min(next_due, at);
      }
      if (checkpoint) checkpoint_queues_[CheckpointThreadFor(ino)]->Push(ino);
      if (!commit) continue;
      round.push_back([this, ino = ino, st = st] {
        Status s = CommitRunning(ino, *st);
        // Group rounds can be sub-millisecond apart, and checkpointing each
        // one would rewrite dirty shards continuously, so every commit goes
        // through the per-interval limit (a lingered one comes at most once
        // per interval anyway). A failed round committed nothing and asks
        // for no checkpoint.
        if (s.ok()) {
          ScheduleCheckpoint(*st);
        } else {
          metrics_.flush_errors.Add();
        }
        return s;
      });
    }
    // Nothing due: a drain on another thread beat us to it, or we woke for
    // an announcement that is not due yet.
    if (round.empty()) continue;
    // Counted up front: a commit drains the window mid-round, and whoever
    // observes that drain must also observe the round that made it.
    metrics_.group_flushes.Add();
    metrics_.group_flushed_txns.Add(round.size());
    const TimePoint t0 = Now();
    const Status first = prt_->async().RunAll(std::move(round));
    op_latencies_.Record("group_flush", Now() - t0);
    // Store trouble: the failed directories' records were unwound onto
    // their running queues, still due, so the next AwaitDirty returns at
    // once — back off instead of hot-looping.
    if (!first.ok()) SleepFor(Millis(2));
  }
}

}  // namespace arkfs::journal
