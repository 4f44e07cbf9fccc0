// Client infrastructure: construction, lease/leadership flows, RPC serving.
// Operation bodies live in client_ops.cc.
#include "core/client.h"

#include "common/log.h"

namespace arkfs {

Status Client::Format(const ObjectStorePtr& store, bool force) {
  Prt prt(store);
  if (!force) {
    auto existing = prt.LoadInode(kRootIno);
    if (existing.ok()) return ErrStatus(Errc::kExist, "file system exists");
  }
  Inode root = MakeInode(kRootIno, FileType::kDirectory, 0755, 0, 0, Uuid{});
  ARKFS_RETURN_IF_ERROR(prt.StoreInode(root));
  ARKFS_RETURN_IF_ERROR(prt.StoreDentryManifest(kRootIno, DentryManifest{}));
  // The stamp goes last: an interrupted format leaves an image that does not
  // mount rather than one that mounts half-made.
  return store->Put(kFormatKey, EncodeFormatStamp(kFormatVersion));
}

Status Client::CheckFormat(ObjectStore& store) {
  auto raw = store.Get(kFormatKey);
  if (!raw.ok() && raw.code() != Errc::kNoEnt) return raw.status();
  auto version = raw.ok() ? DecodeFormatStamp(*raw) : raw.status();
  std::string why;
  if (!raw.ok()) {
    why = "image has no format stamp (sys.format)";
  } else if (!version.ok()) {
    why = "image format stamp unreadable";
  } else if (*version != kFormatVersion) {
    why = "image format v" + std::to_string(*version) + " unsupported";
  } else {
    return Status::Ok();
  }
  return ErrStatus(Errc::kInval, why + "; reformat");
}

Client::Client(ObjectStorePtr store, rpc::FabricPtr fabric,
               ClientConfig config)
    : config_([&] {
        ClientConfig c = std::move(config);
        // One registry per client: sub-layer configs that left their
        // registry unset inherit the client's.
        if (!c.journal.metrics) c.journal.metrics = c.metrics;
        if (!c.async.metrics) c.async.metrics = c.metrics;
        return c;
      }()),
      store_(std::move(store)),
      fabric_(std::move(fabric)) {
  local_meta_ops_.Attach(config_.metrics, "client.local_meta_ops");
  forwarded_ops_.Attach(config_.metrics, "client.forwarded_ops");
  served_remote_ops_.Attach(config_.metrics, "client.served_remote_ops");
  lease_acquires_.Attach(config_.metrics, "client.lease_acquires");
  lease_redirects_.Attach(config_.metrics, "client.lease_redirects");
  perm_cache_hits_.Attach(config_.metrics, "client.perm_cache_hits");
  recoveries_.Attach(config_.metrics, "client.recoveries");
  stat_local_.Attach(config_.metrics, "client.stat.local");
  stat_forwarded_.Attach(config_.metrics, "client.stat.forwarded");
  stat_delegated_.Attach(config_.metrics, "client.stat.delegated");
  deleg_hits_.Attach(config_.metrics, "client.deleg.hits");
  deleg_misses_.Attach(config_.metrics, "client.deleg.misses");
  deleg_refetches_.Attach(config_.metrics, "client.deleg.refetches");
  deleg_invalidations_.Attach(config_.metrics, "client.deleg.invalidations");
  leader_hint_stale_.Attach(config_.metrics, "client.leader_hint.stale");
  prt_ = std::make_shared<Prt>(store_, config_.chunk_size, config_.async);
  lease_ = std::make_unique<lease::LeaseClient>(fabric_, config_.address,
                                                config_.lease_options);
  journal_ = std::make_shared<journal::JournalManager>(prt_, config_.journal);
  cache_ = std::make_shared<ObjectCache>(prt_, config_.cache);
}

Result<std::shared_ptr<Client>> Client::Create(ObjectStorePtr store,
                                               rpc::FabricPtr fabric,
                                               ClientConfig config) {
  if (config.address.empty()) {
    return ErrStatus(Errc::kInval, "client needs a fabric address");
  }
  std::shared_ptr<Client> client(
      new Client(std::move(store), std::move(fabric), std::move(config)));
  ARKFS_RETURN_IF_ERROR(client->Start());
  return client;
}

Status Client::Start() {
  endpoint_ = std::make_shared<rpc::Endpoint>();
  endpoint_->RegisterMethod(
      wire::kMethodDirOp,
      [this](ByteSpan payload) { return HandleDirOp(payload); });
  endpoint_->RegisterMethod(
      wire::kMethodFlushFile,
      [this](ByteSpan payload) { return HandleFlushFile(payload); });
  return fabric_->Bind(config_.address, endpoint_);
}

Client::~Client() {
  if (!shut_down_.load()) {
    Status st = Shutdown();
    if (!st.ok()) {
      ARKFS_WLOG << "client shutdown in destructor failed: " << st.ToString();
    }
  }
}

Status Client::Shutdown() {
  if (shut_down_.exchange(true)) return Status::Ok();
  Status first_error;
  // Flush data before metadata so sizes recorded in inodes are backed by
  // chunks in the store.
  Status st = cache_->FlushAll();
  if (!st.ok() && first_error.ok()) first_error = st;

  std::vector<Uuid> held;
  {
    std::lock_guard lock(dirs_mu_);
    for (auto& [ino, handle] : dirs_) {
      if (handle->leader) held.push_back(ino);
    }
  }
  for (const Uuid& ino : held) {
    st = RelinquishDir(ino);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  fabric_->Unbind(config_.address);
  return first_error;
}

void Client::CrashHard() {
  // Disappear from the network; keep all in-memory state unflushed. The
  // journal objects in the store retain exactly what was committed. Halting
  // the journal's background threads is part of the crash model: a dead
  // process cannot keep flushing its dirty window, so whatever was
  // sequenced-but-unflushed at this instant is the realized loss window.
  shut_down_.store(true);
  fabric_->Unbind(config_.address);
  journal_->Halt();
}

// ---------------------------------------------------------------------------
// Directory access & leases
// ---------------------------------------------------------------------------

Client::DirHandlePtr Client::HandleFor(const Uuid& dir_ino) {
  std::lock_guard lock(dirs_mu_);
  auto& slot = dirs_[dir_ino];
  if (!slot) {
    slot = std::make_shared<DirHandle>();
    slot->ino = dir_ino;
  }
  return slot;
}

Result<Client::DirRef> Client::EnsureDirAccess(const Uuid& dir_ino) {
  DirHandlePtr handle = HandleFor(dir_ino);
  {
    std::shared_lock lock(handle->mu);
    // Proactive renewal: re-acquire when less than a quarter of the lease
    // term remains, so a busy leader never stalls on expiry mid-burst.
    const TimePoint now = Now();
    if (handle->leader && !handle->lame_duck && now < handle->lease_until &&
        handle->lease_until - now > handle->lease_duration / 4) {
      return DirRef{handle, {}};
    }
  }
  // Not (or no longer) leader: try to acquire the lease. A leader renewal
  // reports the directory's journal watermark (zero when we never led this
  // tenure) so the manager can stamp delegations; a non-leader asks for a
  // read delegation to ride along with the redirect.
  lease::LeaseClient::AcquireOptions opts;
  opts.want_delegation = config_.read_delegations;
  opts.watermark = journal_->Watermark(dir_ino);
  auto answer = lease_->Acquire(dir_ino, opts);
  if (auto redirect = lease::RedirectOf(answer)) {
    lease_redirects_.Add();
    AdoptRedirect(dir_ino, *redirect);
    return DirRef{nullptr, std::move(redirect->leader)};
  }
  if (auto grant = lease::GrantOf(answer)) {
    lease_acquires_.Add();
    // We lead now: a hint or delegation naming a remote leader is void.
    ForgetRemoteDir(dir_ino);
    std::lock_guard grant_lock(handle->grant_mu);
    // Leadership changes hands (the manager names a previous leader only on
    // a non-fresh grant): ask the predecessor to flush its pending journal
    // state; an unreachable predecessor means a crash. This goes out BEFORE
    // handle->mu is taken — the predecessor's ServeDirOp takes its own
    // handle mutex, so holding ours across the call would make two clients
    // that trade a directory take the two mutexes in opposite orders.
    bool predecessor_crashed = false;
    if (!grant->prev_leader.empty() &&
        grant->prev_leader != config_.address) {
      wire::DirOpRequest flush_req;
      flush_req.op = wire::DirOp::kFlushDir;
      flush_req.dir_ino = dir_ino;
      flush_req.client = config_.address;
      predecessor_crashed =
          !fabric_->Call(grant->prev_leader, wire::kMethodDirOp,
                         flush_req.Encode())
               .ok();
    }
    std::unique_lock lock(handle->mu);
    handle->lease_duration =
        std::chrono::duration_cast<Nanos>(grant->until - Now());
    if (handle->leader && Now() < handle->lease_until) {
      // In-term renewal (or a concurrent EnsureDirAccess already won): the
      // metatable stays authoritative, but the grant's term must land —
      // otherwise every later op in this quarter pays another lease RPC,
      // and forwarded ops see an expired lease the manager still honors.
      ARKFS_RETURN_IF_ERROR(ExtendTenure(*handle, *grant));
    } else {
      ARKFS_RETURN_IF_ERROR(
          BecomeLeader(handle, *grant, predecessor_crashed));
    }
    handle->lame_duck = false;
    return DirRef{handle, {}};
  }
  if (answer.code() == Errc::kTimedOut || answer.code() == Errc::kBusy) {
    // Renewal failed outright (manager unreachable/overloaded) but our
    // current lease has not expired: degrade to lame duck instead of
    // failing the whole op. Reads stay served from the metatable; ServeDirOp
    // fences mutations with kStale until renewal succeeds or the lease runs
    // out.
    std::unique_lock lock(handle->mu);
    if (handle->leader && Now() < handle->lease_until) {
      handle->lame_duck = true;
      // Entering lame duck is the deposition warning: drain every
      // sequenced-but-unflushed frame NOW, while our fence still holds, so
      // a successor's journal load sees everything we acked. Past this
      // point the fence can advance at any time and a late flush would be
      // rejected (never silently lost — just not ours to write anymore).
      journal_->NoteLeaseDrain();
      (void)journal_->CommitDir(dir_ino);
      return DirRef{handle, {}};
    }
  }
  return answer.status();
}

Status Client::BecomeLeader(const DirHandlePtr& handle,
                            const lease::LeaseClient::Grant& grant,
                            bool predecessor_crashed) {
  // handle->mu held exclusively by the caller.
  if (grant.fresh && handle->metatable) {
    // Re-acquired before anyone else led the directory: the in-memory
    // metatable is still authoritative (paper's extension optimization).
    return ExtendTenure(*handle, grant);
  }
  handle->lease_until = grant.until;

  // Advance the persisted fence BEFORE reading the journal: once the
  // journal's fence header holds our token, every journal write a deposed
  // predecessor attempts misses its guard and is never acked, so the journal
  // state we load below is complete w.r.t. acked operations (DESIGN.md §4.4). kStale here means
  // WE are the deposed one — a newer epoch already fenced this directory.
  ARKFS_RETURN_IF_ERROR(journal_->FenceDir(handle->ino, grant.token));

  // Everything a new leader needs from the store goes out as one overlapped
  // batch: the dir inode, the dentry shards (seeded by the shard count seen
  // at the last leadership), and the surviving-journal probe cost ~one store
  // round trip instead of one per object.
  Prt::DirObjects dir = prt_->LoadDirObjects(handle->ino, handle->shard_hint);
  if (dir.shard_count != 0) handle->shard_hint = dir.shard_count;
  const bool surviving_journal =
      dir.journal.ok() && !journal::ParseJournal(*dir.journal).empty();

  if (surviving_journal || predecessor_crashed) {
    // Valid transactions remain in the journal: the predecessor crashed
    // before checkpointing. Recover under the manager's fence.
    ARKFS_RETURN_IF_ERROR(lease_->BeginRecovery(handle->ino));
    auto report = journal_->RecoverDir(handle->ino);
    if (!report.ok()) {
      (void)lease_->EndRecovery(handle->ino);
      return report.status();
    }
    ARKFS_RETURN_IF_ERROR(lease_->EndRecovery(handle->ino));
    recoveries_.Add();
    ARKFS_ILOG << config_.address << " recovered dir "
               << handle->ino.ToString() << ": "
               << report->transactions_replayed << " replayed, "
               << report->transactions_aborted << " aborted";
    // Recovery rewrote the authoritative objects — the prefetched copies
    // are stale, so rebuild from a fresh batch.
    ARKFS_RETURN_IF_ERROR(BuildMetatable(*handle));
  } else {
    // Any in-memory journal bookkeeping left from a previous (deposed or
    // expired) tenure of ours is stale: the durable journal was replayed by
    // whoever led in between. RecoverDir resets it on the branch above.
    journal_->ResetDir(handle->ino);
    ARKFS_RETURN_IF_ERROR(BuildMetatable(*handle, &dir));
  }
  journal_->RegisterDir(handle->ino, grant.token);
  handle->fence = grant.token;
  handle->leader = true;
  handle->file_leases.clear();
  return Status::Ok();
}

Status Client::ExtendTenure(DirHandle& handle,
                            const lease::LeaseClient::Grant& grant) {
  // handle.mu held exclusively by the caller.
  handle.lease_until = grant.until;
  if (grant.token != handle.fence) {
    // New tenure (manager restarted or the old lease lapsed unobserved):
    // advance the persisted fence before committing under the new token.
    // Journal bookkeeping is kept — our durable frames stay ours.
    ARKFS_RETURN_IF_ERROR(journal_->FenceDir(handle.ino, grant.token));
    journal_->RegisterDir(handle.ino, grant.token);
    handle.fence = grant.token;
  }
  handle.leader = true;
  return Status::Ok();
}

Status Client::BuildMetatable(DirHandle& handle, Prt::DirObjects* preloaded) {
  Prt::DirObjects local;
  if (!preloaded) {
    local = prt_->LoadDirObjects(handle.ino, handle.shard_hint);
    preloaded = &local;
  }
  if (preloaded->shard_count != 0) handle.shard_hint = preloaded->shard_count;
  auto& dir_inode = preloaded->inode;
  if (!dir_inode.ok()) {
    if (dir_inode.code() == Errc::kNoEnt) {
      return ErrStatus(Errc::kNoEnt, "directory inode not found");
    }
    return dir_inode.status();
  }
  if (!dir_inode->IsDir()) return ErrStatus(Errc::kNotDir);
  auto metatable = std::make_unique<Metatable>(std::move(*dir_inode));
  ARKFS_RETURN_IF_ERROR(preloaded->dentries.status());
  for (auto& d : *preloaded->dentries) {
    // Child-file inodes are pulled lazily on first access.
    ARKFS_RETURN_IF_ERROR(metatable->Insert(d, std::nullopt));
  }
  handle.metatable = std::move(metatable);
  return Status::Ok();
}

Status Client::RelinquishDir(const Uuid& dir_ino) {
  DirHandlePtr handle = HandleFor(dir_ino);
  std::unique_lock lock(handle->mu);
  if (!handle->leader) return Status::Ok();
  const FenceToken token = handle->fence;
  Status flush = journal_->UnregisterDir(dir_ino);
  if (flush.code() == Errc::kStale) {
    // A successor fenced us while we still thought we led. Nothing we hold
    // may be written back — the successor owns the journal and will replay
    // it. Dropping our state IS the clean release.
    DropLeadershipLocked(*handle, /*reset_journal=*/true);
    lock.unlock();
    // Best effort: the manager ignores a release whose token is not the
    // live lease's (it is the successor's now).
    (void)lease_->Release(dir_ino, token);
    return Status::Ok();
  }
  ARKFS_RETURN_IF_ERROR(flush);
  // Persist the latest in-memory inode states that were never journaled
  // (the journal flush above covers journaled ones; this is belt-and-braces
  // for the dir inode itself whose version may have advanced in memory).
  if (handle->metatable) {
    ARKFS_RETURN_IF_ERROR(prt_->StoreInode(handle->metatable->dir_inode()));
  }
  // UnregisterDir above already dropped the journal's bookkeeping.
  DropLeadershipLocked(*handle, /*reset_journal=*/false);
  lock.unlock();
  return lease_->Release(dir_ino, token);
}

void Client::HandleDeposed(const Uuid& dir_ino) {
  DirHandlePtr handle = HandleFor(dir_ino);
  std::unique_lock lock(handle->mu);
  if (!handle->leader) return;
  DropLeadershipLocked(*handle, /*reset_journal=*/true);
}

void Client::DropLeadershipLocked(DirHandle& handle, bool reset_journal) {
  handle.leader = false;
  handle.lame_duck = false;
  handle.metatable.reset();
  handle.file_leases.clear();
  handle.fence = FenceToken{};
  if (reset_journal) journal_->ResetDir(handle.ino);
}

Status Client::ValidateLeaseLocked(DirHandle& handle) {
  // handle.mu held (exclusive or shared with upgrade responsibility on the
  // caller — we only mutate lease fields, which shared holders tolerate
  // because renewal happens under exclusive lock in EnsureDirAccess).
  if (!handle.leader) return ErrStatus(Errc::kAgain, "not leader");
  const TimePoint now = Now();
  if (now >= handle.lease_until) {
    return ErrStatus(Errc::kAgain, "lease expired");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// RPC server side
// ---------------------------------------------------------------------------

Result<Bytes> Client::HandleDirOp(ByteSpan payload) {
  ARKFS_ASSIGN_OR_RETURN(auto req, wire::DirOpRequest::Decode(payload));
  served_remote_ops_.Add();
  return ServeDirOp(req).Encode();
}

Result<Bytes> Client::HandleFlushFile(ByteSpan payload) {
  ARKFS_ASSIGN_OR_RETURN(auto req, wire::FlushFileRequest::Decode(payload));
  // Leader revoked our cached copies of this file: write back and drop, and
  // force all our open handles to direct I/O from now on.
  ARKFS_RETURN_IF_ERROR(cache_->DropFile(req.ino, /*flush_dirty=*/true));
  std::lock_guard lock(fd_mu_);
  for (auto& [_, of] : open_files_) {
    if (of.ino == req.ino) {
      of.direct_io = true;
      of.cache_read = false;
      of.cache_write = false;
    }
  }
  return Bytes{};
}

wire::DirOpResponse Client::ServeDirOp(const wire::DirOpRequest& req) {
  // Serve under the requester's trace context (carried in the wire frame):
  // the leader-side span and every journal/store span the op triggers land
  // in THIS client's ring, all under the requester's trace id. The local
  // fast path stamps its own ambient context, so re-rooting is a no-op
  // there; an untraced request (trace_id 0) installs an inactive scope and
  // all spans below no-op.
  obs::TraceScope traced(
      &tracer_,
      obs::TraceContext{req.trace_id, req.parent_span, req.tenant});
  obs::Span span("client.serve_dir_op");
  wire::DirOpResponse resp;
  DirHandlePtr handle = HandleFor(req.dir_ino);
  const UserCred cred = req.cred.ToCred();

  auto fill_error = [&resp](const Status& st) {
    resp.code = st.code();
    resp.detail = st.detail();
  };

  // kFlushDir is special: it is valid even when we are no longer leader
  // (that is exactly the handoff situation it exists for).
  if (req.op == wire::DirOp::kFlushDir) {
    std::unique_lock lock(handle->mu);
    journal_->NoteLeaseDrain();  // handoff: a forced-drain lease event
    Status st = journal_->FlushDir(req.dir_ino);
    if (st.code() == Errc::kStale) {
      // Already fenced off by an even newer leader; our unflushed state is
      // theirs to replay. Handoff still succeeds from the caller's view.
      st = Status::Ok();
    }
    // We are being superseded; drop leadership state.
    DropLeadershipLocked(*handle, /*reset_journal=*/true);
    fill_error(st);
    return resp;
  }

  // kCommitDir (fsync / sync) checks the lease under the handle lock but
  // commits without it, so the journal write does not stall the
  // directory's other ops. kStale means a successor fenced us and the
  // commit did not land: drop leadership and fail the fsync, since no retry
  // could make those records durable now. Like kDelegateFetch below it is
  // exempt from admission: it only makes already-admitted ops durable.
  if (req.op == wire::DirOp::kCommitDir) {
    {
      std::shared_lock lock(handle->mu);
      if (Status st = ValidateLeaseLocked(*handle); !st.ok()) {
        fill_error(st);
        return resp;
      }
    }
    Status st = journal_->CommitDir(req.dir_ino);
    if (st.code() == Errc::kStale) HandleDeposed(req.dir_ino);
    fill_error(st);
    return resp;
  }

  // Admission control on the serving leader: an over-rate tenant is turned
  // away before any lease or metatable work, with the bucket's retry-after
  // riding in the kAgain detail — RunDirOp's retry loop sleeps exactly that
  // long. kDelegateFetch is exempt: it is client-infrastructure traffic
  // whose whole point is to RELIEVE an overloaded leader, and throttling it
  // would push delegates back onto the forwarding path.
  if (config_.admission && req.op != wire::DirOp::kDelegateFetch) {
    if (Status st = config_.admission->Admit(req.tenant); !st.ok()) {
      fill_error(st);
      return resp;
    }
  }

  std::unique_lock lock(handle->mu);
  if (Status st = ValidateLeaseLocked(*handle); !st.ok()) {
    fill_error(st);
    return resp;
  }
  if (handle->lame_duck && wire::IsMutation(req.op)) {
    // Lame duck: lease renewal is failing, so fence every mutation. A
    // successor may already be taking over; anything we accepted now could
    // be silently lost from its rebuilt metatable.
    fill_error(ErrStatus(Errc::kStale, "leader is lame duck (renewal failing)"));
    return resp;
  }

  Status st;
  switch (req.op) {
    case wire::DirOp::kLookup:
    case wire::DirOp::kGetAttrDir:
    case wire::DirOp::kGetAttrChild:
    case wire::DirOp::kReadDir:
      st = ServeRead(
          *handle->metatable, req, cred,
          [&](const Uuid& ino) -> Result<Inode> {
            ARKFS_ASSIGN_OR_RETURN(Inode * child,
                                   LoadChildInodeLocked(*handle, ino));
            return *child;
          },
          &resp);
      break;
    case wire::DirOp::kCreate:
      st = LeaderCreate(*handle, req.name, req.mode, req.exclusive,
                        FileType::kRegular, "", cred, &resp);
      break;
    case wire::DirOp::kMkdir:
      st = LeaderMkdir(*handle, req.name, req.mode, cred, &resp);
      break;
    case wire::DirOp::kUnlink:
      st = LeaderUnlink(*handle, req.name, cred, &resp);
      break;
    case wire::DirOp::kRmdir:
      st = LeaderRmdir(*handle, req.name, cred);
      break;
    case wire::DirOp::kRenameLocal:
      st = LeaderRenameLocal(*handle, req.name, req.name2, cred);
      break;
    case wire::DirOp::kSetAttrChild:
      st = LeaderSetAttrChild(*handle, req.name, req.attr, cred, &resp);
      break;
    case wire::DirOp::kSetAttrDir:
      st = LeaderSetAttrDir(*handle, req.attr, cred, &resp);
      break;
    case wire::DirOp::kSymlink:
      st = LeaderCreate(*handle, req.name, 0777, /*exclusive=*/true,
                        FileType::kSymlink, req.name2, cred, &resp);
      break;
    case wire::DirOp::kSetAclDir:
      st = LeaderSetAclDir(*handle, req.acl, cred);
      break;
    case wire::DirOp::kSetAclChild:
      st = LeaderSetAclChild(*handle, req.name, req.acl, cred);
      break;
    case wire::DirOp::kLeaseOpen:
      st = LeaderLeaseOpen(*handle, req.child_ino, req.client,
                           &resp.lease_granted, &resp);
      break;
    case wire::DirOp::kLeaseUpgrade:
      st = LeaderLeaseUpgrade(*handle, req.child_ino, req.client,
                              &resp.lease_granted);
      break;
    case wire::DirOp::kLeaseRelease:
      st = LeaderLeaseRelease(*handle, req.child_ino, req.client);
      break;
    case wire::DirOp::kCommitSize:
      st = LeaderCommitSize(*handle, req.child_ino, req.size, req.mtime_sec);
      break;
    case wire::DirOp::kIsEmptyDir:
      resp.empty_dir = handle->metatable->empty();
      break;
    case wire::DirOp::kDelegateFetch:
      st = LeaderDelegateFetch(*handle, &resp);
      break;
    case wire::DirOp::kFlushDir:
    case wire::DirOp::kCommitDir:
      break;  // handled above
  }
  if (st.code() == Errc::kStale && wire::IsMutation(req.op)) {
    // The op's journal commit was fenced mid-flight (sync mode commits
    // inside Append): a successor deposed us between the lease checks above
    // and the append. Nothing was acked, so drop leadership — the durable
    // journal is the successor's to replay, and our sequenced-but-unflushed
    // records die with the tenure (ResetDir counts them) — and report
    // kAgain so the caller redrives the op against the new leader.
    DropLeadershipLocked(*handle, /*reset_journal=*/true);
    st = ErrStatus(Errc::kAgain, "deposed at journal commit; retry");
  }
  fill_error(st);
  // Stamp replies to REMOTE requesters with the tenure + current journal
  // watermark. Delegates compare the stamp against their cached slice: the
  // watermark moves BEFORE a mutation is acked (journal Append), so a
  // delegate that observes any reply sent after a mutation can never keep
  // serving a slice that misses it. The local fast path skips the stamp —
  // a leader never delegates to itself, and the journal map lookup is pure
  // overhead there.
  if (req.client != config_.address) {
    resp.fence = handle->fence;
    resp.watermark = journal_->Watermark(req.dir_ino);
  }
  return resp;
}

ClientStats Client::stats() const {
  ClientStats s;
  s.local_meta_ops = local_meta_ops_.value();
  s.forwarded_ops = forwarded_ops_.value();
  s.served_remote_ops = served_remote_ops_.value();
  s.lease_acquires = lease_acquires_.value();
  s.lease_redirects = lease_redirects_.value();
  s.perm_cache_hits = perm_cache_hits_.value();
  s.recoveries = recoveries_.value();
  s.stat_local = stat_local_.value();
  s.stat_forwarded = stat_forwarded_.value();
  s.stat_delegated = stat_delegated_.value();
  s.deleg_hits = deleg_hits_.value();
  s.deleg_misses = deleg_misses_.value();
  s.deleg_refetches = deleg_refetches_.value();
  s.deleg_invalidations = deleg_invalidations_.value();
  s.leader_hint_stale = leader_hint_stale_.value();
  return s;
}

Vfs::IntrospectReport Client::Introspect() {
  IntrospectReport report;
  obs::MetricsRegistry& registry =
      config_.metrics ? *config_.metrics : obs::MetricsRegistry::Default();
  report.metrics = registry.Snapshot();
  report.spans = tracer_.Spans();
  report.journal = JournalState{journal_->durability(),
                                journal_->WindowDepth(),
                                journal_->config().group_window};
  report.delegations = DelegEntries();
  return report;
}

}  // namespace arkfs
