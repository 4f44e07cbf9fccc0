#include "workloads.h"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "common/rng.h"

namespace perfbench {

using arkfs::Bytes;
using arkfs::ByteSpan;
using arkfs::Errc;
using arkfs::FileType;
using arkfs::OpenOptions;
using arkfs::Status;
using arkfs::UserCred;

namespace {

// mdtest-easy: files per create/stat/unlink batch.
constexpr int kPrivateBatch = 32;
// mdtest-hard: files each thread writes per round, and their size.
constexpr int kSharedFiles = 16;
constexpr std::size_t kSharedFileSize = 3901;
// fio: file size and request size.
constexpr std::size_t kStreamFileSize = 8u << 20;
constexpr std::size_t kStreamRequest = 128u << 10;
constexpr std::size_t kStampBlock = 4096;  // see StreamPayload
// Files each thread creates during set-up (see PrepareNamespace).
constexpr int kPrepopulateFiles = 128;
// Round number of the stream base payload's file id (real rounds never get
// there).
constexpr std::uint64_t kStreamBaseRound = 1ull << 32;

const UserCred kRoot = UserCred::Root();

// Directory lease term. The paper's 5 s everywhere but meta_shared_group:
// there a 5 s term makes forwarded ops fail. Client renewals do not extend
// the leader's local lease_until (only BecomeLeader sets it), so once the
// first term ends the leader answers forwarded ops with EAGAIN while the
// manager, whose record the renewals did extend, keeps redirecting to it.
// Thread 0 idles at the phase barriers while the forwarders retry, so their
// one-second retry budget runs out and unlinks fail. A term longer than a
// run keeps every op succeeding until that defect is fixed.
constexpr arkfs::Nanos kPaperLeaseTerm = arkfs::Seconds(5);
constexpr arkfs::Nanos kRunLongLeaseTerm = arkfs::Seconds(120);

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {WorkloadKind::kMetaPrivateSync, "meta_private_sync",
       arkfs::journal::DurabilityMode::kSync, kPaperLeaseTerm, 3,
       {Op::kCreate, Op::kStat, Op::kUnlink}},
      {WorkloadKind::kMetaSharedGroup, "meta_shared_group",
       arkfs::journal::DurabilityMode::kGroup, kRunLongLeaseTerm, 3,
       {Op::kCreate, Op::kStat, Op::kRead, Op::kUnlink}},
      {WorkloadKind::kStreamRw, "stream_rw",
       arkfs::journal::DurabilityMode::kSync, kPaperLeaseTerm, 1,
       {Op::kCreate, Op::kWrite, Op::kFsync, Op::kStat, Op::kRead,
        Op::kUnlink}},
  };
  return specs;
}

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// File names carry a seed-derived token, so each seed names its own files.
std::string Token(std::uint64_t seed) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%08llx",
                static_cast<unsigned long long>(Mix(seed) & 0xffffffffu));
  return buf;
}

std::uint64_t FileId(int tid, std::uint64_t round, int index) {
  return (static_cast<std::uint64_t>(tid) << 56) | (round << 20) |
         static_cast<std::uint64_t>(index);
}

template <typename T>
void Shuffle(std::vector<T>& v, arkfs::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

bool IsRegularOfSize(const arkfs::Result<arkfs::StatResult>& st,
                     std::uint64_t size) {
  return st.ok() && st->type == FileType::kRegular && st->size == size;
}

// Unlinks `path`, then checks that a stat of it reports ENOENT.
void UnlinkChecked(Worker& d, const std::string& path) {
  const Status st =
      d.Run(Op::kUnlink, [&] { return d.fs().Unlink(path, kRoot); });
  const Status gone =
      d.Untimed([&] { return d.fs().Stat(path, kRoot).status(); });
  d.Check(st.ok() && gone.code() == Errc::kNoEnt, "unlink+stat", path,
          st.ok() ? gone : st);
}

// Creates `path` holding `payload`.
Status CreateWithPayload(arkfs::Vfs& fs, const std::string& path,
                         ByteSpan payload) {
  OpenOptions o;
  o.write = true;
  o.create = true;
  o.exclusive = true;
  auto fd = fs.Open(path, o, kRoot);
  if (!fd.ok()) return fd.status();
  Status st = Status::Ok();
  if (!payload.empty()) {
    auto n = fs.Write(*fd, 0, payload);
    if (!n.ok()) {
      st = n.status();
    } else if (*n != payload.size()) {
      st = Status(Errc::kIo, "short write");
    }
  }
  const Status closed = fs.Close(*fd);
  return st.ok() ? closed : st;
}

std::string PrePath(int tid, const std::string& name) {
  return "/pre" + std::to_string(tid) + "/" + name;
}

// Runs `fn` on every worker, one thread each; returns the first error.
template <typename F>
Status ForEachWorker(std::vector<Worker>& workers, F fn) {
  std::vector<Status> results(workers.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < workers.size(); ++t) {
    threads.emplace_back([&, t] { results[t] = fn(workers[t]); });
  }
  for (auto& th : threads) th.join();
  for (const Status& st : results) ARKFS_RETURN_IF_ERROR(st);
  return Status::Ok();
}

// --- meta_private_sync: mdtest-easy in the thread's own directory ---
void PrivateRound(Worker& d, arkfs::Rng& rng) {
  const std::string prefix = "/w" + std::to_string(d.tid()) + "/" +
                             Token(d.seed()) + "-" + std::to_string(d.round) +
                             "-";
  std::vector<std::string> paths;
  for (int i = 0; i < kPrivateBatch; ++i) {
    paths.push_back(prefix + std::to_string(i));
  }
  for (const std::string& p : paths) {
    const Status st = d.Run(Op::kCreate,
                            [&] { return CreateWithPayload(d.fs(), p, {}); });
    d.Check(st.ok(), "create", p, st);
  }
  Shuffle(paths, rng);
  for (const std::string& p : paths) {
    auto st = d.Run(Op::kStat, [&] { return d.fs().Stat(p, kRoot); });
    d.Check(IsRegularOfSize(st, 0), "stat", p, st.status());
  }
  Shuffle(paths, rng);
  for (const std::string& p : paths) UnlinkChecked(d, p);
}

// --- meta_shared_group: mdtest-hard in one directory led by thread 0 ---
std::string SharedPath(std::uint64_t seed, int tid, std::uint64_t round,
                       int index) {
  return "/shared/" + Token(seed) + "-" + std::to_string(tid) + "-" +
         std::to_string(round) + "-" + std::to_string(index);
}

template <typename Barrier>
void SharedRound(Worker& d, int threads, arkfs::Rng& rng, Barrier& sync) {
  const int peer = (d.tid() + 1) % threads;
  std::vector<int> order(kSharedFiles);
  for (int i = 0; i < kSharedFiles; ++i) order[i] = i;

  for (int i = 0; i < kSharedFiles; ++i) {
    const Bytes payload = MakePayload(d.seed(), FileId(d.tid(), d.round, i),
                                      kSharedFileSize);
    const std::string path = SharedPath(d.seed(), d.tid(), d.round, i);
    const Status st = d.Run(
        Op::kCreate, [&] { return CreateWithPayload(d.fs(), path, payload); });
    d.Check(st.ok(), "create", path, st);
  }
  sync.arrive_and_wait();

  Shuffle(order, rng);
  for (int i : order) {
    const std::string path = SharedPath(d.seed(), peer, d.round, i);
    auto st = d.Run(Op::kStat, [&] { return d.fs().Stat(path, kRoot); });
    d.Check(IsRegularOfSize(st, kSharedFileSize), "stat", path, st.status());
  }
  sync.arrive_and_wait();

  Shuffle(order, rng);
  for (int i : order) {
    const std::string path = SharedPath(d.seed(), peer, d.round, i);
    auto data = d.Run(Op::kRead, [&]() -> arkfs::Result<Bytes> {
      auto fd = d.fs().Open(path, OpenOptions{}, kRoot);
      if (!fd.ok()) return fd.status();
      auto bytes = d.fs().Read(*fd, 0, kSharedFileSize + 1);
      const Status closed = d.fs().Close(*fd);
      if (bytes.ok() && !closed.ok()) return closed;
      return bytes;
    });
    const Bytes want =
        MakePayload(d.seed(), FileId(peer, d.round, i), kSharedFileSize);
    d.Check(data.ok() && *data == want, "read", path, data.status());
  }
  sync.arrive_and_wait();

  Shuffle(order, rng);
  for (int i : order) {
    UnlinkChecked(d, SharedPath(d.seed(), d.tid(), d.round, i));
  }
}

// --- stream_rw: fio-style sequential write then read of a fresh file ---
void StreamRound(Worker& d, StreamPayload& buffer) {
  const std::string path = "/s" + std::to_string(d.tid()) + "/" +
                           Token(d.seed()) + "-" + std::to_string(d.round);
  buffer.Restamp(FileId(d.tid(), d.round, 0));
  const Bytes& payload = buffer.bytes();
  arkfs::Vfs& fs = d.fs();

  std::int64_t phase_ns = 0;
  OpenOptions wo;
  wo.write = true;
  wo.create = true;
  wo.exclusive = true;
  auto fd = d.Run(Op::kCreate, [&] { return fs.Open(path, wo, kRoot); });
  phase_ns += d.last_op_ns();
  d.Check(fd.ok(), "create", path, fd.status());
  if (!fd.ok()) return;
  for (std::size_t off = 0; off < kStreamFileSize; off += kStreamRequest) {
    const ByteSpan chunk(payload.data() + off, kStreamRequest);
    auto n = d.Run(Op::kWrite, [&] { return fs.Write(*fd, off, chunk); });
    phase_ns += d.last_op_ns();
    d.Check(n.ok() && *n == kStreamRequest, "write", path, n.status());
  }
  const Status synced = d.Run(Op::kFsync, [&] { return fs.Fsync(*fd); });
  phase_ns += d.last_op_ns();
  d.Check(synced.ok(), "fsync", path, synced);
  const Status closed = d.Untimed([&] { return fs.Close(*fd); });
  phase_ns += d.last_op_ns();
  if (d.recording) {
    d.log.bytes_written += kStreamFileSize;
    d.log.write_phase_s += phase_ns / 1e9;
  }

  auto st = d.Run(Op::kStat, [&] { return fs.Stat(path, kRoot); });
  d.Check(closed.ok() && IsRegularOfSize(st, kStreamFileSize), "close+stat",
          path, closed.ok() ? st.status() : closed);
  const Status dropped = d.Untimed([&] { return fs.DropCaches(); });
  d.Check(dropped.ok(), "drop caches", path, dropped);

  // The whole file must read back as this round's payload.
  auto rfd = d.Untimed([&] { return fs.Open(path, OpenOptions{}, kRoot); });
  phase_ns = d.last_op_ns();
  d.Check(rfd.ok(), "open", path, rfd.status());
  if (!rfd.ok()) return;
  for (std::size_t off = 0; off < kStreamFileSize; off += kStreamRequest) {
    auto data =
        d.Run(Op::kRead, [&] { return fs.Read(*rfd, off, kStreamRequest); });
    phase_ns += d.last_op_ns();
    d.Check(data.ok() && data->size() == kStreamRequest &&
                std::memcmp(data->data(), payload.data() + off,
                            kStreamRequest) == 0,
            "read", path, data.status());
  }
  const Status rclosed = d.Untimed([&] { return fs.Close(*rfd); });
  phase_ns += d.last_op_ns();
  if (d.recording) {
    d.log.bytes_read += kStreamFileSize;
    d.log.read_phase_s += phase_ns / 1e9;
  }
  d.Check(rclosed.ok(), "close", path, rclosed);
  UnlinkChecked(d, path);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

Bytes MakePayload(std::uint64_t seed, std::uint64_t file_id, std::size_t size) {
  Bytes out(size);
  std::uint64_t x = Mix(seed ^ Mix(file_id + 1));
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    x += 0x9e3779b97f4a7c15ull;
    const std::uint64_t w = Mix(x);
    std::memcpy(out.data() + i, &w, 8);
  }
  for (; i < size; ++i) out[i] = static_cast<std::uint8_t>(Mix(++x));
  return out;
}

StreamPayload::StreamPayload(std::uint64_t seed, std::uint64_t base_id,
                             std::size_t size)
    : seed_(seed), bytes_(MakePayload(seed, base_id, size)) {}

void StreamPayload::Restamp(std::uint64_t file_id) {
  for (std::size_t off = 0; off + 8 <= bytes_.size(); off += kStampBlock) {
    const std::uint64_t stamp =
        Mix(seed_ ^ Mix(file_id * 0x10001 + off / kStampBlock));
    std::memcpy(bytes_.data() + off, &stamp, 8);
  }
}

std::uint64_t ThreadLog::ops() const {
  std::uint64_t n = 0;
  for (const auto& v : total_us) n += v.size();
  return n;
}

void ThreadLog::Merge(const ThreadLog& o) {
  for (int op = 0; op < kNumOps; ++op) {
    total_us[op].insert(total_us[op].end(), o.total_us[op].begin(),
                        o.total_us[op].end());
    breakdown[op].insert(breakdown[op].end(), o.breakdown[op].begin(),
                         o.breakdown[op].end());
    for (int k = 0; k < kNumKeyClasses; ++k) {
      for (int v = 0; v < kNumVerbs; ++v) {
        inline_calls[op][k][v] += o.inline_calls[op][k][v];
      }
    }
  }
  ok.Merge(o.ok);
  untimed_calls += o.untimed_calls;
  bytes_written += o.bytes_written;
  bytes_read += o.bytes_read;
  write_phase_s += o.write_phase_s;
  read_phase_s += o.read_phase_s;
}

void Worker::Check(bool ok, const char* what, const std::string& path,
                   const Status& status) {
  log.ok.Record(ok);
  if (!ok && log.ok.failed <= 10) {
    std::fprintf(stderr, "check failed: %s %s: %s\n", what, path.c_str(),
                 status.ToString().c_str());
  }
}

void Worker::Log(Op op, std::int64_t total_ns, const OpScope& scope) {
  const int o = static_cast<int>(op);
  const double total_us = static_cast<double>(total_ns) / 1e3;
  log.total_us[o].push_back(total_us);
  if (!traced_) return;
  log.breakdown[o].push_back(
      {total_us, static_cast<double>(scope.client_ns) / 1e3,
       static_cast<double>(scope.client_cpu_ns) / 1e3,
       static_cast<double>(scope.store_ns) / 1e3,
       static_cast<double>(scope.store_cpu_ns) / 1e3});
  for (int k = 0; k < kNumKeyClasses; ++k) {
    for (int v = 0; v < kNumVerbs; ++v) {
      log.inline_calls[o][k][v] += scope.store_calls[k][v];
    }
  }
}

Status PrepareNamespace(const WorkloadSpec& spec,
                        std::vector<Worker>& workers) {
  // Thread 0 makes every top-level directory, so it leads the root; each
  // thread then leads the directories it touches first.
  arkfs::Vfs& fs0 = workers[0].fs();
  const int threads = static_cast<int>(workers.size());
  for (int t = 0; t < threads; ++t) {
    const std::string id = std::to_string(t);
    ARKFS_RETURN_IF_ERROR(fs0.Mkdir("/pre" + id, 0755, kRoot));
    if (spec.kind == WorkloadKind::kMetaPrivateSync) {
      ARKFS_RETURN_IF_ERROR(fs0.Mkdir("/w" + id, 0755, kRoot));
    } else if (spec.kind == WorkloadKind::kStreamRw) {
      ARKFS_RETURN_IF_ERROR(fs0.Mkdir("/s" + id, 0755, kRoot));
    }
  }
  if (spec.kind == WorkloadKind::kMetaSharedGroup) {
    ARKFS_RETURN_IF_ERROR(fs0.Mkdir("/shared", 0755, kRoot));
    ARKFS_RETURN_IF_ERROR(CreateWithPayload(fs0, "/shared/.lead", {}));
  }
  // Each thread takes the lead of its /pre<t>, then fills its neighbour's:
  // every pre-populating create is forwarded to a remote leader (a lone
  // thread fills its own, with sync commits on stream_rw), so set-up time
  // is network and store round trips on the calling thread rather than
  // thread start-up or hand-offs to background threads.
  ARKFS_RETURN_IF_ERROR(ForEachWorker(workers, [](Worker& d) {
    return CreateWithPayload(d.fs(), PrePath(d.tid(), "lead"), {});
  }));
  return ForEachWorker(workers, [threads](Worker& d) {
    const int target = (d.tid() + 1) % threads;
    for (int i = 0; i < kPrepopulateFiles; ++i) {
      const std::string name =
          std::to_string(d.tid()) + "-" + std::to_string(i);
      ARKFS_RETURN_IF_ERROR(
          CreateWithPayload(d.fs(), PrePath(target, name), {}));
    }
    return Status::Ok();
  });
}

std::int64_t RunWorkload(const WorkloadSpec& spec, std::vector<Worker>& workers,
                         arkfs::TimePoint deadline) {
  bool keep_going = true;  // written only by the barrier's completion step
  std::barrier sync(static_cast<std::ptrdiff_t>(workers.size()),
                    [&]() noexcept { keep_going = arkfs::Now() < deadline; });
  const std::int64_t start = WallNs();
  (void)ForEachWorker(workers, [&](Worker& d) {
    arkfs::Rng rng(Mix(d.seed() * 131 + d.tid()) ^ d.round);
    std::unique_ptr<StreamPayload> stream;
    if (spec.kind == WorkloadKind::kStreamRw) {
      stream = std::make_unique<StreamPayload>(
          d.seed(), FileId(d.tid(), kStreamBaseRound, 0), kStreamFileSize);
    }
    while (true) {
      switch (spec.kind) {
        case WorkloadKind::kMetaPrivateSync:
          PrivateRound(d, rng);
          break;
        case WorkloadKind::kMetaSharedGroup:
          SharedRound(d, spec.threads, rng, sync);
          break;
        case WorkloadKind::kStreamRw:
          StreamRound(d, *stream);
          break;
      }
      ++d.round;
      if (spec.kind == WorkloadKind::kMetaSharedGroup) {
        // Lockstep rounds: all threads see the same keep_going.
        sync.arrive_and_wait();
        if (!keep_going) break;
      } else if (arkfs::Now() >= deadline) {
        break;
      }
    }
    return Status::Ok();
  });
  return WallNs() - start;
}

}  // namespace perfbench
