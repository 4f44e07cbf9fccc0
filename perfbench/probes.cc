#include "probes.h"

#include <time.h>

#include <type_traits>

#include "prt/key_schema.h"

namespace perfbench {

using arkfs::Bytes;
using arkfs::ByteSpan;
using arkfs::Result;
using arkfs::Status;
using arkfs::UserCred;

namespace {
thread_local OpScope* t_op = nullptr;
std::atomic<std::uint64_t> g_path_steps{0};
}  // namespace

void CountPathSteps(std::uint64_t n) {
  g_path_steps.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t PathStepsIssued() {
  return g_path_steps.load(std::memory_order_relaxed);
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t WallNs() { return arkfs::NowNanos(); }

OpScope* CurrentOp() { return t_op; }

ActiveOp::ActiveOp(OpScope* scope) : prev_(t_op) { t_op = scope; }
ActiveOp::~ActiveOp() { t_op = prev_; }

KeyClass ClassifyKey(const std::string& key) {
  auto parsed = arkfs::ParseKey(key);
  if (!parsed.ok()) return KeyClass::kOther;
  switch (parsed->kind) {
    case arkfs::KeyKind::kJournal:
      return KeyClass::kJournal;
    case arkfs::KeyKind::kFence:
      return KeyClass::kFence;
    case arkfs::KeyKind::kInode:
      return KeyClass::kInode;
    case arkfs::KeyKind::kDentry:
    case arkfs::KeyKind::kDentryManifest:
    case arkfs::KeyKind::kDentryShard:
      return KeyClass::kDentry;
    case arkfs::KeyKind::kData:
      return KeyClass::kData;
  }
  return KeyClass::kOther;
}

std::uint64_t AncestorSteps(const std::string& path) {
  std::uint64_t components = 0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] != '/' && (i == 0 || path[i - 1] == '/')) ++components;
  }
  return components == 0 ? 0 : components - 1;
}

// --- TimingVfs ---

Result<arkfs::Fd> TimingVfs::Open(const std::string& path,
                                  const arkfs::OpenOptions& options,
                                  const UserCred& cred) {
  return TimeClientCall(AncestorSteps(path),
                        [&] { return inner_->Open(path, options, cred); });
}
Status TimingVfs::Close(arkfs::Fd fd) {
  return TimeClientCall(0, [&] { return inner_->Close(fd); });
}
Result<Bytes> TimingVfs::Read(arkfs::Fd fd, std::uint64_t offset,
                              std::uint64_t length) {
  return TimeClientCall(0, [&] { return inner_->Read(fd, offset, length); });
}
Result<std::uint64_t> TimingVfs::Write(arkfs::Fd fd, std::uint64_t offset,
                                       ByteSpan data) {
  return TimeClientCall(0, [&] { return inner_->Write(fd, offset, data); });
}
Status TimingVfs::Fsync(arkfs::Fd fd) {
  return TimeClientCall(0, [&] { return inner_->Fsync(fd); });
}
Result<arkfs::StatResult> TimingVfs::Stat(const std::string& path,
                                          const UserCred& cred) {
  return TimeClientCall(AncestorSteps(path) + 1,
                        [&] { return inner_->Stat(path, cred); });
}
Status TimingVfs::Mkdir(const std::string& path, std::uint32_t mode,
                        const UserCred& cred) {
  return TimeClientCall(AncestorSteps(path),
                        [&] { return inner_->Mkdir(path, mode, cred); });
}
Status TimingVfs::Rmdir(const std::string& path, const UserCred& cred) {
  return TimeClientCall(AncestorSteps(path),
                        [&] { return inner_->Rmdir(path, cred); });
}
Status TimingVfs::Unlink(const std::string& path, const UserCred& cred) {
  return TimeClientCall(AncestorSteps(path),
                        [&] { return inner_->Unlink(path, cred); });
}
Status TimingVfs::Rename(const std::string& from, const std::string& to,
                         const UserCred& cred) {
  return TimeClientCall(AncestorSteps(from) + AncestorSteps(to),
                        [&] { return inner_->Rename(from, to, cred); });
}
Result<std::vector<arkfs::Dentry>> TimingVfs::ReadDir(const std::string& path,
                                                      const UserCred& cred) {
  return TimeClientCall(AncestorSteps(path),
                        [&] { return inner_->ReadDir(path, cred); });
}
Status TimingVfs::SetAttr(const std::string& path,
                          const arkfs::SetAttrRequest& req,
                          const UserCred& cred) {
  return TimeClientCall(AncestorSteps(path),
                        [&] { return inner_->SetAttr(path, req, cred); });
}
Status TimingVfs::Symlink(const std::string& target, const std::string& path,
                          const UserCred& cred) {
  return TimeClientCall(AncestorSteps(path),
                        [&] { return inner_->Symlink(target, path, cred); });
}
Result<std::string> TimingVfs::ReadLink(const std::string& path,
                                        const UserCred& cred) {
  return TimeClientCall(AncestorSteps(path),
                        [&] { return inner_->ReadLink(path, cred); });
}
Status TimingVfs::SetAcl(const std::string& path, const arkfs::Acl& acl,
                         const UserCred& cred) {
  return TimeClientCall(AncestorSteps(path),
                        [&] { return inner_->SetAcl(path, acl, cred); });
}
Result<arkfs::Acl> TimingVfs::GetAcl(const std::string& path,
                                     const UserCred& cred) {
  return TimeClientCall(AncestorSteps(path),
                        [&] { return inner_->GetAcl(path, cred); });
}
Status TimingVfs::SyncAll() {
  return TimeClientCall(0, [&] { return inner_->SyncAll(); });
}
Status TimingVfs::DropCaches() {
  return TimeClientCall(0, [&] { return inner_->DropCaches(); });
}

arkfs::FuseSim::ProbeFn TimedProbe(std::shared_ptr<arkfs::Client> client) {
  return [client](const std::string& path, const UserCred& cred) {
    return TimeClientCall(AncestorSteps(path) + 1,
                          [&] { return client->Probe(path, cred); });
  };
}

// --- TimingStore ---

template <typename F>
auto TimingStore::Timed(const std::string& key, Verb verb,
                        std::uint64_t bytes_written, F&& call) {
  if (!recording_.load(std::memory_order_relaxed)) return call();
  const std::int64_t wall0 = WallNs();
  const std::int64_t cpu0 = ThreadCpuNs();
  auto result = call();
  const std::int64_t cpu = ThreadCpuNs() - cpu0;
  const std::int64_t wall = WallNs() - wall0;
  if constexpr (std::is_same_v<decltype(result), Status>) {
    Record(key, verb, wall, cpu, result, 0, bytes_written);
  } else {
    std::uint64_t bytes_read = 0;
    if constexpr (std::is_same_v<decltype(result), Result<Bytes>>) {
      if (result.ok()) bytes_read = result->size();
    }
    Record(key, verb, wall, cpu, result.status(), bytes_read, bytes_written);
  }
  return result;
}

Result<Bytes> TimingStore::Get(const std::string& key) {
  return Timed(key, Verb::kGet, 0, [&] { return base()->Get(key); });
}
Result<Bytes> TimingStore::GetRange(const std::string& key,
                                    std::uint64_t offset,
                                    std::uint64_t length) {
  return Timed(key, Verb::kGetRange, 0,
               [&] { return base()->GetRange(key, offset, length); });
}
Status TimingStore::Put(const std::string& key, ByteSpan data) {
  return Timed(key, Verb::kPut, data.size(),
               [&] { return base()->Put(key, data); });
}
Status TimingStore::PutRange(const std::string& key, std::uint64_t offset,
                             ByteSpan data) {
  return Timed(key, Verb::kPutRange, data.size(),
               [&] { return base()->PutRange(key, offset, data); });
}
Status TimingStore::Delete(const std::string& key) {
  return Timed(key, Verb::kDelete, 0, [&] { return base()->Delete(key); });
}
Result<arkfs::ObjectMeta> TimingStore::Head(const std::string& key) {
  return Timed(key, Verb::kHead, 0, [&] { return base()->Head(key); });
}
Result<std::vector<std::string>> TimingStore::List(const std::string& prefix) {
  return Timed(prefix, Verb::kList, 0, [&] { return base()->List(prefix); });
}

void TimingStore::Record(const std::string& key, Verb verb,
                         std::int64_t wall_ns, std::int64_t cpu_ns,
                         const Status& status, std::uint64_t bytes_read,
                         std::uint64_t bytes_written) {
  const KeyClass kind = ClassifyKey(key);
  OpScope* op = CurrentOp();
  if (op != nullptr && !op->untimed) {
    op->store_ns += wall_ns;
    op->store_cpu_ns += cpu_ns;
    ++op->store_calls[static_cast<int>(kind)][static_cast<int>(verb)];
  }
  std::lock_guard lock(mu_);
  totals_.busy_ns += wall_ns;
  if (!status.ok() && status.code() != arkfs::Errc::kNoEnt) ++totals_.errors;
  if (op != nullptr && op->untimed) {
    ++totals_.untimed_calls;
    return;
  }
  StoreTotals::Cell& cell =
      totals_.cells[static_cast<int>(kind)][static_cast<int>(verb)];
  ++cell.calls;
  cell.us.push_back(static_cast<double>(wall_ns) / 1e3);
  ++(op != nullptr ? totals_.inline_calls : totals_.offloaded_calls);
  totals_.bytes_read += bytes_read;
  totals_.bytes_written += bytes_written;
}

void TimingStore::Begin() {
  std::lock_guard lock(mu_);
  totals_ = StoreTotals{};
  recording_.store(true);
}

StoreTotals TimingStore::End() {
  recording_.store(false);
  std::lock_guard lock(mu_);
  return std::move(totals_);
}

}  // namespace perfbench
