// Outside-in probes for the traced run. Nothing here touches ArkFS
// internals: each probe times calls into a public interface.
//
//   FuseSim --(TimingVfs, TimedProbe)--> Client     client time + CPU
//   ArkFsCluster --(TimingStore)--> ClusterObjectStore   store calls
//
// While a worker thread runs a traced op it installs an OpScope
// (ActiveOp); the probes add into it. A store call that finds no OpScope on
// its thread ran on a background thread (async I/O workers, the group
// flusher, checkpointers, readahead) and counts as offloaded. Checks and
// untimed workload steps run in an OpScope marked untimed; their store
// calls are counted apart from both.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/client.h"
#include "core/fuse_sim.h"
#include "ledger.h"
#include "objstore/store_decorator.h"

namespace perfbench {

// CPU time consumed so far by the calling thread (CLOCK_THREAD_CPUTIME_ID).
std::int64_t ThreadCpuNs();
std::int64_t WallNs();

// Accumulators of the traced op running on this thread.
struct OpScope {
  bool untimed = false;  // a check or untimed step, not a timed op
  std::int64_t client_ns = 0;
  std::int64_t client_cpu_ns = 0;
  std::int64_t store_ns = 0;
  std::int64_t store_cpu_ns = 0;
  std::array<std::array<std::uint32_t, kNumVerbs>, kNumKeyClasses>
      store_calls{};
};

OpScope* CurrentOp();

// Installs `scope` as this thread's current op for its lifetime.
class ActiveOp {
 public:
  explicit ActiveOp(OpScope* scope);
  ~ActiveOp();
  ActiveOp(const ActiveOp&) = delete;
  ActiveOp& operator=(const ActiveOp&) = delete;

 private:
  OpScope* prev_;
};

// Path components the client looks up for `path` (pcache or leader):
// ResolveParent walks every ancestor; Stat and Probe also look up the leaf.
std::uint64_t AncestorSteps(const std::string& path);

// Path-component lookups issued through the timing shims so far, inside
// traced ops or not (the denominator of client.pcache_hit_ratio, whose
// numerator, Client::stats().perm_cache_hits, counts every call too).
std::uint64_t PathStepsIssued();

// Vfs shim between FuseSim and a Client: forwards every call and, during a
// traced op, adds the call's wall and thread-CPU time to the OpScope.
class TimingVfs : public arkfs::Vfs {
 public:
  explicit TimingVfs(std::shared_ptr<arkfs::Client> inner)
      : inner_(std::move(inner)) {}

  arkfs::Result<arkfs::Fd> Open(const std::string& path,
                                const arkfs::OpenOptions& options,
                                const arkfs::UserCred& cred) override;
  arkfs::Status Close(arkfs::Fd fd) override;
  arkfs::Result<arkfs::Bytes> Read(arkfs::Fd fd, std::uint64_t offset,
                                   std::uint64_t length) override;
  arkfs::Result<std::uint64_t> Write(arkfs::Fd fd, std::uint64_t offset,
                                     arkfs::ByteSpan data) override;
  arkfs::Status Fsync(arkfs::Fd fd) override;
  arkfs::Result<arkfs::StatResult> Stat(const std::string& path,
                                        const arkfs::UserCred& cred) override;
  arkfs::Status Mkdir(const std::string& path, std::uint32_t mode,
                      const arkfs::UserCred& cred) override;
  arkfs::Status Rmdir(const std::string& path,
                      const arkfs::UserCred& cred) override;
  arkfs::Status Unlink(const std::string& path,
                       const arkfs::UserCred& cred) override;
  arkfs::Status Rename(const std::string& from, const std::string& to,
                       const arkfs::UserCred& cred) override;
  arkfs::Result<std::vector<arkfs::Dentry>> ReadDir(
      const std::string& path, const arkfs::UserCred& cred) override;
  arkfs::Status SetAttr(const std::string& path,
                        const arkfs::SetAttrRequest& req,
                        const arkfs::UserCred& cred) override;
  arkfs::Status Symlink(const std::string& target, const std::string& path,
                        const arkfs::UserCred& cred) override;
  arkfs::Result<std::string> ReadLink(const std::string& path,
                                      const arkfs::UserCred& cred) override;
  arkfs::Status SetAcl(const std::string& path, const arkfs::Acl& acl,
                       const arkfs::UserCred& cred) override;
  arkfs::Result<arkfs::Acl> GetAcl(const std::string& path,
                                   const arkfs::UserCred& cred) override;
  arkfs::Status SyncAll() override;
  arkfs::Status DropCaches() override;

 private:
  std::shared_ptr<arkfs::Client> inner_;
};

// FuseSim's LOOKUP probe: Client::Probe, timed like a TimingVfs call.
arkfs::FuseSim::ProbeFn TimedProbe(std::shared_ptr<arkfs::Client> client);

// Times a call made on behalf of the current op (no-op outside one).
void CountPathSteps(std::uint64_t n);

template <typename F>
auto TimeClientCall(std::uint64_t path_steps, F&& call) {
  CountPathSteps(path_steps);
  OpScope* op = CurrentOp();
  if (op == nullptr) return call();
  const std::int64_t wall0 = WallNs();
  const std::int64_t cpu0 = ThreadCpuNs();
  auto result = call();
  op->client_cpu_ns += ThreadCpuNs() - cpu0;
  op->client_ns += WallNs() - wall0;
  return result;
}

// Everything TimingStore saw between Begin() and End().
struct StoreTotals {
  struct Cell {
    std::uint64_t calls = 0;
    std::vector<double> us;  // per-call wall time, unsorted
  };
  std::array<std::array<Cell, kNumVerbs>, kNumKeyClasses> cells;
  // cells and bytes_* cover inline and offloaded calls; calls made inside
  // an untimed scope count only in untimed_calls, errors and busy_ns.
  std::uint64_t inline_calls = 0;
  std::uint64_t offloaded_calls = 0;
  std::uint64_t untimed_calls = 0;
  std::uint64_t errors = 0;  // failed calls other than kNoEnt
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::int64_t busy_ns = 0;  // sum of call wall times (all threads)
};

// ObjectStore decorator that classifies each call's key with ParseKey and
// times it, attributing it to the calling thread's op or to the background.
class TimingStore : public arkfs::StoreDecorator {
 public:
  using StoreDecorator::StoreDecorator;

  arkfs::Result<arkfs::Bytes> Get(const std::string& key) override;
  arkfs::Result<arkfs::Bytes> GetRange(const std::string& key,
                                       std::uint64_t offset,
                                       std::uint64_t length) override;
  arkfs::Status Put(const std::string& key, arkfs::ByteSpan data) override;
  arkfs::Status PutRange(const std::string& key, std::uint64_t offset,
                         arkfs::ByteSpan data) override;
  arkfs::Status Delete(const std::string& key) override;
  arkfs::Result<arkfs::ObjectMeta> Head(const std::string& key) override;
  arkfs::Result<std::vector<std::string>> List(
      const std::string& prefix) override;

  // Clears and starts recording / stops recording and returns the totals.
  void Begin();
  StoreTotals End();

  // Records one call. Public so the helper tests can drive attribution
  // without a backing store.
  void Record(const std::string& key, Verb verb, std::int64_t wall_ns,
              std::int64_t cpu_ns, const arkfs::Status& status,
              std::uint64_t bytes_read, std::uint64_t bytes_written);

 private:
  template <typename F>
  auto Timed(const std::string& key, Verb verb, std::uint64_t bytes_written,
             F&& call);

  std::atomic<bool> recording_{false};
  std::mutex mu_;  // guards totals_
  StoreTotals totals_;
};

}  // namespace perfbench
