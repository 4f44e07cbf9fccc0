#include "workloads/mdtest.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"

namespace arkfs::workloads {
namespace {

struct Barrier {
  explicit Barrier(int n) : remaining(n) {}
  void Arrive() {
    std::unique_lock lock(mu);
    if (--remaining == 0) {
      cv.notify_all();
    } else {
      cv.wait(lock, [&] { return remaining == 0; });
    }
  }
  std::mutex mu;
  std::condition_variable cv;
  int remaining;
};

// Runs `body(process)` on num_processes threads, with a start barrier, and
// returns the wall-clock span of the slowest process. `flush` runs inside
// the timed region after each process finishes its ops (the paper's
// per-phase fsync).
double TimedPhase(int num_processes,
                  const std::function<void(int)>& body,
                  const std::function<void(int)>& flush) {
  Barrier barrier(num_processes + 1);
  std::vector<std::thread> threads;
  std::atomic<std::int64_t> finish_ns{0};
  for (int p = 0; p < num_processes; ++p) {
    threads.emplace_back([&, p] {
      barrier.Arrive();
      body(p);
      if (flush) flush(p);
      const std::int64_t end = NowNanos();
      std::int64_t cur = finish_ns.load();
      while (end > cur && !finish_ns.compare_exchange_weak(cur, end)) {
      }
    });
  }
  // Stamp the start BEFORE releasing the barrier: on a loaded host the
  // workers can otherwise complete before this thread gets rescheduled.
  const std::int64_t start = NowNanos();
  barrier.Arrive();
  for (auto& t : threads) t.join();
  return static_cast<double>(std::max<std::int64_t>(
             finish_ns.load() - start, 1)) / 1e9;
}

// Counts a phase's failed steps and keeps the first one, so a failure names
// its cause. Shared by the phase's worker threads.
class PhaseErrors {
 public:
  void Add(const char* step, const std::string& path, const Status& status) {
    std::lock_guard lock(mu_);
    if (count_++ == 0) {
      first_ = std::string(step) + " " + path + ": " + status.ToString();
    }
  }
  std::uint64_t count() const { return count_; }
  const std::string& first() const { return first_; }

 private:
  std::mutex mu_;
  std::uint64_t count_ = 0;
  std::string first_;
};

// One mdtest step on one file; failures go to `errors`.
using FileStep =
    std::function<void(Vfs& vfs, const std::string& path, PhaseErrors& errors)>;

// Runs `step` on each process's files_per_process files (`path(p, i)`) as
// one timed phase. With `sync`, each process's SyncAll runs inside the
// timed region (the paper's per-phase fsync).
PhaseResult RunPhase(const char* name, const std::vector<VfsPtr>& vfs,
                     const MdtestConfig& config,
                     const std::function<std::string(int, int)>& path,
                     const FileStep& step, bool sync) {
  PhaseErrors errors;
  const double seconds = TimedPhase(
      config.num_processes,
      [&](int p) {
        for (int i = 0; i < config.files_per_process; ++i) {
          step(*vfs[p], path(p, i), errors);
        }
      },
      sync ? std::function<void(int)>([&](int p) { (void)vfs[p]->SyncAll(); })
           : nullptr);
  PhaseResult r;
  r.phase = name;
  r.ops = static_cast<std::uint64_t>(config.num_processes) *
          config.files_per_process;
  r.errors = errors.count();
  r.first_error = errors.first();
  r.seconds = seconds;
  r.ops_per_second = static_cast<double>(r.ops) / seconds;
  return r;
}

FileStep CreateStep(const MdtestConfig& config, const Bytes* payload) {
  return [&config, payload](Vfs& vfs, const std::string& path,
                            PhaseErrors& errors) {
    OpenOptions create;
    create.write = true;
    create.create = true;
    auto fd = vfs.Open(path, create, config.cred);
    if (!fd.ok()) return errors.Add("open", path, fd.status());
    if (payload) {
      auto written = vfs.Write(*fd, 0, *payload);
      if (!written.ok()) {
        errors.Add("write", path, written.status());
        (void)vfs.Close(*fd);
        return;
      }
    }
    if (Status st = vfs.Close(*fd); !st.ok()) errors.Add("close", path, st);
  };
}

FileStep StatStep(const MdtestConfig& config) {
  return [&config](Vfs& vfs, const std::string& path, PhaseErrors& errors) {
    auto st = vfs.Stat(path, config.cred);
    if (!st.ok()) errors.Add("stat", path, st.status());
  };
}

// Whole-file read (MarFS-like mounts may error here, exactly as the paper
// reports — errors are counted, not fatal).
FileStep ReadStep(const MdtestConfig& config) {
  return [&config](Vfs& vfs, const std::string& path, PhaseErrors& errors) {
    auto fd = vfs.Open(path, OpenOptions{}, config.cred);
    if (!fd.ok()) return errors.Add("open", path, fd.status());
    auto data = vfs.Read(*fd, 0, config.file_size);
    if (!data.ok()) {
      errors.Add("read", path, data.status());
    } else if (data->size() != config.file_size) {
      errors.Add("short read", path,
                 ErrStatus(Errc::kIo, std::to_string(data->size()) + " bytes"));
    }
    if (Status st = vfs.Close(*fd); !st.ok()) errors.Add("close", path, st);
  };
}

FileStep UnlinkStep(const MdtestConfig& config) {
  return [&config](Vfs& vfs, const std::string& path, PhaseErrors& errors) {
    if (Status st = vfs.Unlink(path, config.cred); !st.ok()) {
      errors.Add("unlink", path, st);
    }
  };
}

std::string EasyDir(const MdtestConfig& config, int process) {
  return config.root + "/proc" + std::to_string(process);
}

std::string EasyFile(const MdtestConfig& config, int process, int i) {
  return EasyDir(config, process) + "/file." + std::to_string(i);
}

// mdtest-hard: process p's file i lives in a pseudo-randomly chosen shared
// directory (deterministic, so later phases find their files again).
std::string HardFile(const MdtestConfig& config, int process, int i) {
  Rng rng(config.seed ^ (static_cast<std::uint64_t>(process) << 32) ^
          static_cast<std::uint64_t>(i));
  const auto dir = rng.Below(static_cast<std::uint64_t>(config.shared_dirs));
  return config.root + "/shared" + std::to_string(dir) + "/p" +
         std::to_string(process) + "." + std::to_string(i);
}

// Mounts every process and builds the easy layout's private leaf
// directories (untimed setup, as in mdtest).
Result<std::vector<VfsPtr>> SetUpEasy(const MountFactory& mounts,
                                      const MdtestConfig& config) {
  std::vector<VfsPtr> vfs(config.num_processes);
  for (int p = 0; p < config.num_processes; ++p) vfs[p] = mounts(p);
  ARKFS_RETURN_IF_ERROR(vfs[0]->MkdirAll(config.root, 0777, config.cred));
  for (int p = 0; p < config.num_processes; ++p) {
    ARKFS_RETURN_IF_ERROR(vfs[p]->Mkdir(EasyDir(config, p), 0777, config.cred));
  }
  return vfs;
}

}  // namespace

Result<std::vector<PhaseResult>> RunMdtestEasy(const MountFactory& mounts,
                                               const MdtestConfig& config) {
  ARKFS_ASSIGN_OR_RETURN(auto vfs, SetUpEasy(mounts, config));
  const auto path = [&](int p, int i) { return EasyFile(config, p, i); };
  // CREATE: empty files in the private leaf directory.
  return std::vector<PhaseResult>{
      RunPhase("CREATE", vfs, config, path, CreateStep(config, nullptr), true),
      RunPhase("STAT", vfs, config, path, StatStep(config), false),
      RunPhase("DELETE", vfs, config, path, UnlinkStep(config), true)};
}

Result<std::vector<PhaseResult>> RunMdtestHard(const MountFactory& mounts,
                                               const MdtestConfig& config) {
  std::vector<VfsPtr> vfs(config.num_processes);
  for (int p = 0; p < config.num_processes; ++p) vfs[p] = mounts(p);
  ARKFS_RETURN_IF_ERROR(vfs[0]->MkdirAll(config.root, 0777, config.cred));
  for (int d = 0; d < config.shared_dirs; ++d) {
    ARKFS_RETURN_IF_ERROR(vfs[0]->Mkdir(
        config.root + "/shared" + std::to_string(d), 0777, config.cred));
  }

  const Bytes payload(config.file_size, 0x5A);
  const auto path = [&](int p, int i) { return HardFile(config, p, i); };
  // WRITE: create + write file_size bytes; DELETE removes data too.
  return std::vector<PhaseResult>{
      RunPhase("WRITE", vfs, config, path, CreateStep(config, &payload), true),
      RunPhase("STAT", vfs, config, path, StatStep(config), false),
      RunPhase("READ", vfs, config, path, ReadStep(config), false),
      RunPhase("DELETE", vfs, config, path, UnlinkStep(config), true)};
}

Result<PhaseResult> RunMdtestCreateOnly(const MountFactory& mounts,
                                        const MdtestConfig& config) {
  ARKFS_ASSIGN_OR_RETURN(auto vfs, SetUpEasy(mounts, config));
  return RunPhase("CREATE", vfs, config,
                  [&](int p, int i) { return EasyFile(config, p, i); },
                  CreateStep(config, nullptr), true);
}

}  // namespace arkfs::workloads
