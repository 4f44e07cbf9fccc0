// The three workloads and the per-thread worker that times their ops.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/vfs.h"
#include "journal/group_commit.h"
#include "ledger.h"
#include "probes.h"

namespace perfbench {

enum class WorkloadKind { kMetaPrivateSync, kMetaSharedGroup, kStreamRw };

struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
  arkfs::journal::DurabilityMode durability;
  arkfs::Nanos lease_term;
  int threads;          // driver threads, one mount each
  std::vector<Op> ops;  // ops the workload times
};

// Ops every workload times. Their p50s are the end-to-end latency metrics
// and the only per-op times among the per-layer metrics, so every workload
// reports the same metric names with measured values.
inline constexpr std::array<Op, 3> kCommonOps = {Op::kCreate, Op::kStat,
                                                 Op::kUnlink};

// Null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Seed-derived payload of `size` bytes for file `file_id`.
arkfs::Bytes MakePayload(std::uint64_t seed, std::uint64_t file_id,
                         std::size_t size);

// stream_rw's file buffer: a seed-derived base made once per thread whose
// first word in every 4 KiB block is restamped per file, so each block of a
// file differs from every other file's without regenerating megabytes of
// payload (and burning the CPU the system under test runs on) every round.
class StreamPayload {
 public:
  StreamPayload(std::uint64_t seed, std::uint64_t base_id, std::size_t size);

  // Stamps the buffer with `file_id`'s contents.
  void Restamp(std::uint64_t file_id);
  const arkfs::Bytes& bytes() const { return bytes_; }

 private:
  const std::uint64_t seed_;
  arkfs::Bytes bytes_;
};

// What one worker thread measured.
struct ThreadLog {
  std::vector<double> total_us[kNumOps];
  std::vector<OpBreakdown> breakdown[kNumOps];  // traced runs only
  // Inline store calls per (op, kind, verb), traced runs only.
  std::array<std::array<std::array<std::uint64_t, kNumVerbs>, kNumKeyClasses>,
             kNumOps>
      inline_calls{};
  OkCounter ok;
  // Calls made through Untimed() (checks and untimed workload steps).
  std::uint64_t untimed_calls = 0;
  // stream_rw: bytes moved and the time spent in write / read phases.
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  double write_phase_s = 0;
  double read_phase_s = 0;

  std::uint64_t ops() const;
  void Merge(const ThreadLog& other);
};

// Drives one mount. Every timed op runs through Run() and every other call
// on the mount through Untimed(); while `recording` is off (warm-up) no
// latency or call count is logged, but output checks still count.
class Worker {
 public:
  Worker(int tid, arkfs::VfsPtr mount, std::uint64_t seed, bool traced)
      : tid_(tid), mount_(std::move(mount)), seed_(seed), traced_(traced) {}

  template <typename F>
  auto Run(Op op, F&& call) {
    OpScope scope;
    const std::int64_t t0 = WallNs();
    auto result = [&] {
      if (!traced_ || !recording) return call();
      ActiveOp active(&scope);
      return call();
    }();
    const std::int64_t total_ns = WallNs() - t0;
    if (recording) Log(op, total_ns, scope);
    last_op_ns_ = total_ns;
    return result;
  }

  // A call that is not a timed op: an output check or an untimed step of
  // the workload (close, cache drop). In a traced phase it runs in its own
  // OpScope marked untimed, so its store calls count neither as an op's
  // inline calls nor as offloaded ones. last_op_ns() is its wall time.
  template <typename F>
  auto Untimed(F&& call) {
    OpScope scope;
    scope.untimed = true;
    const std::int64_t t0 = WallNs();
    auto result = [&] {
      if (!traced_ || !recording) return call();
      ActiveOp active(&scope);
      return call();
    }();
    last_op_ns_ = WallNs() - t0;
    if (recording) ++log.untimed_calls;
    return result;
  }

  // Output check of the op just run (feeds ok_ratio, warm-up included). The
  // first failures are reported on stderr with `what`, the path and the
  // call's status.
  void Check(bool ok, const char* what, const std::string& path,
             const arkfs::Status& status = arkfs::Status::Ok());

  int tid() const { return tid_; }
  arkfs::Vfs& fs() { return *mount_; }
  std::uint64_t seed() const { return seed_; }
  std::int64_t last_op_ns() const { return last_op_ns_; }

  bool recording = false;
  std::uint64_t round = 0;  // rounds run so far (names files uniquely)
  ThreadLog log;

 private:
  void Log(Op op, std::int64_t total_ns, const OpScope& scope);

  const int tid_;
  arkfs::VfsPtr mount_;
  const std::uint64_t seed_;
  const bool traced_;
  std::int64_t last_op_ns_ = 0;
};

// Namespace the workload expects, created during set-up.
arkfs::Status PrepareNamespace(const WorkloadSpec& spec,
                               std::vector<Worker>& workers);

// Runs the workload on every worker (one thread each) until `deadline`;
// every thread completes at least one round, and rounds in progress at the
// deadline complete. Returns the wall time from start to the last thread's
// finish.
std::int64_t RunWorkload(const WorkloadSpec& spec, std::vector<Worker>& workers,
                         arkfs::TimePoint deadline);

}  // namespace perfbench
