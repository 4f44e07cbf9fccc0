// mdtest workload generator (paper §IV-B).
//
// Reimplements the two IO500 configurations the paper benchmarks:
//
//  * mdtest-easy — CREATE / STAT / DELETE phases on empty files; each
//    process operates in its own private leaf directory (no sharing).
//  * mdtest-hard — WRITE / STAT / READ / DELETE phases on 3901-byte files
//    spread across a shared directory pool; every process touches
//    arbitrary directories (the shared-environment stressor).
//
// fsync semantics follow the paper: all modifications are flushed to the
// underlying storage at the end of each phase, inside the timed region.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/vfs.h"

namespace arkfs::workloads {

// Each simulated client process gets its own mount.
using MountFactory = std::function<VfsPtr(int process)>;

struct MdtestConfig {
  int num_processes = 16;     // paper: 16
  int files_per_process = 64; // paper: 1M total / 16; scaled down for CI
  std::uint64_t file_size = 3901;  // hard only (IO500 default)
  int shared_dirs = 16;       // hard: size of the shared directory pool
  std::string root = "/mdtest";
  std::uint64_t seed = 42;
  UserCred cred = UserCred::Root();
};

struct PhaseResult {
  std::string phase;
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  double seconds = 0;
  double ops_per_second = 0;
  // The phase's first failing step ("open <path>: <status>", "short read
  // <path>: ...", "close ..."); empty when errors == 0.
  std::string first_error;
};

// Runs all phases; returns one result per phase, in order.
Result<std::vector<PhaseResult>> RunMdtestEasy(const MountFactory& mounts,
                                               const MdtestConfig& config);
Result<std::vector<PhaseResult>> RunMdtestHard(const MountFactory& mounts,
                                               const MdtestConfig& config);

// The CREATE phase only (the Fig. 1 / Fig. 7 scalability metric).
Result<PhaseResult> RunMdtestCreateOnly(const MountFactory& mounts,
                                        const MdtestConfig& config);

}  // namespace arkfs::workloads
