// Client-side stub for the lease protocol.
//
// Thin typed wrapper over the RPC fabric. Retry policy lives here so every
// caller behaves the same:
//  * kWait answers (directory recovering / manager quiet period) get a
//    bounded exponential-ish backoff up to `wait_budget`, then kBusy.
//  * Transport failures (manager crashed, partitioned, dropped packet) and
//    standby redirects are handled inside CallManager: one sweep over the
//    configured manager-address list following redirect hints, wrapped in
//    the shared RetryPolicy engine (decorrelated jitter, attempt cap,
//    deadline) — one dropped packet no longer fails a mount, and failover
//    to a standby replica is transparent.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "common/fence.h"
#include "lease/wire.h"
#include "objstore/retry.h"
#include "rpc/fabric.h"

namespace arkfs::lease {

class LeaseClient {
 public:
  struct Options {
    // How long to keep retrying a kWait answer before giving up.
    Nanos wait_budget{Seconds(30)};
    Nanos initial_backoff{Millis(10)};
    // Every lease-manager replica address. Empty = the canonical single
    // manager at kManagerAddress.
    std::vector<std::string> managers;
    // Transport-level retry for manager RPCs (per logical call, spanning
    // address sweeps). The deadline bounds how long a manager outage can
    // stall one lease operation.
    RetryPolicy rpc_retry = DefaultRpcRetry();

    static RetryPolicy DefaultRpcRetry() {
      RetryPolicy p;
      p.max_attempts = 6;
      p.initial_backoff = Millis(2);
      p.max_backoff = Millis(100);
      p.deadline = Seconds(2);
      return p;
    }
  };

  LeaseClient(rpc::FabricPtr fabric, std::string self_address,
              Options options)
      : fabric_(std::move(fabric)),
        self_(std::move(self_address)),
        options_(std::move(options)) {
    if (options_.managers.empty()) options_.managers = {kManagerAddress};
  }

  LeaseClient(rpc::FabricPtr fabric, std::string self_address)
      : LeaseClient(std::move(fabric), std::move(self_address), Options()) {}

  struct Grant {
    bool fresh = false;
    TimePoint until{};
    std::string prev_leader;  // non-empty: flush handshake target
    FenceToken token;         // fencing token for journal commits
    // Manager's view of the directory's journal watermark (what delegates
    // are being told). Leaders renew with their current watermark, so on a
    // renewal this echoes the reported value back.
    std::uint64_t watermark = 0;
  };

  // Per-call extras carried in the AcquireRequest (read delegations).
  struct AcquireOptions {
    // Non-leader asking for a read delegation alongside the redirect.
    bool want_delegation = false;
    // Leader renewals: the directory's current journal watermark, so the
    // manager can stamp it into delegations it hands out.
    std::uint64_t watermark = 0;
  };

  // A read delegation granted alongside a redirect: permission to serve
  // stat/lookup/readdir from a cached metatable slice no older than
  // `watermark`, valid only while the leader's tenure keeps the redirect's
  // token and only until `until` (one lease term past the watermark report
  // it rests on).
  struct Delegation {
    std::uint64_t watermark = 0;
    TimePoint until{};
  };

  // Someone else leads the directory. `token` and `until` are the live
  // lease's fencing token and expiry: until then `leader` serves the
  // directory under that tenure, so a caller may route to it without asking
  // again. `deleg` is set when a read delegation was asked for and granted.
  struct Redirect {
    std::string leader;
    FenceToken token;
    TimePoint until{};
    std::optional<Delegation> deleg;
  };

  // What the manager answered: this client leads (Grant), or another one
  // does (Redirect).
  using Answer = std::variant<Grant, Redirect>;

  // Acquire (or extend) the lease on dir_ino.
  //   ok        -> a Grant (caller is leader) or a Redirect
  //   kTimedOut -> no manager reachable within the rpc_retry budget
  //   kBusy     -> wait budget exhausted (recovery/quiet period)
  Result<Answer> Acquire(const Uuid& dir_ino) {
    return Acquire(dir_ino, AcquireOptions{});
  }
  Result<Answer> Acquire(const Uuid& dir_ino, const AcquireOptions& opts);

  // `token` is the grant's fencing token; the manager ignores a release
  // whose token does not match the live lease (late release from a deposed
  // leader).
  Status Release(const Uuid& dir_ino, const FenceToken& token);
  Status BeginRecovery(const Uuid& dir_ino);
  Status EndRecovery(const Uuid& dir_ino);

  const std::string& self_address() const { return self_; }

 private:
  // One logical manager RPC: sweeps the address list starting at the last
  // known-good replica, follows standby redirect hints, and retries the
  // whole sweep under options_.rpc_retry.
  Result<Bytes> CallManager(const std::string& method, const Bytes& payload);
  Result<Bytes> SweepManagers(const std::string& method, const Bytes& payload);

  rpc::FabricPtr fabric_;
  std::string self_;
  Options options_;
  // Index into options_.managers of the replica that last answered; sweeps
  // start there so steady state costs one RPC.
  std::atomic<std::size_t> preferred_{0};
  std::atomic<std::uint64_t> call_salt_{0};
};

// The grant or the redirect an Acquire answered with; nullopt when it
// answered the other one or failed.
inline std::optional<LeaseClient::Grant> GrantOf(
    const Result<LeaseClient::Answer>& answer) {
  if (!answer.ok()) return std::nullopt;
  const auto* grant = std::get_if<LeaseClient::Grant>(&*answer);
  return grant ? std::optional(*grant) : std::nullopt;
}
inline std::optional<LeaseClient::Redirect> RedirectOf(
    const Result<LeaseClient::Answer>& answer) {
  if (!answer.ok()) return std::nullopt;
  const auto* redirect = std::get_if<LeaseClient::Redirect>(&*answer);
  return redirect ? std::optional(*redirect) : std::nullopt;
}

}  // namespace arkfs::lease
