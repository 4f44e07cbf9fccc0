// RetryingStore — transparent retry/backoff decorator for blocking paths.
//
// Wraps any ObjectStore and rides out transient faults (kIo/kTimedOut/
// kAgain) with the shared retry engine (retry.h): exponential backoff with
// decorrelated jitter, a per-op attempt cap, and a per-op deadline. Every
// primitive it retries is idempotent under this repo's REST contract (see
// retry.h), so a retried op is always safe — including re-driving a torn
// whole-object Put, which a full rewrite repairs.
//
// Composition order matters: RetryingStore(ChaosStore(backend)) gives a
// flaky backend with a tolerant client. It is the one retry mechanism for
// store calls: AsyncObjectIo's batches run over the same stack, so each of
// their primitives is retried here, one op at a time.
#pragma once

#include <atomic>

#include "objstore/retry.h"
#include "objstore/store_decorator.h"

namespace arkfs {

class RetryingStore : public StoreDecorator {
 public:
  RetryingStore(ObjectStorePtr base, RetryPolicy policy,
                obs::MetricsRegistry* registry = nullptr)
      : StoreDecorator(std::move(base)), policy_(policy) {
    counters_.Attach(registry, "objstore.retry");
  }

  Result<Bytes> Get(const std::string& key) override;
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override;
  Status Put(const std::string& key, ByteSpan data) override;
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override;
  // Retrying a guarded write is safe: a journal append leaves the header it
  // is guarded on alone, so its retry matches again; a fence restamp that
  // already landed makes its retry miss, and FenceDir then reads back its
  // own token.
  Status PutIf(const std::string& key, ByteSpan data,
               const WriteGuard& guard) override;
  Status PutRangeIf(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard& guard) override;
  Status Delete(const std::string& key) override;
  Status DeleteIf(const std::string& key, const WriteGuard& guard) override;
  Result<ObjectMeta> Head(const std::string& key) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;

  std::string name() const override { return "retrying/" + base()->name(); }

 private:
  template <typename Fn>
  auto Call(Fn&& fn) -> decltype(fn()) {
    const std::uint64_t salt =
        salt_.fetch_add(1, std::memory_order_relaxed) + 1;
    return RetryCall(policy_, salt, &counters_, RetryDeadlineFor(policy_),
                     std::forward<Fn>(fn));
  }

  const RetryPolicy policy_;
  RetryCounters counters_;
  std::atomic<std::uint64_t> salt_{0};
};

}  // namespace arkfs
