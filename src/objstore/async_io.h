// Async batched object I/O (the latency-overlap substrate).
//
// Every store in this repo charges per-operation latency with blocking
// sleeps on independent per-node links, exactly like a real RADOS/S3 client
// stack blocks on the wire. A hot path that issues its object operations one
// blocking call at a time therefore pays N round trips for N independent
// objects; submitting them concurrently pays ~one. This layer is the single
// place that concurrency lives:
//
//  * MultiGet/MultiPut/MultiDelete batch helpers that fan out, join, and
//    aggregate errors (first-error status + per-key results),
//  * RunAll for compound per-item closures (read-modify-write chunks, cache
//    entry writebacks) that are not a single primitive op,
//  * Post for fire-and-forget background work (cache read-ahead, journal
//    checkpoints): the client's one executor, so no layer above keeps a
//    thread pool of its own.
//
// Scheduling is a bounded worker pool plus *caller participation*: a batch
// submitter claims and executes its own not-yet-started operations while
// joining. That makes batches deadlock-free under arbitrary nesting (a
// compound task running on a worker may itself issue a batch) and means a
// batch degrades to the plain serial path when the pool is saturated —
// never slower than the code it replaced.
//
// An in-flight cap bounds how many primitive store operations run
// concurrently across the whole layer (a real client bounds its outstanding
// ops the same way); compound closures are not gated themselves — the
// primitives they issue are.
//
// A one-element batch has nothing to overlap, so it runs inline on the
// calling thread: no queue hop, no in-flight slot, and no asyncio.* count.
// Callers therefore never special-case a single op; they always batch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "objstore/object_store.h"

namespace arkfs {

struct AsyncIoConfig {
  int workers = 8;                 // worker threads executing submissions
  std::size_t max_in_flight = 64;  // cap on concurrently running primitives
  // Where this layer's "asyncio.*" metric cells attach; null = process
  // default registry.
  obs::MetricsRegistry* metrics = nullptr;

  static AsyncIoConfig ForTests() {
    AsyncIoConfig c;
    c.workers = 4;
    c.max_in_flight = 8;
    return c;
  }
};

// One element of a MultiGet. `ranged` selects GetRange(offset, length).
struct BatchGet {
  std::string key;
  bool ranged = false;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

// One element of a MultiPut. `ranged` selects PutRange(offset). The span
// must stay valid until the MultiPut call returns (it joins before
// returning, so pointing into a caller-owned buffer is fine and avoids a
// copy per chunk).
struct BatchPut {
  std::string key;
  ByteSpan data;
  bool ranged = false;
  std::uint64_t offset = 0;
};

struct MultiGetResult {
  Status status;  // first per-key error, kOk if none
  std::vector<Result<Bytes>> results;

  // First error ignoring kNoEnt (callers with hole semantics).
  Status FirstErrorIgnoringNoEnt() const;
};

struct MultiOpResult {
  Status status;  // first per-key error, kOk if none
  std::vector<Status> results;

  Status FirstErrorIgnoringNoEnt() const;
};

class AsyncObjectIo {
 public:
  explicit AsyncObjectIo(ObjectStorePtr store, AsyncIoConfig config = {});
  ~AsyncObjectIo();

  AsyncObjectIo(const AsyncObjectIo&) = delete;
  AsyncObjectIo& operator=(const AsyncObjectIo&) = delete;

  // --- batch helpers: fan out, join, aggregate ---
  MultiGetResult MultiGet(std::vector<BatchGet> gets);
  MultiOpResult MultiPut(std::vector<BatchPut> puts);
  MultiOpResult MultiDelete(std::vector<std::string> keys);
  // Runs compound closures concurrently (each may itself issue batches on
  // this layer); returns the first error. The closures are not gated by
  // the in-flight cap; the primitives they issue are.
  Status RunAll(std::vector<std::function<Status()>> tasks);
  // Runs `task` on a worker and returns at once; the poster tracks its
  // completion. Like a RunAll closure it is not gated, and it runs under
  // the poster's trace. It counts in no asyncio.* cell: only the batches it
  // issues do (and those join by caller participation, so a posted task
  // that batches cannot starve the pool). Once the layer is shutting down
  // the task runs inline.
  void Post(std::function<void()> task);

  const AsyncIoConfig& config() const { return config_; }
  ObjectStore& store() { return *store_; }

 private:
  // Join state for one batch: completion count and summed busy time.
  struct Batch {
    explicit Batch(std::size_t n) : remaining(n) {}
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining;
    Nanos busy{0};
  };

  struct Op {
    std::function<void()> body;
    std::shared_ptr<Batch> batch;  // null for a posted task
    std::atomic<bool> claimed{false};
    bool gated = true;  // primitive store op: counts against max_in_flight
    // Submitter's trace, re-installed around body() so ops executed by pool
    // workers still land in the originating request's trace.
    obs::ActiveTrace trace;
  };
  using OpPtr = std::shared_ptr<Op>;

  // Runs every body — one inline, more overlapped through the pool — and
  // returns once all have finished. `gated` bodies count against
  // max_in_flight.
  void RunBatch(std::vector<std::function<void()>>& bodies, bool gated);
  void WorkerMain();
  void Execute(const OpPtr& op);
  void Enqueue(const OpPtr& op);
  // Claims + runs the batch's unstarted ops in the calling thread, then
  // waits for the worker-claimed remainder.
  void JoinBatch(const std::shared_ptr<Batch>& batch, std::vector<OpPtr>& ops,
                 TimePoint start);
  void AcquireSlot();
  void ReleaseSlot();

  const AsyncIoConfig config_;
  ObjectStorePtr store_;

  MpmcQueue<OpPtr> queue_;
  std::vector<std::thread> workers_;

  std::mutex slot_mu_;
  std::condition_variable slot_cv_;
  std::size_t in_flight_ = 0;

  // "asyncio.*" metric cells: ops entered, batches joined, ops the
  // submitting thread helped execute, high-water concurrent gated
  // primitives, and the wall time batching hid vs. the serial path.
  obs::Counter ops_submitted_;
  obs::Counter batches_;
  obs::Counter helper_runs_;
  obs::Gauge peak_in_flight_;
  obs::Counter overlap_saved_nanos_;
};

using AsyncObjectIoPtr = std::shared_ptr<AsyncObjectIo>;

}  // namespace arkfs
