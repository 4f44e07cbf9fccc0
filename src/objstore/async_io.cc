#include "objstore/async_io.h"

#include <algorithm>

namespace arkfs {

namespace {

Status FirstError(const std::vector<Status>& results, bool ignore_noent) {
  for (const auto& st : results) {
    if (st.ok()) continue;
    if (ignore_noent && st.code() == Errc::kNoEnt) continue;
    return st;
  }
  return Status::Ok();
}

}  // namespace

Status MultiGetResult::FirstErrorIgnoringNoEnt() const {
  for (const auto& r : results) {
    if (r.ok() || r.code() == Errc::kNoEnt) continue;
    return r.status();
  }
  return Status::Ok();
}

Status MultiOpResult::FirstErrorIgnoringNoEnt() const {
  return FirstError(results, /*ignore_noent=*/true);
}

AsyncObjectIo::AsyncObjectIo(ObjectStorePtr store, AsyncIoConfig config)
    : config_([&] {
        AsyncIoConfig c = config;
        c.workers = std::max(c.workers, 1);
        c.max_in_flight = std::max<std::size_t>(c.max_in_flight, 1);
        return c;
      }()),
      store_(std::move(store)) {
  ops_submitted_.Attach(config_.metrics, "asyncio.ops_submitted");
  batches_.Attach(config_.metrics, "asyncio.batches");
  helper_runs_.Attach(config_.metrics, "asyncio.helper_runs");
  peak_in_flight_.Attach(config_.metrics, "asyncio.peak_in_flight");
  overlap_saved_nanos_.Attach(config_.metrics, "asyncio.overlap_saved_ns");
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

AsyncObjectIo::~AsyncObjectIo() {
  queue_.Close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void AsyncObjectIo::WorkerMain() {
  while (auto op = queue_.Pop()) {
    if ((*op)->claimed.exchange(true)) continue;  // batch owner got it first
    Execute(*op);
  }
}

void AsyncObjectIo::AcquireSlot() {
  std::unique_lock lock(slot_mu_);
  slot_cv_.wait(lock, [&] { return in_flight_ < config_.max_in_flight; });
  ++in_flight_;
  peak_in_flight_.UpdateMax(in_flight_);
}

void AsyncObjectIo::ReleaseSlot() {
  {
    std::lock_guard lock(slot_mu_);
    --in_flight_;
  }
  slot_cv_.notify_one();
}

void AsyncObjectIo::Execute(const OpPtr& op) {
  if (op->gated) AcquireSlot();
  const TimePoint t0 = Now();
  {
    obs::TraceScope scope(op->trace.tracer, op->trace.ctx);
    op->body();
  }
  const Nanos busy = Now() - t0;
  if (op->gated) ReleaseSlot();
  bool last = false;
  {
    std::lock_guard lock(op->batch->mu);
    op->batch->busy += busy;
    last = --op->batch->remaining == 0;
  }
  if (last) op->batch->cv.notify_all();
}

void AsyncObjectIo::Enqueue(const OpPtr& op) {
  op->trace = obs::CaptureTrace();
  ops_submitted_.Add();
  if (!queue_.Push(op)) {
    // Shutting down: run inline so no submission is ever dropped.
    if (!op->claimed.exchange(true)) Execute(op);
  }
}

void AsyncObjectIo::JoinBatch(const std::shared_ptr<Batch>& batch,
                              std::vector<OpPtr>& ops, TimePoint start) {
  // Help with our own unstarted work instead of blocking: this keeps batches
  // deadlock-free under nesting and pool saturation.
  for (auto& op : ops) {
    if (!op->claimed.exchange(true)) {
      helper_runs_.Add();
      Execute(op);
    }
  }
  std::unique_lock lock(batch->mu);
  batch->cv.wait(lock, [&] { return batch->remaining == 0; });
  const Nanos wall = Now() - start;
  if (batch->busy > wall) {
    overlap_saved_nanos_.Add(
        static_cast<std::uint64_t>((batch->busy - wall).count()));
  }
  batches_.Add();
}

void AsyncObjectIo::RunBatch(std::vector<std::function<void()>>& bodies,
                             bool gated) {
  const std::size_t n = bodies.size();
  if (n == 0) return;
  if (n == 1) {
    bodies[0]();  // nothing to overlap: run it as a plain call
    return;
  }
  const TimePoint start = Now();
  auto batch = std::make_shared<Batch>(n);
  std::vector<OpPtr> ops(n);
  for (std::size_t i = 0; i < n; ++i) {
    ops[i] = std::make_shared<Op>();
    ops[i]->batch = batch;
    ops[i]->gated = gated;
    ops[i]->body = std::move(bodies[i]);
    Enqueue(ops[i]);
  }
  JoinBatch(batch, ops, start);
}

MultiGetResult AsyncObjectIo::MultiGet(std::vector<BatchGet> gets) {
  MultiGetResult out;
  const std::size_t n = gets.size();
  out.results.assign(n, Result<Bytes>(ErrStatus(Errc::kIo, "not executed")));
  std::vector<std::function<void()>> bodies(n);
  for (std::size_t i = 0; i < n; ++i) {
    bodies[i] = [this, &g = gets[i], slot = &out.results[i]] {
      *slot = g.ranged ? store_->GetRange(g.key, g.offset, g.length)
                       : store_->Get(g.key);
    };
  }
  RunBatch(bodies, /*gated=*/true);
  for (const auto& r : out.results) {
    if (!r.ok()) {
      out.status = r.status();
      break;
    }
  }
  return out;
}

MultiOpResult AsyncObjectIo::MultiPut(std::vector<BatchPut> puts) {
  MultiOpResult out;
  const std::size_t n = puts.size();
  out.results.assign(n, Status::Ok());
  std::vector<std::function<void()>> bodies(n);
  for (std::size_t i = 0; i < n; ++i) {
    bodies[i] = [this, &p = puts[i], slot = &out.results[i]] {
      *slot = p.ranged ? store_->PutRange(p.key, p.offset, p.data)
                       : store_->Put(p.key, p.data);
    };
  }
  RunBatch(bodies, /*gated=*/true);
  out.status = FirstError(out.results, /*ignore_noent=*/false);
  return out;
}

MultiOpResult AsyncObjectIo::MultiDelete(std::vector<std::string> keys) {
  MultiOpResult out;
  const std::size_t n = keys.size();
  out.results.assign(n, Status::Ok());
  std::vector<std::function<void()>> bodies(n);
  for (std::size_t i = 0; i < n; ++i) {
    bodies[i] = [this, &key = keys[i], slot = &out.results[i]] {
      *slot = store_->Delete(key);
    };
  }
  RunBatch(bodies, /*gated=*/true);
  out.status = FirstError(out.results, /*ignore_noent=*/false);
  return out;
}

Status AsyncObjectIo::RunAll(std::vector<std::function<Status()>> tasks) {
  const std::size_t n = tasks.size();
  std::vector<Status> results(n, Status::Ok());
  std::vector<std::function<void()>> bodies(n);
  for (std::size_t i = 0; i < n; ++i) {
    bodies[i] = [fn = &tasks[i], slot = &results[i]] { *slot = (*fn)(); };
  }
  // Compound closures are not gated: the primitives they issue gate
  // themselves.
  RunBatch(bodies, /*gated=*/false);
  return FirstError(results, /*ignore_noent=*/false);
}

}  // namespace arkfs
