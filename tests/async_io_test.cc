// Tests for the async batched object-I/O layer: batch correctness, error
// aggregation, partial-failure injection, the in-flight cap, nested batches
// (deadlock-freedom via caller participation), and concurrency stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "objstore/async_io.h"
#include "objstore/chaos_store.h"
#include "objstore/instrumented_store.h"
#include "objstore/memory_store.h"
#include "objstore/store_decorator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prt/translator.h"

namespace arkfs {
namespace {

Bytes MakeData(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i);
  }
  return b;
}

// Tracks how many primitive operations run inside the base store at once.
class ConcurrencyProbeStore : public ObjectStore {
 public:
  explicit ConcurrencyProbeStore(ObjectStorePtr base, Nanos dwell = Nanos(0))
      : base_(std::move(base)), dwell_(dwell) {}

  Result<Bytes> Get(const std::string& key) override {
    Scope s(this);
    return base_->Get(key);
  }
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override {
    Scope s(this);
    return base_->GetRange(key, offset, length);
  }
  Status Put(const std::string& key, ByteSpan data) override {
    Scope s(this);
    return base_->Put(key, data);
  }
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override {
    Scope s(this);
    return base_->PutRange(key, offset, data);
  }
  Status Delete(const std::string& key) override {
    Scope s(this);
    return base_->Delete(key);
  }
  Result<ObjectMeta> Head(const std::string& key) override {
    Scope s(this);
    return base_->Head(key);
  }
  Result<std::vector<std::string>> List(const std::string& prefix) override {
    Scope s(this);
    return base_->List(prefix);
  }

  bool supports_partial_write() const override {
    return base_->supports_partial_write();
  }
  std::uint64_t max_object_size() const override {
    return base_->max_object_size();
  }
  std::string name() const override { return "probe/" + base_->name(); }

  std::size_t peak() const { return peak_.load(); }

 private:
  struct Scope {
    explicit Scope(ConcurrencyProbeStore* s) : store(s) {
      const std::size_t cur = ++store->current_;
      std::size_t prev = store->peak_.load();
      while (cur > prev && !store->peak_.compare_exchange_weak(prev, cur)) {
      }
      if (store->dwell_ > Nanos(0)) SleepFor(store->dwell_);
    }
    ~Scope() { --store->current_; }
    ConcurrencyProbeStore* store;
  };

  ObjectStorePtr base_;
  Nanos dwell_;
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
};

TEST(AsyncObjectIoTest, MultiGetReturnsPerKeyResults) {
  auto store = std::make_shared<MemoryObjectStore>();
  AsyncObjectIo io(store, AsyncIoConfig::ForTests());
  ASSERT_TRUE(store->Put("a", MakeData(10, 1)).ok());
  ASSERT_TRUE(store->Put("c", MakeData(20, 3)).ok());

  std::vector<BatchGet> gets(4);
  gets[0].key = "a";
  gets[1].key = "b";  // missing
  gets[2].key = "c";
  gets[3] = BatchGet{"c", /*ranged=*/true, /*offset=*/8, /*length=*/4};
  auto r = io.MultiGet(std::move(gets));

  EXPECT_EQ(r.status.code(), Errc::kNoEnt);  // first error surfaces
  ASSERT_EQ(r.results.size(), 4u);
  ASSERT_TRUE(r.results[0].ok());
  EXPECT_EQ(*r.results[0], MakeData(10, 1));
  EXPECT_EQ(r.results[1].code(), Errc::kNoEnt);
  ASSERT_TRUE(r.results[2].ok());
  EXPECT_EQ(*r.results[2], MakeData(20, 3));
  ASSERT_TRUE(r.results[3].ok());
  const Bytes whole = MakeData(20, 3);
  EXPECT_EQ(*r.results[3], Bytes(whole.begin() + 8, whole.begin() + 12));
  // Callers with hole semantics can ignore the kNoEnt.
  EXPECT_TRUE(r.FirstErrorIgnoringNoEnt().ok());
}

TEST(AsyncObjectIoTest, MultiPutThenMultiDelete) {
  auto store = std::make_shared<MemoryObjectStore>();
  AsyncObjectIo io(store, AsyncIoConfig::ForTests());

  std::vector<Bytes> bufs;
  std::vector<BatchPut> puts;
  for (int i = 0; i < 16; ++i) {
    bufs.push_back(MakeData(128, static_cast<std::uint8_t>(i)));
    BatchPut p;
    p.key = "k" + std::to_string(i);
    p.data = bufs.back();
    puts.push_back(std::move(p));
  }
  auto pr = io.MultiPut(std::move(puts));
  EXPECT_TRUE(pr.status.ok());
  for (int i = 0; i < 16; ++i) {
    auto got = store->Get("k" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, MakeData(128, static_cast<std::uint8_t>(i)));
  }

  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) keys.push_back("k" + std::to_string(i));
  keys.push_back("never-existed");
  auto dr = io.MultiDelete(std::move(keys));
  EXPECT_EQ(dr.status.code(), Errc::kNoEnt);
  EXPECT_TRUE(dr.FirstErrorIgnoringNoEnt().ok());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(store->Get("k" + std::to_string(i)).code(), Errc::kNoEnt);
  }
}

TEST(AsyncObjectIoTest, PartialBatchFailureIsAggregatedNotFatal) {
  auto base = std::make_shared<MemoryObjectStore>();
  // Every put whose key contains "poison" fails with kIo; the rest succeed.
  auto faulty = std::make_shared<ChaosStore>(
      base, ChaosConfig{}, [](std::string_view op, const std::string& key) {
        return op == "put" && key.find("poison") != std::string::npos
                   ? Errc::kIo
                   : Errc::kOk;
      });
  AsyncObjectIo io(faulty, AsyncIoConfig::ForTests());

  std::vector<Bytes> bufs;
  std::vector<BatchPut> puts;
  for (int i = 0; i < 12; ++i) {
    bufs.push_back(MakeData(32, static_cast<std::uint8_t>(i)));
    BatchPut p;
    p.key = (i % 3 == 1 ? "poison" : "good") + std::to_string(i);
    p.data = bufs.back();
    puts.push_back(std::move(p));
  }
  auto r = io.MultiPut(std::move(puts));

  // The batch reports the first error but still attempted every element.
  EXPECT_EQ(r.status.code(), Errc::kIo);
  ASSERT_EQ(r.results.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    if (i % 3 == 1) {
      EXPECT_EQ(r.results[i].code(), Errc::kIo) << i;
      EXPECT_EQ(base->Get("poison" + std::to_string(i)).code(), Errc::kNoEnt);
    } else {
      EXPECT_TRUE(r.results[i].ok()) << i;
      EXPECT_TRUE(base->Get("good" + std::to_string(i)).ok()) << i;
    }
  }
}

TEST(AsyncObjectIoTest, InFlightCapIsEnforced) {
  auto base = std::make_shared<MemoryObjectStore>();
  // Dwell inside each op long enough that violations would be observable.
  auto probe = std::make_shared<ConcurrencyProbeStore>(base, Micros(200));
  obs::MetricsRegistry registry;
  AsyncIoConfig cfg;
  cfg.workers = 8;
  cfg.max_in_flight = 3;
  cfg.metrics = &registry;
  AsyncObjectIo io(probe, cfg);

  std::vector<Bytes> bufs;
  std::vector<BatchPut> puts;
  for (int i = 0; i < 32; ++i) {
    bufs.push_back(MakeData(16, static_cast<std::uint8_t>(i)));
    BatchPut p;
    p.key = "k" + std::to_string(i);
    p.data = bufs.back();
    puts.push_back(std::move(p));
  }
  EXPECT_TRUE(io.MultiPut(std::move(puts)).status.ok());

  std::vector<BatchGet> gets(32);
  for (int i = 0; i < 32; ++i) gets[i].key = "k" + std::to_string(i);
  EXPECT_TRUE(io.MultiGet(std::move(gets)).status.ok());

  EXPECT_LE(probe->peak(), 3u);
  // Overlap actually happened: the registry's high-water gauge saw >= 2
  // concurrently running primitives.
  EXPECT_GE(registry.Snapshot().gauge("asyncio.peak_in_flight"), 2u);
}

TEST(AsyncObjectIoTest, NestedBatchesDoNotDeadlock) {
  auto store = std::make_shared<MemoryObjectStore>();
  // A deliberately starved pool: every RunAll closure issues its own batch,
  // so forward progress depends on caller participation.
  AsyncIoConfig cfg;
  cfg.workers = 1;
  cfg.max_in_flight = 2;
  AsyncObjectIo io(store, cfg);

  std::vector<std::function<Status()>> outer;
  for (int t = 0; t < 6; ++t) {
    outer.push_back([&io, t] {
      std::vector<Bytes> bufs;
      std::vector<BatchPut> puts;
      for (int i = 0; i < 4; ++i) {
        bufs.push_back(MakeData(8, static_cast<std::uint8_t>(t * 16 + i)));
        BatchPut p;
        p.key = "t" + std::to_string(t) + "-" + std::to_string(i);
        p.data = bufs.back();
        puts.push_back(std::move(p));
      }
      return io.MultiPut(std::move(puts)).status;
    });
  }
  EXPECT_TRUE(io.RunAll(std::move(outer)).ok());
  for (int t = 0; t < 6; ++t) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(
          store->Get("t" + std::to_string(t) + "-" + std::to_string(i)).ok());
    }
  }
}

TEST(AsyncObjectIoTest, ConcurrentSubmittersStress) {
  auto store = std::make_shared<MemoryObjectStore>();
  obs::MetricsRegistry registry;
  AsyncIoConfig cfg;
  cfg.workers = 4;
  cfg.max_in_flight = 8;
  cfg.metrics = &registry;
  AsyncObjectIo io(store, cfg);

  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Bytes> bufs;
        std::vector<BatchPut> puts;
        for (int i = 0; i < 4; ++i) {
          bufs.push_back(
              MakeData(64, static_cast<std::uint8_t>(t * 31 + round + i)));
          BatchPut p;
          p.key = "s" + std::to_string(t) + "-" + std::to_string(i);
          p.data = bufs.back();
          puts.push_back(std::move(p));
        }
        if (!io.MultiPut(std::move(puts)).status.ok()) ++failures;

        std::vector<BatchGet> gets(4);
        for (int i = 0; i < 4; ++i) {
          gets[i].key = "s" + std::to_string(t) + "-" + std::to_string(i);
        }
        auto r = io.MultiGet(std::move(gets));
        if (!r.status.ok()) ++failures;
        for (const auto& res : r.results) {
          if (!res.ok() || res->size() != 64) ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GE(snap.counter("asyncio.batches"),
            static_cast<std::uint64_t>(kThreads * kRounds * 2));
  EXPECT_GE(snap.counter("asyncio.ops_submitted"),
            static_cast<std::uint64_t>(kThreads * kRounds * 8));
}

// A latency-bound store that proves overlap: a Get returns only once at
// least `quorum` Gets have been inside it together (then it charges a 1 ms
// round trip). A Get still waiting after `timeout` fails kTimedOut, so a
// batch that runs its Gets one at a time can never succeed over it.
class RendezvousStore : public StoreDecorator {
 public:
  RendezvousStore(ObjectStorePtr base, std::size_t quorum, Nanos timeout)
      : StoreDecorator(std::move(base)), quorum_(quorum), timeout_(timeout) {}

  Result<Bytes> Get(const std::string& key) override {
    {
      std::unique_lock lock(mu_);
      if (++inside_ >= quorum_) met_ = true;
      cv_.notify_all();
      const bool met = cv_.wait_for(lock, timeout_, [&] { return met_; });
      --inside_;
      if (!met) return ErrStatus(Errc::kTimedOut, "Gets did not overlap");
    }
    SleepFor(Millis(1));
    return StoreDecorator::Get(key);
  }

 private:
  const std::size_t quorum_;
  const Nanos timeout_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t inside_ = 0;
  bool met_ = false;
};

TEST(AsyncObjectIoTest, OverlapSavingsOnLatencyBoundStore) {
  // A batch of N independent GETs must run them concurrently: the store
  // only answers once cfg.workers of them are in flight together.
  AsyncIoConfig cfg;
  cfg.workers = 8;
  cfg.max_in_flight = 16;
  auto store = std::make_shared<RendezvousStore>(
      std::make_shared<MemoryObjectStore>(),
      static_cast<std::size_t>(cfg.workers), Seconds(10));
  obs::MetricsRegistry registry;
  cfg.metrics = &registry;
  AsyncObjectIo io(store, cfg);

  constexpr int kOps = 16;
  std::vector<Bytes> bufs;
  std::vector<BatchPut> puts;
  for (int i = 0; i < kOps; ++i) {
    bufs.push_back(MakeData(4096, static_cast<std::uint8_t>(i)));
    BatchPut p;
    p.key = "k" + std::to_string(i);
    p.data = bufs.back();
    puts.push_back(std::move(p));
  }
  ASSERT_TRUE(io.MultiPut(std::move(puts)).status.ok());

  std::vector<BatchGet> gets(kOps);
  for (int i = 0; i < kOps; ++i) gets[i].key = "k" + std::to_string(i);
  auto r = io.MultiGet(std::move(gets));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(r.results[i].ok()) << i;
    EXPECT_EQ(*r.results[i], bufs[i]) << i;
  }
  EXPECT_GT(registry.Snapshot().counter("asyncio.overlap_saved_ns"), 0u);
}

TEST(AsyncObjectIoTest, RunAllAggregatesFirstError) {
  auto store = std::make_shared<MemoryObjectStore>();
  AsyncObjectIo io(store, AsyncIoConfig::ForTests());

  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&ran, i]() -> Status {
      ++ran;
      if (i == 3) return ErrStatus(Errc::kIo, "task 3 boom");
      return Status::Ok();
    });
  }
  Status st = io.RunAll(std::move(tasks));
  EXPECT_EQ(st.code(), Errc::kIo);
  EXPECT_EQ(ran.load(), 8);  // every task still ran
}

// Records the thread each Get runs on.
class ThreadRecordingStore : public StoreDecorator {
 public:
  using StoreDecorator::StoreDecorator;
  Result<Bytes> Get(const std::string& key) override {
    std::lock_guard lock(mu_);
    threads_.push_back(std::this_thread::get_id());
    return StoreDecorator::Get(key);
  }
  std::vector<std::thread::id> threads() {
    std::lock_guard lock(mu_);
    return threads_;
  }

 private:
  std::mutex mu_;
  std::vector<std::thread::id> threads_;
};

// A one-element batch has nothing to overlap: every helper runs it inline
// on the caller, with no queue hop and no asyncio.* count.
TEST(AsyncObjectIoTest, SingleOpBatchRunsOnTheCallingThread) {
  auto store = std::make_shared<ThreadRecordingStore>(
      std::make_shared<MemoryObjectStore>());
  obs::MetricsRegistry registry;
  AsyncIoConfig config = AsyncIoConfig::ForTests();
  config.metrics = &registry;
  AsyncObjectIo io(store, config);
  const auto caller = std::this_thread::get_id();

  std::vector<BatchPut> puts(1);
  puts[0].key = "one";
  const Bytes data = MakeData(16, 5);
  puts[0].data = data;
  ASSERT_TRUE(io.MultiPut(std::move(puts)).status.ok());
  std::vector<BatchGet> gets(1);
  gets[0].key = "one";
  auto got = io.MultiGet(std::move(gets));
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(*got.results[0], data);
  std::thread::id task_thread;
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([&task_thread] {
    task_thread = std::this_thread::get_id();
    return Status::Ok();
  });
  ASSERT_TRUE(io.RunAll(std::move(tasks)).ok());
  ASSERT_TRUE(io.MultiDelete({"one"}).status.ok());

  EXPECT_EQ(store->threads(), std::vector<std::thread::id>{caller});
  EXPECT_EQ(task_thread, caller);
  EXPECT_EQ(store->Get("one").code(), Errc::kNoEnt);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("asyncio.batches"), 0u);
  EXPECT_EQ(snap.counter("asyncio.ops_submitted"), 0u);
  EXPECT_EQ(snap.gauge("asyncio.peak_in_flight"), 0u);
}

// A posted task runs on a worker, not the poster, under the poster's trace,
// and counts in no asyncio.* cell.
TEST(AsyncObjectIoTest, PostRunsOnAWorkerUnderThePostersTrace) {
  auto recording = std::make_shared<ThreadRecordingStore>(
      std::make_shared<MemoryObjectStore>());
  ASSERT_TRUE(recording->Put("k", MakeData(8, 1)).ok());
  obs::MetricsRegistry registry;
  auto store = std::make_shared<InstrumentedStore>(recording, &registry);
  AsyncIoConfig config = AsyncIoConfig::ForTests();
  config.metrics = &registry;
  AsyncObjectIo io(store, config);
  obs::Tracer tracer;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::uint64_t trace_id = 0;
  {
    obs::RootSpan root(&tracer, "test.post");
    trace_id = root.trace_id();
    io.Post([&] {
      (void)io.store().Get("k");
      std::lock_guard lock(mu);
      done = true;
      cv.notify_all();
    });
  }
  {
    std::unique_lock lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, Seconds(10), [&] { return done; }));
  }

  const auto threads = recording->threads();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_NE(threads[0], std::this_thread::get_id());
  bool in_trace = false;
  for (const auto& span : tracer.Spans()) {
    if (span.name == "objstore.get" && span.trace_id == trace_id) {
      in_trace = true;
    }
  }
  EXPECT_TRUE(in_trace);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("asyncio.ops_submitted"), 0u);
  EXPECT_EQ(snap.counter("asyncio.batches"), 0u);
}

// Regression: on a whole-object backend a sub-chunk write is read-modify-
// write of the chunk; concurrent writers hitting disjoint ranges of the
// SAME chunk (exactly what a batched cache flush does when cache entries
// are smaller than the chunk) must not lose each other's updates.
TEST(AsyncObjectIoTest, ConcurrentRmwWritesToOneChunkDoNotLoseUpdates) {
  auto base = std::make_shared<MemoryObjectStore>(kDefaultMaxObjectSize,
                                                  /*partial=*/false);
  // The dwell widens the read→patch→put window so unsynchronized RMWs
  // would actually interleave and lose updates.
  auto store = std::make_shared<ConcurrencyProbeStore>(base, Micros(100));
  ASSERT_FALSE(store->supports_partial_write());
  Prt prt(store, /*chunk_size=*/0, AsyncIoConfig::ForTests());

  const Uuid ino = NewUuid();
  constexpr std::uint64_t kPiece = 4096;
  constexpr int kPieces = 16;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::function<Status()>> tasks;
    for (int p = 0; p < kPieces; ++p) {
      tasks.push_back([&prt, &ino, round, p]() -> Status {
        const Bytes piece(kPiece,
                          static_cast<std::uint8_t>(round * kPieces + p));
        return prt.WriteData(ino, static_cast<std::uint64_t>(p) * kPiece,
                             piece);
      });
    }
    ASSERT_TRUE(prt.async().RunAll(std::move(tasks)).ok());
    auto got = prt.ReadData(ino, 0, kPieces * kPiece, kPieces * kPiece);
    ASSERT_TRUE(got.ok());
    for (int p = 0; p < kPieces; ++p) {
      EXPECT_EQ((*got)[static_cast<std::size_t>(p) * kPiece],
                static_cast<std::uint8_t>(round * kPieces + p))
          << "round " << round << " piece " << p;
    }
  }
}

}  // namespace
}  // namespace arkfs
