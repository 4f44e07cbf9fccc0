// InstrumentedStore — the one observing ObjectStore decorator.
//
// Every call that passes through it is recorded three ways:
//  * op and payload-byte counters, exported as "objstore.counting.*"
//    (tests assert I/O amplification on them, e.g. "a 1-byte overwrite on
//    an S3-style store rewrites the whole chunk");
//  * a per-op latency histogram, exported as "objstore.<op>"
//    (objstore.get.p99, ...) for the benches' p50/p95/p99 tables;
//  * an "objstore.<op>" trace span, so a request traced from the Vfs entry
//    point shows its store round trips as children of the layer that issued
//    them. With no trace active on the calling thread the span is a no-op.
//
// StackBuilder puts exactly one on top of every stack it builds; per-
// instance accessors (Snapshot(), latencies()) read the same cells the
// registry exports.
#pragma once

#include "common/stats.h"
#include "obs/metrics.h"
#include "objstore/store_decorator.h"

namespace arkfs {

class InstrumentedStore : public StoreDecorator {
 public:
  // A null registry exports to obs::MetricsRegistry::Default().
  explicit InstrumentedStore(ObjectStorePtr base,
                             obs::MetricsRegistry* registry = nullptr);
  ~InstrumentedStore() override;

  struct Counters {
    std::uint64_t gets = 0;  // Get + GetRange
    std::uint64_t puts = 0;  // Put + PutRange, guarded or not
    std::uint64_t deletes = 0;
    std::uint64_t heads = 0;
    std::uint64_t lists = 0;
    std::uint64_t bytes_read = 0;     // payload of successful reads
    std::uint64_t bytes_written = 0;  // payload of attempted writes
  };

  Result<Bytes> Get(const std::string& key) override;
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override;
  Status Put(const std::string& key, ByteSpan data) override;
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override;
  // Guarded writes count and time as the put / putrange they are.
  Status PutIf(const std::string& key, ByteSpan data,
               const WriteGuard& guard) override;
  Status PutRangeIf(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard& guard) override;
  Status Delete(const std::string& key) override;
  // A guarded delete counts and times as the delete it is.
  Status DeleteIf(const std::string& key, const WriteGuard& guard) override;
  Result<ObjectMeta> Head(const std::string& key) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;

  std::string name() const override {
    return "instrumented/" + base()->name();
  }

  Counters Snapshot() const;
  const OpLatencySet& latencies() const { return latencies_; }
  // Zeroes the counters and the histograms.
  void Reset();

 private:
  enum Op : int { kGet, kGetRange, kPut, kPutRange, kDelete, kHead, kList };
  // Runs `call` under the op's span and records its latency.
  template <typename Fn>
  auto Observe(Op op, Fn&& call);

  obs::Counter gets_, puts_, deletes_, heads_, lists_, bytes_read_,
      bytes_written_;
  OpLatencySet latencies_;
  obs::MetricsRegistry* registry_;
};

}  // namespace arkfs
