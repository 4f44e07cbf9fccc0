#include "objstore/instrumented_store.h"

#include "obs/trace.h"

namespace arkfs {

namespace {
// Indexed by InstrumentedStore::Op.
constexpr const char* kOpNames[] = {"get",    "getrange", "put", "putrange",
                                    "delete", "head",     "list"};
constexpr const char* kSpanNames[] = {
    "objstore.get",    "objstore.getrange", "objstore.put", "objstore.putrange",
    "objstore.delete", "objstore.head",     "objstore.list"};
}  // namespace

InstrumentedStore::InstrumentedStore(ObjectStorePtr base,
                                     obs::MetricsRegistry* registry)
    : StoreDecorator(std::move(base)),
      latencies_(std::vector<std::string>(std::begin(kOpNames),
                                          std::end(kOpNames))),
      registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Default()) {
  gets_.Attach(registry_, "objstore.counting.gets");
  puts_.Attach(registry_, "objstore.counting.puts");
  deletes_.Attach(registry_, "objstore.counting.deletes");
  heads_.Attach(registry_, "objstore.counting.heads");
  lists_.Attach(registry_, "objstore.counting.lists");
  bytes_read_.Attach(registry_, "objstore.counting.bytes_read");
  bytes_written_.Attach(registry_, "objstore.counting.bytes_written");
  registry_->RegisterHistograms("objstore", &latencies_);
}

InstrumentedStore::~InstrumentedStore() {
  registry_->UnregisterHistograms(&latencies_);
}

template <typename Fn>
auto InstrumentedStore::Observe(Op op, Fn&& call) {
  obs::Span span(kSpanNames[op]);
  const TimePoint start = Now();
  auto result = call();
  latencies_.Record(kOpNames[op],
                    std::chrono::duration_cast<Nanos>(Now() - start));
  return result;
}

Result<Bytes> InstrumentedStore::Get(const std::string& key) {
  gets_.Add();
  auto r = Observe(kGet, [&] { return base()->Get(key); });
  if (r.ok()) bytes_read_.Add(r->size());
  return r;
}

Result<Bytes> InstrumentedStore::GetRange(const std::string& key,
                                          std::uint64_t offset,
                                          std::uint64_t length) {
  gets_.Add();
  auto r = Observe(kGetRange,
                   [&] { return base()->GetRange(key, offset, length); });
  if (r.ok()) bytes_read_.Add(r->size());
  return r;
}

Status InstrumentedStore::Put(const std::string& key, ByteSpan data) {
  puts_.Add();
  bytes_written_.Add(data.size());
  return Observe(kPut, [&] { return base()->Put(key, data); });
}

Status InstrumentedStore::PutRange(const std::string& key,
                                   std::uint64_t offset, ByteSpan data) {
  puts_.Add();
  bytes_written_.Add(data.size());
  return Observe(kPutRange,
                 [&] { return base()->PutRange(key, offset, data); });
}

Status InstrumentedStore::PutIf(const std::string& key, ByteSpan data,
                                const WriteGuard& guard) {
  puts_.Add();
  bytes_written_.Add(data.size());
  return Observe(kPut, [&] { return base()->PutIf(key, data, guard); });
}

Status InstrumentedStore::PutRangeIf(const std::string& key,
                                     std::uint64_t offset, ByteSpan data,
                                     const WriteGuard& guard) {
  puts_.Add();
  bytes_written_.Add(data.size());
  return Observe(kPutRange, [&] {
    return base()->PutRangeIf(key, offset, data, guard);
  });
}

Status InstrumentedStore::Delete(const std::string& key) {
  deletes_.Add();
  return Observe(kDelete, [&] { return base()->Delete(key); });
}

Status InstrumentedStore::DeleteIf(const std::string& key,
                                   const WriteGuard& guard) {
  deletes_.Add();
  return Observe(kDelete, [&] { return base()->DeleteIf(key, guard); });
}

Result<ObjectMeta> InstrumentedStore::Head(const std::string& key) {
  heads_.Add();
  return Observe(kHead, [&] { return base()->Head(key); });
}

Result<std::vector<std::string>> InstrumentedStore::List(
    const std::string& prefix) {
  lists_.Add();
  return Observe(kList, [&] { return base()->List(prefix); });
}

InstrumentedStore::Counters InstrumentedStore::Snapshot() const {
  return Counters{gets_.value(),  puts_.value(),       deletes_.value(),
                  heads_.value(), lists_.value(),      bytes_read_.value(),
                  bytes_written_.value()};
}

void InstrumentedStore::Reset() {
  gets_.Reset();
  puts_.Reset();
  deletes_.Reset();
  heads_.Reset();
  lists_.Reset();
  bytes_read_.Reset();
  bytes_written_.Reset();
  latencies_.Reset();
}

}  // namespace arkfs
