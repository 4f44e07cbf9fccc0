// In-memory object store: the reference backend for tests and for the nodes
// of the simulated cluster store.
#pragma once

#include <map>
#include <mutex>

#include "objstore/object_store.h"

namespace arkfs {

class MemoryObjectStore : public ObjectStore {
 public:
  explicit MemoryObjectStore(std::uint64_t max_object_size = kDefaultMaxObjectSize,
                             bool partial_writes = true)
      : max_object_size_(max_object_size), partial_writes_(partial_writes) {}

  Result<Bytes> Get(const std::string& key) override;
  Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                         std::uint64_t length) override;
  Status Put(const std::string& key, ByteSpan data) override;
  Status PutRange(const std::string& key, std::uint64_t offset,
                  ByteSpan data) override;
  Status PutIf(const std::string& key, ByteSpan data,
               const WriteGuard& guard) override;
  Status PutRangeIf(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard& guard) override;
  Status Delete(const std::string& key) override;
  Status DeleteIf(const std::string& key, const WriteGuard& guard) override;
  Result<ObjectMeta> Head(const std::string& key) override;
  Result<std::vector<std::string>> List(const std::string& prefix) override;

  bool supports_partial_write() const override { return partial_writes_; }
  std::uint64_t max_object_size() const override { return max_object_size_; }
  std::string name() const override { return "memory"; }

  std::size_t ObjectCount() const;
  std::uint64_t TotalBytes() const;

 private:
  struct Entry {
    Bytes data;
    std::int64_t mtime_sec = 0;
  };

  // The write paths; a null guard writes unconditionally, a guard is
  // evaluated under mu_ together with the write.
  Status DoPut(const std::string& key, ByteSpan data, const WriteGuard* guard);
  Status DoPutRange(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard* guard);
  // kStale unless `guard` is null or holds against the stored object.
  Status CheckGuardLocked(const std::string& key,
                          const WriteGuard* guard) const;

  const std::uint64_t max_object_size_;
  const bool partial_writes_;
  mutable std::mutex mu_;
  // Ordered map so List(prefix) is a range scan, like a real key index.
  std::map<std::string, Entry> objects_;
};

}  // namespace arkfs
