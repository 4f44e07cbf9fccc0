// On-disk object store: one file per object under a root directory.
//
// This is the persistence backend — ArkFS file systems survive process
// restarts when mounted on it, and the crash-consistency tests use it to
// model durable storage across a simulated client crash. Keys are
// percent-free hex-encoded into file names so any byte sequence is a valid
// key.
#pragma once

#include <filesystem>
#include <mutex>

#include "objstore/object_store.h"

namespace arkfs {

class DiskObjectStore : public ObjectStore {
 public:
  // Creates `root` if it does not exist.
  static Result<std::shared_ptr<DiskObjectStore>> Open(
      const std::filesystem::path& root,
      std::uint64_t max_object_size = kDefaultMaxObjectSize);

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

  ~DiskObjectStore() override;

  bool supports_partial_write() const override { return true; }
  std::uint64_t max_object_size() const override { return max_object_size_; }
  std::string name() const override { return "disk"; }

 private:
  DiskObjectStore(std::filesystem::path root, std::uint64_t max_object_size,
                  int lock_fd)
      : root_(std::move(root)),
        max_object_size_(max_object_size),
        lock_fd_(lock_fd) {}

  // Held by every mutation: mu_ orders this store's threads, an exclusive
  // flock on the directory's lock file orders every other store open on
  // the same directory, in this process or another. So a guard check and
  // its write are one step for every writer of the image.
  class WriteLock {
   public:
    explicit WriteLock(DiskObjectStore& store);
    ~WriteLock();
    WriteLock(const WriteLock&) = delete;
    WriteLock& operator=(const WriteLock&) = delete;

   private:
    std::lock_guard<std::mutex> lock_;
    const int fd_;
  };

  // The write paths; a null guard writes unconditionally, a guard is
  // evaluated under the WriteLock together with the write.
  Status DoPut(const std::string& key, ByteSpan data, const WriteGuard* guard);
  Status DoPutRange(const std::string& key, std::uint64_t offset,
                    ByteSpan data, const WriteGuard* guard);
  // kStale unless `guard` is null or holds against the stored object.
  // WriteLock held, so no writer can slip between the check and the write.
  Status CheckGuardLocked(const std::string& key, const WriteGuard* guard);

  std::filesystem::path PathFor(const std::string& key) const;
  static std::string EncodeKey(const std::string& key);
  static Result<std::string> DecodeKey(const std::string& file_name);

  const std::filesystem::path root_;
  const std::uint64_t max_object_size_;
  const int lock_fd_;  // open on root_/.lock (not a key: odd-length name)
  std::mutex mu_;      // serializes multi-step file updates in-process
};

}  // namespace arkfs
