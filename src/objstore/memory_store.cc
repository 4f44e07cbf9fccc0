#include "objstore/memory_store.h"

#include <algorithm>
#include <cstring>

#include "common/clock.h"

namespace arkfs {

Result<Bytes> MemoryObjectStore::Get(const std::string& key) {
  std::lock_guard lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return ErrStatus(Errc::kNoEnt, key);
  return it->second.data;
}

Result<Bytes> MemoryObjectStore::GetRange(const std::string& key,
                                          std::uint64_t offset,
                                          std::uint64_t length) {
  std::lock_guard lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return ErrStatus(Errc::kNoEnt, key);
  const Bytes& data = it->second.data;
  if (offset >= data.size()) return Bytes{};
  const std::uint64_t n = std::min<std::uint64_t>(length, data.size() - offset);
  return Bytes(data.begin() + offset, data.begin() + offset + n);
}

Status MemoryObjectStore::Put(const std::string& key, ByteSpan data) {
  return DoPut(key, data, nullptr);
}

Status MemoryObjectStore::PutRange(const std::string& key,
                                   std::uint64_t offset, ByteSpan data) {
  return DoPutRange(key, offset, data, nullptr);
}

Status MemoryObjectStore::PutIf(const std::string& key, ByteSpan data,
                                const WriteGuard& guard) {
  return DoPut(key, data, &guard);
}

Status MemoryObjectStore::PutRangeIf(const std::string& key,
                                     std::uint64_t offset, ByteSpan data,
                                     const WriteGuard& guard) {
  return DoPutRange(key, offset, data, &guard);
}

Status MemoryObjectStore::CheckGuardLocked(const std::string& key,
                                           const WriteGuard* guard) const {
  if (guard == nullptr) return Status::Ok();
  auto it = objects_.find(key);
  if (!guard->Holds(it == objects_.end()
                        ? std::nullopt
                        : std::optional<ByteSpan>(it->second.data))) {
    return ErrStatus(Errc::kStale, "write guard mismatch: " + key);
  }
  return Status::Ok();
}

Status MemoryObjectStore::DoPut(const std::string& key, ByteSpan data,
                                const WriteGuard* guard) {
  if (data.size() > max_object_size_) {
    return ErrStatus(Errc::kFBig, "object exceeds max object size");
  }
  std::lock_guard lock(mu_);
  ARKFS_RETURN_IF_ERROR(CheckGuardLocked(key, guard));
  auto& entry = objects_[key];
  entry.data.assign(data.begin(), data.end());
  entry.mtime_sec = WallClockSeconds();
  return Status::Ok();
}

Status MemoryObjectStore::DoPutRange(const std::string& key,
                                     std::uint64_t offset, ByteSpan data,
                                     const WriteGuard* guard) {
  if (!partial_writes_) {
    return ErrStatus(Errc::kNotSup, "store does not support partial writes");
  }
  if (offset + data.size() > max_object_size_) {
    return ErrStatus(Errc::kFBig, "range write exceeds max object size");
  }
  std::lock_guard lock(mu_);
  ARKFS_RETURN_IF_ERROR(CheckGuardLocked(key, guard));
  auto& entry = objects_[key];  // creates if missing, like a RADOS write
  if (entry.data.size() < offset + data.size()) {
    entry.data.resize(offset + data.size(), 0);
  }
  std::memcpy(entry.data.data() + offset, data.data(), data.size());
  entry.mtime_sec = WallClockSeconds();
  return Status::Ok();
}

Status MemoryObjectStore::Delete(const std::string& key) {
  std::lock_guard lock(mu_);
  if (objects_.erase(key) == 0) return ErrStatus(Errc::kNoEnt, key);
  return Status::Ok();
}

Status MemoryObjectStore::DeleteIf(const std::string& key,
                                   const WriteGuard& guard) {
  std::lock_guard lock(mu_);
  if (objects_.count(key) == 0) return ErrStatus(Errc::kNoEnt, key);
  ARKFS_RETURN_IF_ERROR(CheckGuardLocked(key, &guard));
  objects_.erase(key);
  return Status::Ok();
}

Result<ObjectMeta> MemoryObjectStore::Head(const std::string& key) {
  std::lock_guard lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) return ErrStatus(Errc::kNoEnt, key);
  return ObjectMeta{it->second.data.size(), it->second.mtime_sec};
}

Result<std::vector<std::string>> MemoryObjectStore::List(
    const std::string& prefix) {
  std::lock_guard lock(mu_);
  std::vector<std::string> keys;
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    keys.push_back(it->first);
  }
  return keys;
}

std::size_t MemoryObjectStore::ObjectCount() const {
  std::lock_guard lock(mu_);
  return objects_.size();
}

std::uint64_t MemoryObjectStore::TotalBytes() const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [_, e] : objects_) total += e.data.size();
  return total;
}

}  // namespace arkfs
