#include "objstore/retrying_store.h"

namespace arkfs {

Result<Bytes> RetryingStore::Get(const std::string& key) {
  return Call([&] { return base()->Get(key); });
}

Result<Bytes> RetryingStore::GetRange(const std::string& key,
                                      std::uint64_t offset,
                                      std::uint64_t length) {
  return Call([&] { return base()->GetRange(key, offset, length); });
}

Status RetryingStore::Put(const std::string& key, ByteSpan data) {
  return Call([&] { return base()->Put(key, data); });
}

Status RetryingStore::PutRange(const std::string& key, std::uint64_t offset,
                               ByteSpan data) {
  return Call([&] { return base()->PutRange(key, offset, data); });
}

Status RetryingStore::PutIf(const std::string& key, ByteSpan data,
                            const WriteGuard& guard) {
  return Call([&] { return base()->PutIf(key, data, guard); });
}

Status RetryingStore::PutRangeIf(const std::string& key, std::uint64_t offset,
                                 ByteSpan data, const WriteGuard& guard) {
  return Call([&] { return base()->PutRangeIf(key, offset, data, guard); });
}

Status RetryingStore::Delete(const std::string& key) {
  return Call([&] { return base()->Delete(key); });
}

Status RetryingStore::DeleteIf(const std::string& key,
                               const WriteGuard& guard) {
  return Call([&] { return base()->DeleteIf(key, guard); });
}

Result<ObjectMeta> RetryingStore::Head(const std::string& key) {
  return Call([&] { return base()->Head(key); });
}

Result<std::vector<std::string>> RetryingStore::List(
    const std::string& prefix) {
  return Call([&] { return base()->List(prefix); });
}

}  // namespace arkfs
