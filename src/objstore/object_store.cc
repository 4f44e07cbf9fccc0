#include "objstore/object_store.h"

namespace arkfs {

Status ObjectStore::PutIf(const std::string& key, ByteSpan /*data*/,
                          const WriteGuard& /*guard*/) {
  return ErrStatus(Errc::kNotSup, "store has no guarded writes: " + key);
}

Status ObjectStore::PutRangeIf(const std::string& key, std::uint64_t /*offset*/,
                               ByteSpan /*data*/, const WriteGuard& /*guard*/) {
  return ErrStatus(Errc::kNotSup, "store has no guarded writes: " + key);
}

Status ObjectStore::DeleteIf(const std::string& key,
                             const WriteGuard& /*guard*/) {
  return ErrStatus(Errc::kNotSup, "store has no guarded writes: " + key);
}

}  // namespace arkfs
