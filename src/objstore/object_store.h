// ObjectStore: the REST-shaped storage interface ArkFS is built on.
//
// The paper's PRT module translates POSIX block I/O into REST object
// operations (GET / PUT / DELETE / LIST / HEAD) against "any distributed
// object storage system such as Ceph RADOS or S3" (§III-F). This interface
// is that contract. Two capability bits matter to the layers above:
//
//  * supports_partial_write — RADOS can overwrite a byte range in place;
//    S3-style stores can only replace whole objects, which forces a
//    read-modify-write in the translator (the same amplification that makes
//    S3FS rewrite entire objects on random writes, §II-C).
//  * max_object_size — files larger than this are chunked into multiple
//    data objects by the PRT.
//
// Guarded writes (PutIf / PutRangeIf) land only if the object's current
// bytes still match what the writer expects (see WriteGuard), and a guarded
// delete (DeleteIf) removes an object only on the same condition. The
// journal fences every write to a directory's journal object this way, so a
// split-brain leader is refused by the store inside its one write instead
// of by separate check round trips around it; tier migrations guard every
// pointer flip and sweep the same way, so a writer in another process is
// never overwritten or swept. Every backend here makes the check and the
// write one step for all writers of its objects; the disk store does so
// across processes with a lock file in its directory.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace arkfs {

struct ObjectMeta {
  std::uint64_t size = 0;
  std::int64_t mtime_sec = 0;
};

// Compare-extent write guard: the write applies only if the object exists
// and its bytes at [offset, offset + expected.size()) equal `expected`;
// with `whole` set the object must also end there, i.e. be exactly what the
// writer read. A create-only guard (`absent`, see Absent()) instead applies
// only while no object exists under the key. Anything else is a mismatch:
// the store writes nothing and returns kStale. The check and the write are
// one atomic step at the store.
//
// Real backends carry the same primitive: a RADOS compound write op with a
// leading `cmpext` (plus a size assert for `whole`, an exclusive create for
// `absent`), or an S3 conditional PUT with `If-Match` on the ETag of the
// object as read (`If-None-Match: *` for `absent`). DeleteIf is the same
// compound op ending in `remove`, or an S3 DeleteObject with `If-Match`.
struct WriteGuard {
  std::uint64_t offset = 0;
  ByteSpan expected;
  bool whole = false;
  bool absent = false;

  static WriteGuard Absent() { return {0, {}, false, true}; }

  // How many leading bytes of the object Holds needs to see: a prefix of
  // at least this length (or the whole object, if shorter) decides it.
  std::uint64_t extent() const {
    return offset + expected.size() + (whole ? 1 : 0);
  }

  // True if the object passes the guard; nullopt means there is none.
  bool Holds(std::optional<ByteSpan> object) const {
    if (!object || absent) return !object && absent;
    const std::uint64_t end = offset + expected.size();
    if (object->size() < end || (whole && object->size() != end)) return false;
    return std::equal(expected.begin(), expected.end(),
                      object->begin() + static_cast<std::ptrdiff_t>(offset));
  }
};

class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  // Full-object GET.
  virtual Result<Bytes> Get(const std::string& key) = 0;

  // Ranged GET. offset past EOF yields an empty buffer; a range extending
  // past EOF is truncated (REST Range semantics).
  virtual Result<Bytes> GetRange(const std::string& key, std::uint64_t offset,
                                 std::uint64_t length) = 0;

  // Whole-object PUT (create or replace).
  virtual Status Put(const std::string& key, ByteSpan data) = 0;

  // In-place ranged write, extending the object if needed. Only stores with
  // supports_partial_write() implement this; others return kNotSup and the
  // caller must read-modify-write.
  virtual Status PutRange(const std::string& key, std::uint64_t offset,
                          ByteSpan data) = 0;

  // Guarded Put / PutRange: as above, but only if `guard` holds against
  // the object's current bytes (kStale, nothing written, otherwise). The
  // default returns kNotSup, so a store that does not understand the guard
  // fails safe instead of writing unconditionally.
  virtual Status PutIf(const std::string& key, ByteSpan data,
                       const WriteGuard& guard);
  virtual Status PutRangeIf(const std::string& key, std::uint64_t offset,
                            ByteSpan data, const WriteGuard& guard);

  virtual Status Delete(const std::string& key) = 0;

  // Guarded Delete: removes the object only if `guard` holds against its
  // current bytes (kStale, nothing removed, otherwise). An absent object is
  // kNoEnt, as for Delete, whatever the guard. Default: kNotSup.
  virtual Status DeleteIf(const std::string& key, const WriteGuard& guard);

  virtual Result<ObjectMeta> Head(const std::string& key) = 0;

  // Keys with the given prefix, sorted ascending.
  virtual Result<std::vector<std::string>> List(const std::string& prefix) = 0;

  virtual bool supports_partial_write() const = 0;
  virtual std::uint64_t max_object_size() const = 0;
  virtual std::string name() const = 0;
};

using ObjectStorePtr = std::shared_ptr<ObjectStore>;

// Default chunk size for data objects (also the default max object size of
// the in-process stores). RADOS defaults to 4 MiB objects; we keep that.
inline constexpr std::uint64_t kDefaultMaxObjectSize = 4ull << 20;

}  // namespace arkfs
