// PRT — the POSIX-REST Translator (paper §III-F).
//
// Everything above this layer thinks in POSIX terms (inodes, dentry blocks,
// byte-addressed file data); everything below is REST object operations.
// The translator:
//
//  * serializes/deserializes metadata records to their schema keys,
//  * splits byte-addressed file I/O into fixed-size data chunks
//    ("The PRT module divides the file data into multiple objects if the
//    file size exceeds the maximum object size"),
//  * hides backend capability differences: on a store without partial
//    writes (S3-style), or for a chunk whose ranged write the store refuses,
//    a sub-chunk write becomes read-modify-write of the whole chunk — the
//    same amplification S3FS pays for random writes.
#pragma once

#include <array>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/fence.h"
#include "meta/dentry.h"
#include "meta/inode.h"
#include "objstore/async_io.h"
#include "objstore/object_store.h"
#include "prt/key_schema.h"

namespace arkfs {

class Prt {
 public:
  // chunk_size == 0 selects the store's max object size.
  explicit Prt(ObjectStorePtr store, std::uint64_t chunk_size = 0,
               AsyncIoConfig async_config = {});

  // --- Metadata objects ---
  Result<Inode> LoadInode(const Uuid& ino);
  Status StoreInode(const Inode& inode);

  // All per-directory metadata objects fetched with overlapped batches
  // (new-leader fast path). The first MultiGet speculatively covers dir
  // inode + journal probe + dentry manifest + BOTH slot objects of every
  // shard a `shard_hint`-way layout would have (the live slot isn't known
  // until the manifest decodes): 3 + 2 * shard_hint GETs. When the hint
  // matches the manifest (or the directory was never checkpointed)
  // bootstrap costs exactly one store round trip. A mismatched hint costs
  // one extra overlapped batch for the actual live shard set.
  struct DirObjects {
    Result<Inode> inode{ErrStatus(Errc::kIo, "not loaded")};
    Result<std::vector<Dentry>> dentries{ErrStatus(Errc::kIo, "not loaded")};
    Result<Bytes> journal{ErrStatus(Errc::kIo, "not loaded")};  // raw frames
    std::uint32_t shard_count = 0;  // 0 = never checkpointed
  };
  DirObjects LoadDirObjects(const Uuid& dir_ino, std::uint32_t shard_hint = 1);

  // --- Sharded dentry layout ---
  // The manifest is the layout authority; kNoEnt means the directory has
  // never been checkpointed (it is empty).
  Result<DentryManifest> LoadDentryManifest(const Uuid& dir_ino);
  Status StoreDentryManifest(const Uuid& dir_ino, const DentryManifest& m);

  // Writes one slot object of one shard (checkpoints batch these writes
  // themselves; this is for seeding a layout).
  Status StoreDentryShard(const Uuid& dir_ino, std::uint32_t shard_count,
                          std::uint32_t shard,
                          const std::vector<Dentry>& entries,
                          std::uint32_t slot = 0, std::uint64_t epoch = 1);

  // Loads the named shards' LIVE slot objects (per the manifest) with one
  // MultiGet; result[i] holds shards[i] (missing objects read as empty,
  // epoch 0). Decoding is strict: an undecodable live-slot object fails the
  // load loudly. By construction the manifest only ever references fully
  // landed slot objects (checkpoints write the inactive slot and flip the
  // manifest afterwards), so garbage here means real store corruption —
  // silently reading it as empty would drop settled entries.
  Result<std::vector<DentryShardData>> LoadDentryShards(
      const Uuid& dir_ino, const DentryManifest& manifest,
      const std::vector<std::uint32_t>& shards);

  // Full read: consults the manifest, then merges all shards. A directory
  // with no manifest reads as empty.
  Result<std::vector<Dentry>> LoadDentries(const Uuid& dir_ino);

  // --- Journal objects (raw; framing, the fence header and the guarded
  // writes that keep it are the journal module's business) ---
  Result<Bytes> LoadJournal(const Uuid& dir_ino);

  // --- File data ---
  // Reads [offset, offset+length) clamped to file_size. Holes read as zeros.
  // MultiReadData of one segment.
  Result<Bytes> ReadData(const Uuid& ino, std::uint64_t offset,
                         std::uint64_t length, std::uint64_t file_size);

  // Batched multi-segment read of one file: all chunk pieces of all segments
  // go out as a single MultiGet (read-ahead windows, scatter reads). Each
  // (offset, length) segment yields one buffer with hole semantics, clamped
  // to file_size like ReadData.
  std::vector<Result<Bytes>> MultiReadData(
      const Uuid& ino, const std::vector<std::pair<std::uint64_t, std::uint64_t>>& segments,
      std::uint64_t file_size);

  // Writes data at offset, splitting across chunk objects: one ranged write
  // per chunk where the store supports them, else a whole-chunk rewrite.
  // A ranged write the store refuses with kNotSup (a cold-resident tiered
  // chunk) falls back to the rewrite as well.
  Status WriteData(const Uuid& ino, std::uint64_t offset, ByteSpan data);

  // Shrinks/extends file data objects to new_size (drops orphaned chunks and
  // trims the boundary chunk).
  Status TruncateData(const Uuid& ino, std::uint64_t old_size,
                      std::uint64_t new_size);

  // Deletes every data chunk of the file.
  Status DeleteData(const Uuid& ino, std::uint64_t file_size);

  std::uint64_t chunk_size() const { return chunk_size_; }
  ObjectStore& store() { return *store_; }
  // The shared submission layer every hot path above this fans out through.
  AsyncObjectIo& async() { return *async_; }

  std::uint64_t NumChunksFor(std::uint64_t file_size) const {
    return file_size == 0 ? 0 : (file_size - 1) / chunk_size_ + 1;
  }

 private:
  // One chunk's share of a byte range: chunk index, offset inside the
  // chunk, offset inside the range, and length.
  struct ChunkPiece {
    std::uint64_t chunk;
    std::uint64_t in_chunk;
    std::uint64_t done;
    std::uint64_t n;
  };
  // The one chunk planner: splits [offset, offset+length) at chunk
  // boundaries, for reads and writes alike.
  std::vector<ChunkPiece> SliceChunks(std::uint64_t offset,
                                      std::uint64_t length) const;

  // The one read-modify-write: under the chunk's write lock, the current
  // bytes (a missing chunk reads as empty) go through `edit`, and the
  // chunk is rewritten whole unless `edit` returns false. Serves sub-chunk
  // writes on whole-object stores, ranged writes a store refuses (kNotSup),
  // and truncation's boundary trim.
  Status ReadModifyWrite(const std::string& key,
                         const std::function<bool(Bytes&)>& edit);
  // Writes `span` at `in_chunk` by rewriting the whole chunk object: a
  // plain Put when it covers the chunk, else ReadModifyWrite.
  Status RewriteChunk(const std::string& key, std::uint64_t in_chunk,
                      ByteSpan span);

  // Whole-chunk rewrites read and then write the chunk. Two callers can
  // rewrite the *same* chunk concurrently (e.g. cache flush of several
  // entries that share one chunk), which loses updates, so rewrites of one
  // chunk key serialize. Striped so unrelated chunks still overlap.
  std::mutex& ChunkWriteLock(const std::string& key) {
    return chunk_write_mu_[std::hash<std::string>{}(key) % chunk_write_mu_.size()];
  }

  ObjectStorePtr store_;
  std::uint64_t chunk_size_;
  AsyncObjectIoPtr async_;
  std::array<std::mutex, 64> chunk_write_mu_;
};

}  // namespace arkfs
