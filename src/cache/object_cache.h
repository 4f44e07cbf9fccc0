// Data object cache (paper §III-D).
//
// User-level page-cache equivalent: fixed-size entries (2 MiB default)
// indexed per file by a radix tree, global LRU eviction, write-back dirty
// tracking, and a per-file read-ahead window that doubles up to the maximum
// (8 MiB default, as in CephFS) — jumping straight to the maximum when a
// read starts at offset 0, the paper's sequential-archival fast path.
//
// The cache speaks to the store through the PRT, so entry loads/flushes
// work on any backend (partial-write or whole-object). Read-ahead windows
// load on the PRT's async I/O workers (AsyncObjectIo::Post): the cache owns
// no threads.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "cache/radix_tree.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/uuid.h"
#include "obs/metrics.h"
#include "prt/translator.h"

namespace arkfs {

struct CacheConfig {
  std::uint64_t entry_size = 2ull << 20;   // paper default: 2 MiB
  std::size_t max_entries = 2048;          // configurable capacity
  std::uint64_t max_readahead = 8ull << 20;  // paper default: 8 MiB
  std::uint64_t initial_readahead = 2ull << 20;
  // Where this cache's "cache.*" metric cells attach; null = process
  // default registry.
  obs::MetricsRegistry* metrics = nullptr;

  static CacheConfig ForTests() {
    CacheConfig c;
    c.entry_size = 4096;
    c.max_entries = 16;
    c.max_readahead = 16384;
    c.initial_readahead = 4096;
    return c;
  }

  // Read-ahead windows load as tasks on the PRT's async I/O workers, so the
  // worker count bounds how much prefetch is in flight. This is the count
  // that keeps this cache's largest window moving: two workers per entry
  // it spans, 1..16 (8 at the paper's 8 MiB / 2 MiB defaults). Mounts that
  // model a fixed read-ahead depth (the CephFS-like baseline, the
  // read-ahead benches) size their workers with it.
  int ReadAheadWorkers() const {
    return static_cast<int>(
        std::clamp<std::uint64_t>(2 * max_readahead / entry_size, 1, 16));
  }
};

// Point-in-time copy of one cache's "cache.*" metric cells (the cells
// themselves also report into the MetricsRegistry under those names).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t readahead_loads = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t evictions = 0;
};

class ObjectCache {
 public:
  ObjectCache(std::shared_ptr<Prt> prt, CacheConfig config);
  ~ObjectCache();

  ObjectCache(const ObjectCache&) = delete;
  ObjectCache& operator=(const ObjectCache&) = delete;

  // Reads [offset, offset+length) of the file (clamped to file_size)
  // through the cache; may kick off asynchronous read-ahead.
  Result<Bytes> Read(const Uuid& ino, std::uint64_t file_size,
                     std::uint64_t offset, std::uint64_t length);

  // Buffers a write (write-back). `file_size` is the size before the write;
  // the caller updates its inode size separately.
  Status Write(const Uuid& ino, std::uint64_t file_size, std::uint64_t offset,
               ByteSpan data);

  // Writes all dirty entries of the file to the store (fsync path). All
  // entries flush concurrently through the PRT's async I/O layer.
  Status FlushFile(const Uuid& ino);

  // Flush + forget all entries of the file (lease loss, cache-flush
  // broadcast from a leader, close with drop).
  Status DropFile(const Uuid& ino, bool flush_dirty);

  // Flushes every dirty entry of every file concurrently. A failed entry
  // stays dirty but never blocks the rest from flushing; returns the first
  // error after attempting everything.
  Status FlushAll();

  // Flush everything dirty, then forget all entries (drop_caches).
  Status DropAll();

  // True if the file has dirty (unwritten-back) entries.
  bool HasDirty(const Uuid& ino) const;

  // Discards cached data past new_size (truncate).
  void TruncateFile(const Uuid& ino, std::uint64_t new_size);

  CacheStats stats() const;
  std::size_t entry_count() const;
  const CacheConfig& config() const { return config_; }

 private:
  struct Entry;
  using EntryPtr = std::shared_ptr<Entry>;

  struct Entry {
    Uuid ino;
    std::uint64_t index = 0;   // entry index within the file
    Bytes data;                // valid bytes [0, data.size())
    bool dirty = false;
    bool loading = false;      // a load (foreground or read-ahead) is in flight
    // Callers actively reading/writing the entry hold a pin; pinned entries
    // are never evicted (eviction may drop the cache lock mid-flush, so a
    // clean entry another thread just obtained must not vanish under it).
    int pins = 0;
    std::list<std::pair<Uuid, std::uint64_t>>::iterator lru_pos;
  };

  struct FileState {
    RadixTree<EntryPtr> entries;
    // Read-ahead window (paper: per-file, doubling).
    std::uint64_t ra_next_offset = 0;   // expected next sequential offset
    std::uint64_t ra_window = 0;        // current window size
    std::uint64_t ra_submitted_end = 0; // prefetch issued up to here
  };

  // All private helpers assume mu_ is held unless noted.
  FileState& FileFor(const Uuid& ino);
  // Returns the entry PINNED; the caller must UnpinLocked it when done.
  Result<EntryPtr> GetEntryLocked(std::unique_lock<std::mutex>& lock,
                                  const Uuid& ino, std::uint64_t index,
                                  std::uint64_t file_size, bool load_if_miss);
  static void UnpinLocked(const EntryPtr& entry) { --entry->pins; }
  Status LoadEntry(std::unique_lock<std::mutex>& lock, const EntryPtr& entry,
                   std::uint64_t file_size);
  // Loads a read-ahead window's entries with one batched store submission.
  void LoadEntriesBatch(std::unique_lock<std::mutex>& lock, const Uuid& ino,
                        std::vector<EntryPtr> entries,
                        std::uint64_t file_size);
  // Applies a finished load to the entry (never clobbers dirty bytes; drops
  // zombie entries on failure) and clears the loading flag.
  void FinishLoadLocked(const EntryPtr& entry, Result<Bytes> loaded);
  Status FlushEntryLocked(std::unique_lock<std::mutex>& lock,
                          const EntryPtr& entry);
  // Flushes the given dirty entries concurrently; attempts every entry, and
  // returns the first error. Lock held on entry and exit.
  Status FlushEntriesLocked(std::unique_lock<std::mutex>& lock,
                            const std::vector<EntryPtr>& dirty);
  Status EvictIfNeededLocked(std::unique_lock<std::mutex>& lock);
  void TouchLru(const EntryPtr& entry);
  void MaybeReadAhead(std::unique_lock<std::mutex>& lock, const Uuid& ino,
                      std::uint64_t offset, std::uint64_t length,
                      std::uint64_t file_size);

  const CacheConfig config_;
  std::shared_ptr<Prt> prt_;

  mutable std::mutex mu_;
  std::condition_variable load_cv_;
  std::unordered_map<Uuid, FileState> files_;
  std::list<std::pair<Uuid, std::uint64_t>> lru_;  // front = most recent

  // "cache.*" metric cells (attached to config_.metrics in the ctor).
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter readahead_loads_;
  obs::Counter writebacks_;
  obs::Counter evictions_;

  // Read-ahead loads posted to the async layer and not yet finished; the
  // destructor waits on load_cv_ until it is zero. Guarded by mu_.
  std::size_t posted_loads_ = 0;
};

}  // namespace arkfs
