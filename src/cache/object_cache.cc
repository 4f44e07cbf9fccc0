#include "cache/object_cache.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"

namespace arkfs {

ObjectCache::ObjectCache(std::shared_ptr<Prt> prt, CacheConfig config)
    : config_(config), prt_(std::move(prt)) {
  hits_.Attach(config_.metrics, "cache.hits");
  misses_.Attach(config_.metrics, "cache.misses");
  readahead_loads_.Attach(config_.metrics, "cache.readahead_loads");
  writebacks_.Attach(config_.metrics, "cache.writebacks");
  evictions_.Attach(config_.metrics, "cache.evictions");
}

ObjectCache::~ObjectCache() {
  {
    // Posted read-ahead loads reference this cache: wait them out.
    std::unique_lock lock(mu_);
    load_cv_.wait(lock, [&] { return posted_loads_ == 0; });
  }
  Status st = FlushAll();
  if (!st.ok()) {
    ARKFS_WLOG << "cache destructor flush failed: " << st.ToString();
  }
}

ObjectCache::FileState& ObjectCache::FileFor(const Uuid& ino) {
  return files_[ino];
}

void ObjectCache::TouchLru(const EntryPtr& entry) {
  lru_.erase(entry->lru_pos);
  lru_.emplace_front(entry->ino, entry->index);
  entry->lru_pos = lru_.begin();
}

void ObjectCache::FinishLoadLocked(const EntryPtr& entry,
                                   Result<Bytes> loaded) {
  if (loaded.ok() && !entry->dirty) {
    // A concurrent write may have populated the entry while we were loading;
    // never clobber dirty bytes with stale store data.
    entry->data = std::move(*loaded);
  }
  if (!loaded.ok() && !entry->dirty) {
    // Never leave a zombie empty entry behind: a later read would hit it
    // and see zeros instead of the store's data. Drop it so the next access
    // retries the load.
    auto fit = files_.find(entry->ino);
    if (fit != files_.end()) {
      EntryPtr* found = fit->second.entries.Find(entry->index);
      if (found && *found == entry) {
        lru_.erase(entry->lru_pos);
        fit->second.entries.Erase(entry->index);
      }
    }
  }
  entry->loading = false;
}

Status ObjectCache::LoadEntry(std::unique_lock<std::mutex>& lock,
                              const EntryPtr& entry, std::uint64_t file_size) {
  const std::uint64_t offset = entry->index * config_.entry_size;
  Result<Bytes> loaded{Bytes{}};
  if (offset < file_size) {
    const std::uint64_t want =
        std::min<std::uint64_t>(config_.entry_size, file_size - offset);
    lock.unlock();  // store I/O happens without the cache lock
    loaded = prt_->ReadData(entry->ino, offset, want, file_size);
    lock.lock();
  }
  const Status st = loaded.status();
  FinishLoadLocked(entry, std::move(loaded));
  load_cv_.notify_all();
  return st;
}

void ObjectCache::LoadEntriesBatch(std::unique_lock<std::mutex>& lock,
                                   const Uuid& ino,
                                   std::vector<EntryPtr> entries,
                                   std::uint64_t file_size) {
  // One MultiGet for the whole read-ahead window instead of one blocking
  // load per entry: the chunk GETs behind all entries overlap.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> segments;
  segments.reserve(entries.size());
  for (const auto& entry : entries) {
    const std::uint64_t offset = entry->index * config_.entry_size;
    segments.emplace_back(offset, config_.entry_size);
  }
  lock.unlock();
  auto loaded = prt_->MultiReadData(ino, segments, file_size);
  lock.lock();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!loaded[i].ok()) {
      ARKFS_DLOG << "read-ahead load failed: " << loaded[i].status().ToString();
    }
    FinishLoadLocked(entries[i], std::move(loaded[i]));
  }
  load_cv_.notify_all();
}

Result<ObjectCache::EntryPtr> ObjectCache::GetEntryLocked(
    std::unique_lock<std::mutex>& lock, const Uuid& ino, std::uint64_t index,
    std::uint64_t file_size, bool load_if_miss) {
  while (true) {
    FileState& fs = FileFor(ino);
    if (EntryPtr* found = fs.entries.Find(index)) {
      EntryPtr entry = *found;
      if (entry->loading) {
        // Waiting drops the lock; the entry may be evicted (or even
        // re-created) meanwhile — revalidate from scratch afterwards.
        load_cv_.wait(lock, [&] { return !entry->loading; });
        continue;
      }
      hits_.Add();
      TouchLru(entry);
      ++entry->pins;
      return entry;
    }
    misses_.Add();
    auto entry = std::make_shared<Entry>();
    entry->ino = ino;
    entry->index = index;
    entry->loading = load_if_miss;
    entry->pins = 1;  // caller's pin, held through load + eviction below
    lru_.emplace_front(ino, index);
    entry->lru_pos = lru_.begin();
    fs.entries.Insert(index, entry);
    if (load_if_miss) {
      Status st = LoadEntry(lock, entry, file_size);
      if (!st.ok()) {
        UnpinLocked(entry);
        return st;
      }
    }
    Status st = EvictIfNeededLocked(lock);
    if (!st.ok()) {
      UnpinLocked(entry);
      return st;
    }
    return entry;
  }
}

Status ObjectCache::EvictIfNeededLocked(std::unique_lock<std::mutex>& lock) {
  // Flushing a dirty victim drops the lock, after which every iterator and
  // scan position is stale — so each round rescans the LRU from the cold
  // end. The safety bound keeps a re-dirtying writer from starving us;
  // capacity is advisory under that kind of pressure.
  for (int rounds = 0;
       lru_.size() > config_.max_entries && rounds < 256; ++rounds) {
    EntryPtr victim;
    for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
      auto [ino, index] = *rit;
      auto fit = files_.find(ino);
      if (fit == files_.end()) continue;
      EntryPtr* found = fit->second.entries.Find(index);
      if (found && !(*found)->loading && (*found)->pins == 0) {
        victim = *found;
        break;
      }
    }
    if (!victim) return Status::Ok();  // everything in flight
    if (victim->dirty) {
      ARKFS_RETURN_IF_ERROR(FlushEntryLocked(lock, victim));
      // Lock was dropped: re-evaluate the world before touching anything.
      continue;
    }
    auto fit = files_.find(victim->ino);
    if (fit == files_.end()) continue;
    EntryPtr* found = fit->second.entries.Find(victim->index);
    if (found && *found == victim && !victim->loading && !victim->dirty &&
        victim->pins == 0) {
      lru_.erase(victim->lru_pos);
      fit->second.entries.Erase(victim->index);
      evictions_.Add();
    }
  }
  return Status::Ok();
}

Status ObjectCache::FlushEntryLocked(std::unique_lock<std::mutex>& lock,
                                     const EntryPtr& entry) {
  if (!entry->dirty) return Status::Ok();
  const Bytes snapshot = entry->data;  // copy under lock
  entry->dirty = false;
  const std::uint64_t offset = entry->index * config_.entry_size;
  lock.unlock();
  Status st = prt_->WriteData(entry->ino, offset, snapshot);
  lock.lock();
  if (!st.ok()) {
    entry->dirty = true;  // retry on next flush
    return st;
  }
  writebacks_.Add();
  return Status::Ok();
}

Result<Bytes> ObjectCache::Read(const Uuid& ino, std::uint64_t file_size,
                                std::uint64_t offset, std::uint64_t length) {
  if (offset >= file_size) return Bytes{};
  length = std::min(length, file_size - offset);
  Bytes out(length, 0);

  std::unique_lock lock(mu_);
  MaybeReadAhead(lock, ino, offset, length, file_size);
  std::uint64_t done = 0;
  while (done < length) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t index = pos / config_.entry_size;
    const std::uint64_t in_entry = pos % config_.entry_size;
    const std::uint64_t n =
        std::min(length - done, config_.entry_size - in_entry);
    ARKFS_ASSIGN_OR_RETURN(
        EntryPtr entry,
        GetEntryLocked(lock, ino, index, file_size, /*load_if_miss=*/true));
    if (in_entry < entry->data.size()) {
      const std::uint64_t avail =
          std::min<std::uint64_t>(n, entry->data.size() - in_entry);
      std::memcpy(out.data() + done, entry->data.data() + in_entry, avail);
    }
    UnpinLocked(entry);
    // Bytes past the entry's valid length read as zeros (holes).
    done += n;
  }
  return out;
}

Status ObjectCache::Write(const Uuid& ino, std::uint64_t file_size,
                          std::uint64_t offset, ByteSpan data) {
  std::unique_lock lock(mu_);
  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t index = pos / config_.entry_size;
    const std::uint64_t in_entry = pos % config_.entry_size;
    const std::uint64_t n =
        std::min<std::uint64_t>(data.size() - done, config_.entry_size - in_entry);
    // Only pre-load the entry when existing file bytes could be clobbered:
    // a full-entry overwrite, or a write entirely past EOF, needs no read.
    const std::uint64_t entry_start = index * config_.entry_size;
    const bool covers_whole_entry = in_entry == 0 && n == config_.entry_size;
    const bool beyond_eof = entry_start >= file_size;
    const bool need_load = !covers_whole_entry && !beyond_eof;
    ARKFS_ASSIGN_OR_RETURN(
        EntryPtr entry, GetEntryLocked(lock, ino, index, file_size, need_load));
    if (entry->data.size() < in_entry + n) entry->data.resize(in_entry + n, 0);
    std::memcpy(entry->data.data() + in_entry, data.data() + done, n);
    entry->dirty = true;
    UnpinLocked(entry);
    done += n;
  }
  return Status::Ok();
}

Status ObjectCache::FlushEntriesLocked(std::unique_lock<std::mutex>& lock,
                                       const std::vector<EntryPtr>& dirty) {
  if (dirty.empty()) return Status::Ok();
  // Snapshot + mark clean under the lock (a writer landing during the
  // writeback re-dirties and is picked up by the next flush), then write
  // every entry back concurrently. Entries are pinned so eviction cannot
  // race the unlocked writebacks.
  struct Writeback {
    EntryPtr entry;
    std::uint64_t offset;
    Bytes snapshot;
    Status result;
  };
  std::vector<Writeback> work;
  work.reserve(dirty.size());
  for (const auto& entry : dirty) {
    if (!entry->dirty) continue;  // another flusher beat us to it
    entry->dirty = false;
    ++entry->pins;
    work.push_back({entry, entry->index * config_.entry_size, entry->data,
                    Status::Ok()});
  }
  if (work.empty()) return Status::Ok();

  lock.unlock();
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(work.size());
  for (auto& wb : work) {
    tasks.push_back([this, &wb] {
      wb.result = prt_->WriteData(wb.entry->ino, wb.offset, wb.snapshot);
      return wb.result;
    });
  }
  Status first = prt_->async().RunAll(std::move(tasks));
  lock.lock();

  for (auto& wb : work) {
    if (wb.result.ok()) {
      writebacks_.Add();
    } else {
      wb.entry->dirty = true;  // retry on next flush
    }
    UnpinLocked(wb.entry);
  }
  return first;
}

Status ObjectCache::FlushFile(const Uuid& ino) {
  std::unique_lock lock(mu_);
  auto it = files_.find(ino);
  if (it == files_.end()) return Status::Ok();
  // Snapshot the dirty set first: flushing drops the lock, and the radix
  // tree must not be walked while unlocked.
  std::vector<EntryPtr> dirty;
  it->second.entries.ForEach([&](std::uint64_t, EntryPtr& e) {
    if (e->dirty) dirty.push_back(e);
  });
  return FlushEntriesLocked(lock, dirty);
}

Status ObjectCache::DropFile(const Uuid& ino, bool flush_dirty) {
  if (flush_dirty) {
    ARKFS_RETURN_IF_ERROR(FlushFile(ino));
  }
  std::unique_lock lock(mu_);
  auto it = files_.find(ino);
  if (it == files_.end()) return Status::Ok();
  // Wait out in-flight loads so read-ahead workers don't resurrect state.
  bool any_loading = true;
  while (any_loading) {
    any_loading = false;
    it->second.entries.ForEach([&](std::uint64_t, EntryPtr& e) {
      if (e->loading) any_loading = true;
    });
    if (any_loading) load_cv_.wait(lock);
  }
  it->second.entries.ForEach(
      [&](std::uint64_t, EntryPtr& e) { lru_.erase(e->lru_pos); });
  files_.erase(it);
  return Status::Ok();
}

Status ObjectCache::FlushAll() {
  // Every dirty entry of every file flushes in one concurrent batch. A file
  // whose writeback fails stays dirty but never blocks other files from
  // flushing; the first error is reported after everything was attempted.
  std::unique_lock lock(mu_);
  std::vector<EntryPtr> dirty;
  for (auto& [ino, fs] : files_) {
    fs.entries.ForEach([&](std::uint64_t, EntryPtr& e) {
      if (e->dirty) dirty.push_back(e);
    });
  }
  return FlushEntriesLocked(lock, dirty);
}

Status ObjectCache::DropAll() {
  std::vector<Uuid> inos;
  {
    std::lock_guard lock(mu_);
    inos.reserve(files_.size());
    for (const auto& [ino, _] : files_) inos.push_back(ino);
  }
  for (const auto& ino : inos) {
    ARKFS_RETURN_IF_ERROR(DropFile(ino, /*flush_dirty=*/true));
  }
  return Status::Ok();
}

bool ObjectCache::HasDirty(const Uuid& ino) const {
  std::lock_guard lock(mu_);
  auto it = files_.find(ino);
  if (it == files_.end()) return false;
  bool dirty = false;
  it->second.entries.ForEach([&](std::uint64_t, EntryPtr& e) {
    if (e->dirty) dirty = true;
  });
  return dirty;
}

void ObjectCache::TruncateFile(const Uuid& ino, std::uint64_t new_size) {
  std::unique_lock lock(mu_);
  auto it = files_.find(ino);
  if (it == files_.end()) return;
  const std::uint64_t keep_entries =
      new_size == 0 ? 0 : (new_size - 1) / config_.entry_size + 1;
  std::vector<std::uint64_t> to_drop;
  it->second.entries.ForEach([&](std::uint64_t index, EntryPtr& e) {
    if (index >= keep_entries) {
      to_drop.push_back(index);
    } else if (index == keep_entries - 1 && new_size % config_.entry_size) {
      const std::uint64_t keep = new_size - index * config_.entry_size;
      if (e->data.size() > keep) e->data.resize(keep);
    }
  });
  for (std::uint64_t index : to_drop) {
    if (EntryPtr* e = it->second.entries.Find(index)) {
      lru_.erase((*e)->lru_pos);
      it->second.entries.Erase(index);
    }
  }
}

void ObjectCache::MaybeReadAhead(std::unique_lock<std::mutex>&,
                                 const Uuid& ino, std::uint64_t offset,
                                 std::uint64_t length,
                                 std::uint64_t file_size) {
  FileState& fs = FileFor(ino);
  if (offset == 0) {
    // Read from the very beginning: assume a full sequential pass and open
    // the window to the maximum immediately (paper's optimization).
    fs.ra_window = config_.max_readahead;
  } else if (offset == fs.ra_next_offset) {
    fs.ra_window = fs.ra_window == 0
                       ? config_.initial_readahead
                       : std::min<std::uint64_t>(fs.ra_window * 2,
                                                 config_.max_readahead);
  } else {
    fs.ra_window = 0;  // random access: stop prefetching
  }
  fs.ra_next_offset = offset + length;
  if (fs.ra_window == 0) return;

  const std::uint64_t ra_begin =
      std::max(offset + length, fs.ra_submitted_end);
  const std::uint64_t ra_end =
      std::min(offset + length + fs.ra_window, file_size);
  if (ra_begin >= ra_end) return;
  fs.ra_submitted_end = ra_end;

  const std::uint64_t first = ra_begin / config_.entry_size;
  const std::uint64_t last = (ra_end - 1) / config_.entry_size;
  std::vector<EntryPtr> window;
  for (std::uint64_t index = first; index <= last; ++index) {
    if (fs.entries.Find(index)) continue;
    auto entry = std::make_shared<Entry>();
    entry->ino = ino;
    entry->index = index;
    entry->loading = true;
    lru_.emplace_front(ino, index);
    entry->lru_pos = lru_.begin();
    fs.entries.Insert(index, entry);
    readahead_loads_.Add();
    window.push_back(std::move(entry));
  }
  if (window.empty()) return;
  // The whole window goes out as one batched submission, posted to the
  // async layer: every chunk GET behind it overlaps instead of loading
  // entry-by-entry, and the reader does not wait for it.
  ++posted_loads_;
  prt_->async().Post(
      [this, ino, entries = std::move(window), file_size]() mutable {
        std::unique_lock task_lock(mu_);
        LoadEntriesBatch(task_lock, ino, std::move(entries), file_size);
        --posted_loads_;
        load_cv_.notify_all();
      });
}

CacheStats ObjectCache::stats() const {
  CacheStats s;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.readahead_loads = readahead_loads_.value();
  s.writebacks = writebacks_.value();
  s.evictions = evictions_.value();
  return s;
}

std::size_t ObjectCache::entry_count() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

}  // namespace arkfs
