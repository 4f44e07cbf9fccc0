#include "prt/translator.h"

#include <algorithm>
#include <cstring>

namespace arkfs {

Prt::Prt(ObjectStorePtr store, std::uint64_t chunk_size,
         AsyncIoConfig async_config)
    : store_(std::move(store)),
      chunk_size_(chunk_size == 0 ? store_->max_object_size() : chunk_size),
      async_(std::make_shared<AsyncObjectIo>(store_, async_config)) {}

Result<Inode> Prt::LoadInode(const Uuid& ino) {
  ARKFS_ASSIGN_OR_RETURN(Bytes raw, store_->Get(InodeKey(ino)));
  return Inode::Decode(raw);
}

Status Prt::StoreInode(const Inode& inode) {
  return store_->Put(InodeKey(inode.ino), inode.Encode());
}

namespace {

// Merges raw live-slot GET results into one entry list; result index i must
// hold the LIVE slot object of shard i. A kNoEnt object is an empty shard
// (written lazily); any other failure — including an undecodable payload —
// fails the merge loudly.
Result<std::vector<Dentry>> MergeShardResults(std::vector<Result<Bytes>>& raw,
                                              std::size_t base,
                                              std::size_t stride,
                                              std::uint32_t count,
                                              std::uint64_t reserve_hint) {
  std::vector<Dentry> all;
  all.reserve(reserve_hint < (1u << 22) ? reserve_hint : 0);
  for (std::uint32_t s = 0; s < count; ++s) {
    auto& r = raw[base + s * stride];
    if (r.code() == Errc::kNoEnt) continue;
    if (!r.ok()) return r.status();
    ARKFS_ASSIGN_OR_RETURN(DentryShardData part, DecodeDentryShardObject(*r));
    all.insert(all.end(), std::make_move_iterator(part.entries.begin()),
               std::make_move_iterator(part.entries.end()));
  }
  return all;
}

}  // namespace

Prt::DirObjects Prt::LoadDirObjects(const Uuid& dir_ino,
                                    std::uint32_t shard_hint) {
  if (!IsPow2(shard_hint) || shard_hint > kMaxDentryShards) shard_hint = 1;
  // Speculative first batch: we don't yet know the layout, so cover every
  // possibility — the manifest is tiny, and fetching both slot objects of
  // every hinted shard (the live slot is only known once the manifest
  // decodes) keeps a correct hint at a single round trip.
  std::vector<BatchGet> gets(3 + 2 * shard_hint);
  gets[0].key = InodeKey(dir_ino);
  gets[1].key = JournalKey(dir_ino);
  gets[2].key = DentryManifestKey(dir_ino);
  for (std::uint32_t s = 0; s < shard_hint; ++s) {
    gets[3 + 2 * s].key = DentryShardKey(dir_ino, shard_hint, s, 0);
    gets[3 + 2 * s + 1].key = DentryShardKey(dir_ino, shard_hint, s, 1);
  }
  auto mg = async_->MultiGet(std::move(gets));

  DirObjects out;
  if (mg.results[0].ok()) {
    out.inode = Inode::Decode(*mg.results[0]);
  } else {
    out.inode = mg.results[0].status();
  }
  out.journal = std::move(mg.results[1]);

  auto& raw_manifest = mg.results[2];
  if (raw_manifest.code() == Errc::kNoEnt) {
    out.dentries = std::vector<Dentry>{};  // never checkpointed: empty
    return out;
  }
  if (!raw_manifest.ok()) {
    out.dentries = raw_manifest.status();
    return out;
  }
  auto manifest = DecodeDentryManifest(*raw_manifest);
  if (!manifest.ok()) {
    out.dentries = manifest.status();
    return out;
  }
  out.shard_count = manifest->shard_count;

  if (manifest->shard_count == shard_hint) {
    // Pick each shard's live slot from the speculative pair.
    std::vector<Result<Bytes>> live;
    live.reserve(shard_hint);
    for (std::uint32_t s = 0; s < shard_hint; ++s) {
      live.push_back(std::move(mg.results[3 + 2 * s + manifest->SlotOf(s)]));
    }
    out.dentries = MergeShardResults(live, 0, 1, shard_hint,
                                     manifest->entry_count);
    return out;
  }
  // Hint missed: one more overlapped batch for the actual live shard set.
  std::vector<BatchGet> shard_gets(manifest->shard_count);
  for (std::uint32_t s = 0; s < manifest->shard_count; ++s) {
    shard_gets[s].key = DentryShardKey(dir_ino, manifest->shard_count, s,
                                       manifest->SlotOf(s));
  }
  auto sg = async_->MultiGet(std::move(shard_gets));
  out.dentries = MergeShardResults(sg.results, 0, 1, manifest->shard_count,
                                   manifest->entry_count);
  return out;
}

Result<DentryManifest> Prt::LoadDentryManifest(const Uuid& dir_ino) {
  ARKFS_ASSIGN_OR_RETURN(Bytes raw, store_->Get(DentryManifestKey(dir_ino)));
  return DecodeDentryManifest(raw);
}

Status Prt::StoreDentryManifest(const Uuid& dir_ino, const DentryManifest& m) {
  return store_->Put(DentryManifestKey(dir_ino), EncodeDentryManifest(m));
}

Status Prt::StoreDentryShard(const Uuid& dir_ino, std::uint32_t shard_count,
                             std::uint32_t shard,
                             const std::vector<Dentry>& entries,
                             std::uint32_t slot, std::uint64_t epoch) {
  return store_->Put(DentryShardKey(dir_ino, shard_count, shard, slot),
                     EncodeDentryShardObject(epoch, entries));
}

Result<std::vector<DentryShardData>> Prt::LoadDentryShards(
    const Uuid& dir_ino, const DentryManifest& manifest,
    const std::vector<std::uint32_t>& shards) {
  std::vector<BatchGet> gets(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    gets[i].key = DentryShardKey(dir_ino, manifest.shard_count, shards[i],
                                 manifest.SlotOf(shards[i]));
  }
  auto mg = async_->MultiGet(std::move(gets));
  std::vector<DentryShardData> out(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    auto& r = mg.results[i];
    if (r.code() == Errc::kNoEnt) continue;  // never-written shard: empty
    if (!r.ok()) return r.status();
    // Strict: the manifest only references fully landed slot objects, so an
    // undecodable payload is real corruption and must fail loudly.
    ARKFS_ASSIGN_OR_RETURN(out[i], DecodeDentryShardObject(*r));
  }
  return out;
}

Result<std::vector<Dentry>> Prt::LoadDentries(const Uuid& dir_ino) {
  auto manifest = LoadDentryManifest(dir_ino);
  if (!manifest.ok()) {
    if (manifest.code() == Errc::kNoEnt) return std::vector<Dentry>{};
    return manifest.status();
  }
  std::vector<std::uint32_t> all(manifest->shard_count);
  for (std::uint32_t s = 0; s < manifest->shard_count; ++s) all[s] = s;
  ARKFS_ASSIGN_OR_RETURN(auto shards, LoadDentryShards(dir_ino, *manifest, all));
  std::vector<Dentry> merged;
  merged.reserve(manifest->entry_count < (1u << 22) ? manifest->entry_count
                                                    : 0);
  for (auto& part : shards) {
    merged.insert(merged.end(),
                  std::make_move_iterator(part.entries.begin()),
                  std::make_move_iterator(part.entries.end()));
  }
  return merged;
}

Result<Bytes> Prt::LoadJournal(const Uuid& dir_ino) {
  return store_->Get(JournalKey(dir_ino));
}

std::vector<Prt::ChunkPiece> Prt::SliceChunks(std::uint64_t offset,
                                              std::uint64_t length) const {
  std::vector<ChunkPiece> pieces;
  std::uint64_t done = 0;
  while (done < length) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t in_chunk = pos % chunk_size_;
    const std::uint64_t n = std::min(length - done, chunk_size_ - in_chunk);
    pieces.push_back({pos / chunk_size_, in_chunk, done, n});
    done += n;
  }
  return pieces;
}

Result<Bytes> Prt::ReadData(const Uuid& ino, std::uint64_t offset,
                            std::uint64_t length, std::uint64_t file_size) {
  return std::move(MultiReadData(ino, {{offset, length}}, file_size)[0]);
}

std::vector<Result<Bytes>> Prt::MultiReadData(
    const Uuid& ino,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& segments,
    std::uint64_t file_size) {
  // Flatten all segments' chunk pieces into one MultiGet, then reassemble.
  struct Dest {
    std::size_t segment;
    std::uint64_t done;  // destination offset within the segment buffer
  };
  std::vector<Dest> dests;
  std::vector<BatchGet> gets;
  std::vector<Result<Bytes>> out;
  out.reserve(segments.size());
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const auto [offset, want] = segments[s];
    const std::uint64_t length =
        offset >= file_size ? 0 : std::min(want, file_size - offset);
    out.emplace_back(Bytes(length, 0));
    for (const ChunkPiece& p : SliceChunks(offset, length)) {
      BatchGet g;
      g.key = DataKey(ino, p.chunk);
      g.ranged = true;
      g.offset = p.in_chunk;
      g.length = p.n;
      gets.push_back(std::move(g));
      dests.push_back({s, p.done});
    }
  }

  auto mg = async_->MultiGet(std::move(gets));
  for (std::size_t i = 0; i < dests.size(); ++i) {
    auto& part = mg.results[i];
    const Dest& dest = dests[i];
    if (!out[dest.segment].ok()) continue;  // already failed
    if (!part.ok()) {
      if (part.code() == Errc::kNoEnt) continue;  // hole: stays zero
      out[dest.segment] = part.status();
      continue;
    }
    // A short chunk (sparse tail within the chunk) also reads as zeros.
    std::memcpy(out[dest.segment]->data() + dest.done, part->data(),
                part->size());
  }
  return out;
}

Status Prt::ReadModifyWrite(const std::string& key,
                            const std::function<bool(Bytes&)>& edit) {
  std::lock_guard guard(ChunkWriteLock(key));
  Bytes chunk;
  auto existing = store_->Get(key);
  if (existing.ok()) {
    chunk = std::move(*existing);
  } else if (existing.code() != Errc::kNoEnt) {
    return existing.status();
  }
  if (!edit(chunk)) return Status::Ok();
  return store_->Put(key, chunk);
}

Status Prt::RewriteChunk(const std::string& key, std::uint64_t in_chunk,
                         ByteSpan span) {
  if (in_chunk == 0 && span.size() == chunk_size_) {
    // Full-chunk replacement needs no read, even on a whole-object store.
    std::lock_guard guard(ChunkWriteLock(key));
    return store_->Put(key, span);
  }
  // Read, patch, rewrite: the write amplification S3-style stores impose on
  // partial updates.
  return ReadModifyWrite(key, [&](Bytes& chunk) {
    const std::uint64_t end = in_chunk + span.size();
    if (chunk.size() < end) chunk.resize(end, 0);
    std::memcpy(chunk.data() + in_chunk, span.data(), span.size());
    return true;
  });
}

Status Prt::WriteData(const Uuid& ino, std::uint64_t offset, ByteSpan data) {
  const std::vector<ChunkPiece> pieces = SliceChunks(offset, data.size());
  // Pieces that must be rewritten whole: all of them on a whole-object
  // store, else those whose ranged write the store refused (kNotSup, e.g. a
  // cold-resident tiered chunk).
  std::vector<const ChunkPiece*> rewrite;
  if (store_->supports_partial_write()) {
    std::vector<BatchPut> puts;
    puts.reserve(pieces.size());
    for (const ChunkPiece& p : pieces) {
      BatchPut put;
      put.key = DataKey(ino, p.chunk);
      put.data = data.subspan(p.done, p.n);
      put.ranged = true;
      put.offset = p.in_chunk;
      puts.push_back(std::move(put));
    }
    auto mp = async_->MultiPut(std::move(puts));
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      const Status& st = mp.results[i];
      if (st.code() == Errc::kNotSup) {
        rewrite.push_back(&pieces[i]);
      } else if (!st.ok()) {
        return st;
      }
    }
  } else {
    for (const ChunkPiece& p : pieces) rewrite.push_back(&p);
  }
  // Rewrites run concurrently: their GET+PUT pairs overlap too.
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(rewrite.size());
  for (const ChunkPiece* p : rewrite) {
    tasks.push_back([this, &ino, &data, p] {
      return RewriteChunk(DataKey(ino, p->chunk), p->in_chunk,
                          data.subspan(p->done, p->n));
    });
  }
  return async_->RunAll(std::move(tasks));
}

Status Prt::TruncateData(const Uuid& ino, std::uint64_t old_size,
                         std::uint64_t new_size) {
  if (new_size >= old_size) return Status::Ok();  // extension = lazy hole
  const std::uint64_t old_chunks = NumChunksFor(old_size);
  const std::uint64_t new_chunks = NumChunksFor(new_size);
  std::vector<std::string> keys;
  for (std::uint64_t c = new_chunks; c < old_chunks; ++c) {
    keys.push_back(DataKey(ino, c));
  }
  ARKFS_RETURN_IF_ERROR(
      async_->MultiDelete(std::move(keys)).FirstErrorIgnoringNoEnt());
  // Trim the boundary chunk if the new size cuts into it.
  if (new_chunks == 0 || new_size % chunk_size_ == 0) return Status::Ok();
  const std::uint64_t keep = new_size - (new_chunks - 1) * chunk_size_;
  return ReadModifyWrite(DataKey(ino, new_chunks - 1), [keep](Bytes& chunk) {
    if (chunk.size() <= keep) return false;
    chunk.resize(keep);
    return true;
  });
}

Status Prt::DeleteData(const Uuid& ino, std::uint64_t file_size) {
  std::vector<std::string> keys;
  for (std::uint64_t c = 0; c < NumChunksFor(file_size); ++c) {
    keys.push_back(DataKey(ino, c));
  }
  return async_->MultiDelete(std::move(keys)).FirstErrorIgnoringNoEnt();
}

}  // namespace arkfs
