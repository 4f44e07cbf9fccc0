#include "journal/record.h"

namespace arkfs::journal {

void Record::EncodeTo(Encoder& enc) const {
  enc.PutU8(static_cast<std::uint8_t>(type));
  switch (type) {
    case RecordType::kInodeUpsert:
      inode.EncodeTo(enc);
      break;
    case RecordType::kInodeRemove:
      enc.PutUuid(target_ino);
      enc.PutU64(file_size);
      enc.PutU64(chunk_size);
      break;
    case RecordType::kDentryAdd:
      dentry.EncodeTo(enc);
      break;
    case RecordType::kDentryRemove:
      enc.PutString(name);
      break;
    case RecordType::kDirRemove:
      enc.PutUuid(target_ino);
      break;
    case RecordType::kPrepare:
      enc.PutUuid(txid);
      enc.PutUuid(peer_dir);
      break;
    case RecordType::kDecision:
      enc.PutUuid(txid);
      enc.PutU8(commit ? 1 : 0);
      break;
  }
}

Result<Record> Record::DecodeFrom(Decoder& dec) {
  Record r;
  ARKFS_ASSIGN_OR_RETURN(std::uint8_t type, dec.GetU8());
  if (type > static_cast<std::uint8_t>(RecordType::kDecision)) {
    return ErrStatus(Errc::kIo, "bad journal record type");
  }
  r.type = static_cast<RecordType>(type);
  switch (r.type) {
    case RecordType::kInodeUpsert: {
      ARKFS_ASSIGN_OR_RETURN(r.inode, Inode::DecodeFrom(dec));
      break;
    }
    case RecordType::kInodeRemove: {
      ARKFS_ASSIGN_OR_RETURN(r.target_ino, dec.GetUuid());
      ARKFS_ASSIGN_OR_RETURN(r.file_size, dec.GetU64());
      ARKFS_ASSIGN_OR_RETURN(r.chunk_size, dec.GetU64());
      break;
    }
    case RecordType::kDentryAdd: {
      ARKFS_ASSIGN_OR_RETURN(r.dentry, Dentry::DecodeFrom(dec));
      break;
    }
    case RecordType::kDentryRemove: {
      ARKFS_ASSIGN_OR_RETURN(r.name, dec.GetString());
      break;
    }
    case RecordType::kDirRemove: {
      ARKFS_ASSIGN_OR_RETURN(r.target_ino, dec.GetUuid());
      break;
    }
    case RecordType::kPrepare: {
      ARKFS_ASSIGN_OR_RETURN(r.txid, dec.GetUuid());
      ARKFS_ASSIGN_OR_RETURN(r.peer_dir, dec.GetUuid());
      break;
    }
    case RecordType::kDecision: {
      ARKFS_ASSIGN_OR_RETURN(r.txid, dec.GetUuid());
      ARKFS_ASSIGN_OR_RETURN(std::uint8_t commit, dec.GetU8());
      r.commit = commit != 0;
      break;
    }
  }
  return r;
}

Record Record::InodeUpsert(Inode inode) {
  Record r;
  r.type = RecordType::kInodeUpsert;
  r.inode = std::move(inode);
  return r;
}

Record Record::InodeRemove(const Uuid& ino, std::uint64_t file_size,
                           std::uint64_t chunk_size) {
  Record r;
  r.type = RecordType::kInodeRemove;
  r.target_ino = ino;
  r.file_size = file_size;
  r.chunk_size = chunk_size;
  return r;
}

Record Record::DentryAdd(Dentry d) {
  Record r;
  r.type = RecordType::kDentryAdd;
  r.dentry = std::move(d);
  return r;
}

Record Record::DentryRemove(std::string name) {
  Record r;
  r.type = RecordType::kDentryRemove;
  r.name = std::move(name);
  return r;
}

Record Record::DirRemove(const Uuid& dir_ino) {
  Record r;
  r.type = RecordType::kDirRemove;
  r.target_ino = dir_ino;
  return r;
}

Record Record::Prepare(const Uuid& txid, const Uuid& peer_dir) {
  Record r;
  r.type = RecordType::kPrepare;
  r.txid = txid;
  r.peer_dir = peer_dir;
  return r;
}

Record Record::Decision(const Uuid& txid, bool commit) {
  Record r;
  r.type = RecordType::kDecision;
  r.txid = txid;
  r.commit = commit;
  return r;
}

const Record* Transaction::FindPrepare() const {
  for (const auto& r : records) {
    if (r.type == RecordType::kPrepare) return &r;
  }
  return nullptr;
}

Bytes EncodeTransaction(const Transaction& txn) {
  Encoder payload(256);
  payload.PutVarint(txn.records.size());
  for (const auto& r : txn.records) r.EncodeTo(payload);

  Encoder framed(payload.size() + 40);
  framed.PutU32(kTxnMagic);
  framed.PutU64(txn.seq);
  framed.PutU64(txn.fence.epoch);
  framed.PutU64(txn.fence.seq);
  framed.PutU32(static_cast<std::uint32_t>(payload.size()));
  framed.PutRaw(payload.buffer());
  // CRC covers seq + fence + len + payload.
  Encoder crc_input(payload.size() + 32);
  crc_input.PutU64(txn.seq);
  crc_input.PutU64(txn.fence.epoch);
  crc_input.PutU64(txn.fence.seq);
  crc_input.PutU32(static_cast<std::uint32_t>(payload.size()));
  crc_input.PutRaw(payload.buffer());
  framed.PutU32(Crc32c(crc_input.buffer()));
  return std::move(framed).Take();
}

bool HasJournalHeader(ByteSpan journal) {
  if (journal.size() < kFenceObjectBytes) return false;
  Decoder dec(journal);
  auto magic = dec.GetU32();
  return magic.ok() && *magic == kFenceMagic;
}

Result<FenceToken> JournalFence(ByteSpan journal) {
  if (!HasJournalHeader(journal)) {
    return ErrStatus(Errc::kIo, "journal has no fence header");
  }
  return DecodeFenceObject(journal.first(kFenceObjectBytes));
}

std::vector<Transaction> ParseJournal(ByteSpan data) {
  std::vector<Transaction> txns;
  if (HasJournalHeader(data)) data = data.subspan(kFenceObjectBytes);
  Decoder dec(data);
  // Minimum complete frame: magic(4) + seq(8) + epoch(8) + fseq(8) + len(4)
  // + crc(4). Short reads below fail and terminate the scan as a torn tail.
  while (dec.remaining() >= 36) {
    auto magic = dec.GetU32();
    if (!magic.ok() || *magic != kTxnMagic) break;
    auto seq = dec.GetU64();
    auto epoch = dec.GetU64();
    auto fseq = dec.GetU64();
    auto len = dec.GetU32();
    if (!seq.ok() || !epoch.ok() || !fseq.ok() || !len.ok() ||
        dec.remaining() < *len + 4u) {
      break;
    }

    Bytes payload(*len);
    if (!dec.GetRaw(payload).ok()) break;
    auto stored_crc = dec.GetU32();
    if (!stored_crc.ok()) break;

    Encoder crc_input(payload.size() + 32);
    crc_input.PutU64(*seq);
    crc_input.PutU64(*epoch);
    crc_input.PutU64(*fseq);
    crc_input.PutU32(*len);
    crc_input.PutRaw(payload);
    if (Crc32c(crc_input.buffer()) != *stored_crc) break;  // torn/corrupt

    Transaction txn;
    txn.seq = *seq;
    txn.fence = FenceToken{*epoch, *fseq};
    Decoder body(payload);
    auto count = body.GetVarint();
    if (!count.ok()) break;
    bool bad = false;
    for (std::uint64_t i = 0; i < *count; ++i) {
      auto rec = Record::DecodeFrom(body);
      if (!rec.ok()) {
        bad = true;
        break;
      }
      txn.records.push_back(std::move(*rec));
    }
    if (bad) break;
    txns.push_back(std::move(txn));
  }
  return txns;
}

}  // namespace arkfs::journal
