// Journal records and transaction framing (paper §III-E).
//
// Every metadata mutation becomes a record in the owning directory's
// journal. Records are grouped into compound transactions (buffered up to
// the commit interval), framed with a magic + sequence + CRC32C so torn
// tails from a crash are detected and discarded during recovery.
//
// Cross-directory operations (RENAME) use two-phase commit: each involved
// journal gets a kPrepare record naming the transaction id and the peer
// directory, followed — once both prepares are durable — by a kDecision
// record. Recovery applies a prepared transaction only if a commit decision
// is found in this journal or the peer's (presumed abort).
#pragma once

#include <cstdint>
#include <vector>

#include "common/codec.h"
#include "common/fence.h"
#include "meta/dentry.h"
#include "meta/inode.h"

namespace arkfs::journal {

enum class RecordType : std::uint8_t {
  kInodeUpsert = 0,   // create or update an inode object (dir's own or child)
  kInodeRemove = 1,   // delete inode object + its data chunks
  kDentryAdd = 2,
  kDentryRemove = 3,
  kDirRemove = 4,     // delete a child directory's dentry/journal objects
  kPrepare = 5,       // 2PC phase-1 marker
  kDecision = 6,      // 2PC phase-2 marker
};

struct Record {
  RecordType type = RecordType::kInodeUpsert;

  // kInodeUpsert
  Inode inode;

  // kInodeRemove / kDirRemove
  Uuid target_ino;
  std::uint64_t file_size = 0;   // for data-chunk deletion
  std::uint64_t chunk_size = 0;

  // kDentryAdd
  Dentry dentry;

  // kDentryRemove
  std::string name;

  // kPrepare / kDecision
  Uuid txid;
  Uuid peer_dir;   // kPrepare: the other directory in the 2PC
  bool commit = false;  // kDecision

  void EncodeTo(Encoder& enc) const;
  static Result<Record> DecodeFrom(Decoder& dec);

  // Convenience constructors.
  static Record InodeUpsert(Inode inode);
  static Record InodeRemove(const Uuid& ino, std::uint64_t file_size,
                            std::uint64_t chunk_size);
  static Record DentryAdd(Dentry d);
  static Record DentryRemove(std::string name);
  static Record DirRemove(const Uuid& dir_ino);
  static Record Prepare(const Uuid& txid, const Uuid& peer_dir);
  static Record Decision(const Uuid& txid, bool commit);
};

// A committed transaction as it appears in the journal object.
struct Transaction {
  std::uint64_t seq = 0;
  // Fencing token of the leader that committed this transaction (lease-HA
  // split-brain guard). Part of the frame so a successor can audit which
  // epoch wrote what.
  FenceToken fence;
  std::vector<Record> records;

  const Record* FindPrepare() const;  // the kPrepare record, or null
};

// Serializes one framed transaction (magic/seq/epoch/fseq/len/payload/crc).
Bytes EncodeTransaction(const Transaction& txn);

// Parses all complete, CRC-valid transactions from a journal object. A torn
// or corrupt tail terminates the scan cleanly (those bytes never committed).
// The object's leading fence header (common/fence.h) is skipped; a bare
// frame sequence parses from its first byte.
std::vector<Transaction> ParseJournal(ByteSpan data);

// Every journal object starts with a fence header: the EncodeFenceObject()
// frame of the token that last fenced the directory. True if `journal`
// starts with one (by its magic; JournalFence decodes it).
bool HasJournalHeader(ByteSpan journal);
// The token in `journal`'s header; kIo for a missing, torn or corrupt one.
Result<FenceToken> JournalFence(ByteSpan journal);

inline constexpr std::uint32_t kTxnMagic = 0x414B4A32;  // "AKJ2"

}  // namespace arkfs::journal
