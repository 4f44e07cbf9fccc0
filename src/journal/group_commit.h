// Group-commit durability pipeline (DESIGN.md §4.7).
//
// JournalManager's durability-mode knob decides when a metadata mutation is
// acknowledged relative to its journal-object append:
//
//   sync   — Append commits the running transaction durably (one guarded
//            journal write, journal.h) before returning. Strongest guarantee;
//            pays one object-store round trip per transaction batch. The
//            flusher only redrives records a failed inline commit unwound,
//            once they are commit_interval old.
//   group  — ack on sequence assignment: Append places the records on the
//            per-directory running queue (queue position under append
//            ordering IS the sequence) and returns immediately; the flusher
//            lingers 0, coalescing every dirty directory's pending frames
//            into one async fan-out. It flushes immediately when idle, and
//            appends arriving while a flush is in flight pile into the next
//            round, so batching adapts to load without a timer.
//            Sequenced-but-unflushed records are the documented loss window,
//            bounded by GroupWindowLimits below: appenders are backpressured
//            while the window is over any of its record/byte/age bounds.
//   async  — ack on sequence; the flusher commits a directory once its
//            oldest pending record is commit_interval old (the historical
//            behavior; the loss window is up to a whole interval of acked
//            mutations).
//
// In every mode, acked-durable ops (fsync/SyncAll returned Ok, or any op in
// sync mode) are never lost; crash recovery treats a torn group tail
// exactly like a torn single frame (ParseJournal stops at the first
// incomplete/corrupt frame — those bytes never committed). A forwarded op
// is journaled by the directory's leader, not by the client that issued
// it, so fsync commits at that leader (a kCommitDir op), and SyncAll does
// the same for every directory the client forwarded a mutation to.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "journal/record.h"

namespace arkfs::journal {

enum class DurabilityMode : std::uint8_t {
  kSync = 0,
  kGroup = 1,
  kAsync = 2,
};

const char* DurabilityModeName(DurabilityMode mode);

// Parses "sync" / "group" / "async" (the ARKFS_DURABILITY env knob and
// bench flags go through this).
Result<DurabilityMode> ParseDurabilityMode(std::string_view name);

// Approximate framed size of one record, for dirty-window byte accounting.
// The sequencing (add) and drain (subtract) sides both use this same
// estimate, so the window always sums back to zero when empty — it needs to
// be stable per record, not byte-exact against the wire encoding.
std::uint64_t ApproxRecordBytes(const Record& r);
std::uint64_t ApproxRecordBytes(const std::vector<Record>& records);

struct GroupWindowLimits {
  std::uint64_t max_records = 512;
  std::uint64_t max_bytes = 1 << 20;
  Nanos max_age = Millis(50);
  // Backpressure never parks an appender longer than this, even if the
  // flusher is wedged on a store outage: the window bound is a throttle,
  // not a hang. Overshoot past the bound is limited to what the stalled
  // appenders themselves carry, and the records are still redriven by the
  // flusher once the store heals.
  Nanos max_stall = Millis(500);
};

// Tracks the sequenced-but-unflushed records across all directories of one
// JournalManager: appenders report window growth and (in group mode) block
// while it exceeds its bounds; the flusher parks here until the next
// directory falls due.
class GroupWindow {
 public:
  struct Depth {
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
    Nanos oldest_age = Nanos{0};
  };

  explicit GroupWindow(GroupWindowLimits limits) : limits_(limits) {}

  // Wakes every waiter; subsequent waits return immediately (shutdown).
  void Close();

  // Appender: `records` newly sequenced records totaling `bytes` estimated
  // bytes joined the window, due for a commit at `due` (default: at once).
  void NoteSequenced(std::uint64_t records, std::uint64_t bytes,
                     TimePoint due = TimePoint::min());

  // Pending records fall due at `due` (max: never). Wakes the flusher only
  // if it is parked past `due`.
  void NoteDue(TimePoint due);

  // Records left the window — made durable by a commit, or dropped at
  // deposition/reset (either way they are no longer pending).
  void NoteDrained(std::uint64_t records, std::uint64_t bytes);

  // Appender: blocks while the window exceeds any limit (capped at
  // max_stall total). Returns true if it had to wait at all.
  bool Backpressure();

  // Flusher: parks until `deadline` or the earliest due time announced since
  // the previous return, whichever comes first. Each return consumes the
  // announcements, so the caller rescans its directories afterwards. Returns
  // false once closed, regardless of remaining depth.
  bool AwaitDirty(TimePoint deadline = TimePoint::max());

  Depth depth() const;
  const GroupWindowLimits& limits() const { return limits_; }

 private:
  bool OverLimitLocked(TimePoint now) const;

  const GroupWindowLimits limits_;
  mutable std::mutex mu_;
  std::condition_variable dirty_cv_;    // appenders -> flusher
  std::condition_variable drained_cv_;  // drains -> backpressured appenders
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  // Arrival time of the oldest pending record; valid while records_ > 0.
  // Partial drains keep the old stamp (conservative: age never under-reads).
  TimePoint oldest_{};
  // Earliest due time announced since the flusher last returned from
  // AwaitDirty, and the time that flusher is parked until (min while it is
  // not parked, so announcements then never notify).
  TimePoint due_ = TimePoint::max();
  TimePoint parked_until_ = TimePoint::min();
  bool closed_ = false;
};

}  // namespace arkfs::journal
