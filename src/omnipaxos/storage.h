// Persistent state of a Sequence Paxos server.
//
// In the fail-recovery model (§3) the promised round, accepted round, log, and
// decided index survive crashes. Storage owns exactly that state; a recovering
// server is rebuilt from its Storage (see SequencePaxos::Recover in tests and
// the cluster harness). The interface mirrors the storage trait of the
// reference Rust crate so alternative backends (e.g., a real WAL) can slot in.
//
// Mutators take std::span<const Entry> so callers can hand over views into
// shared immutable segments (EntrySegment) without materializing vectors;
// SharedSuffix() is the zero-copy counterpart of Suffix() used by the leader's
// replication fan-out.
#ifndef SRC_OMNIPAXOS_STORAGE_H_
#define SRC_OMNIPAXOS_STORAGE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "src/omnipaxos/ballot.h"
#include "src/omnipaxos/entry.h"
#include "src/util/check.h"
#include "src/util/log_index.h"
#include "src/util/types.h"

namespace opx::omni {

class Storage {
 public:
  Storage() = default;
  virtual ~Storage() = default;

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  // --- Rounds -----------------------------------------------------------
  const Ballot& promised_round() const { return promised_round_; }
  virtual void set_promised_round(const Ballot& b) {
    OPX_CHECK_GE(b, promised_round_);
    promised_round_ = b;
  }

  const Ballot& accepted_round() const { return accepted_round_; }
  virtual void set_accepted_round(const Ballot& b) {
    OPX_CHECK_GE(b, accepted_round_);
    accepted_round_ = b;
  }

  // --- Log --------------------------------------------------------------
  // Logical log length (including any compacted prefix).
  LogIndex log_len() const { return util::IndexEnd(compacted_idx_, log_.size()); }
  // In-memory tail: entries [compacted_idx(), log_len()).
  const std::vector<Entry>& log() const { return log_; }
  // First logical index still held in memory (everything below was trimmed).
  LogIndex compacted_idx() const { return compacted_idx_; }

  const Entry& At(LogIndex idx) const {
    OPX_CHECK_GE(idx, compacted_idx_) << "entry was compacted away";
    OPX_CHECK_LT(idx, log_len());
    return log_[util::FloorOffset(idx, compacted_idx_)];
  }

  virtual void Append(Entry e) {
    ++log_version_;
    log_.push_back(std::move(e));
  }

  virtual void AppendAll(std::span<const Entry> entries) {
    ++log_version_;
    log_.insert(log_.end(), entries.begin(), entries.end());
  }
  void AppendAll(std::initializer_list<Entry> entries) {
    AppendAll(std::span<const Entry>(entries.begin(), entries.size()));
  }

  // Truncates the log to `len` entries, then appends `suffix`. Used when a
  // follower adopts the leader's log in <AcceptSync>; never cuts below the
  // decided prefix (decided entries are immutable, SC3).
  virtual void TruncateAndAppend(LogIndex len, std::span<const Entry> suffix) {
    OPX_CHECK_GE(len, decided_idx_);
    OPX_CHECK_LE(len, log_len());
    ++log_version_;
    log_.resize(util::FloorOffset(len, compacted_idx_));
    log_.insert(log_.end(), suffix.begin(), suffix.end());
  }
  void TruncateAndAppend(LogIndex len, std::initializer_list<Entry> suffix) {
    TruncateAndAppend(len, std::span<const Entry>(suffix.begin(), suffix.size()));
  }

  // Copy of log[from..), used where the caller needs an independent vector.
  // `from` must not reach into the compacted prefix (check compacted_idx()
  // first). Replication fan-out should use SharedSuffix() instead.
  std::vector<Entry> Suffix(LogIndex from) const {
    if (from >= log_len()) {
      return {};
    }
    OPX_CHECK_GE(from, compacted_idx_) << "suffix reaches into compacted prefix";
    return std::vector<Entry>(
        log_.begin() + static_cast<ptrdiff_t>(util::FloorOffset(from, compacted_idx_)),
        log_.end());
  }

  // Shared immutable view of log[from..): one snapshot is materialized and
  // memoized; repeated calls while the log is unmutated — the leader building
  // the same AcceptDecide/AcceptSync body for N followers at their individual
  // offsets — return offset views into that single buffer instead of N
  // copies. Any log mutation invalidates the memo (log_version_), so a
  // handed-out segment is never aliased by later writes.
  EntrySegment SharedSuffix(LogIndex from) const {
    if (from >= log_len()) {
      return {};
    }
    OPX_CHECK_GE(from, compacted_idx_) << "suffix reaches into compacted prefix";
    if (suffix_cache_ == nullptr || suffix_cache_version_ != log_version_ ||
        suffix_cache_from_ > from) {
      suffix_cache_ = std::make_shared<const std::vector<Entry>>(
          log_.begin() + static_cast<ptrdiff_t>(util::FloorOffset(from, compacted_idx_)),
          log_.end());
      suffix_cache_from_ = from;
      suffix_cache_version_ = log_version_;
    }
    return EntrySegment(suffix_cache_, from - suffix_cache_from_, log_len() - from);
  }

  // --- Compaction ----------------------------------------------------------
  // Drops entries below `idx` from memory. Only the decided prefix may be
  // trimmed (decided entries are immutable and recoverable from peers or an
  // application snapshot).
  virtual void Trim(LogIndex idx) {
    OPX_CHECK_LE(idx, decided_idx_) << "only the decided prefix may be trimmed";
    if (idx <= compacted_idx_) {
      return;
    }
    ++log_version_;
    log_.erase(log_.begin(),
               log_.begin() + static_cast<ptrdiff_t>(util::FloorOffset(idx, compacted_idx_)));
    compacted_idx_ = idx;
  }

  // Replaces the entire log with "snapshot up to `up_to`" + `suffix`:
  // entries below up_to are summarized away (the receiver installs the
  // corresponding application snapshot); the decided index advances to at
  // least up_to. Used when a leader has trimmed below a follower's sync point.
  //
  // The install is one atomic transition: the accepted round the suffix was
  // shipped under lands together with the log so a persistent backend can
  // journal (and recovery can replay) them as a single record — a crash
  // between "new log" and "new round" can never be observed. Invariants:
  // the decided prefix is immutable (up_to >= decided), compaction is
  // monotone (up_to >= compacted), and the accepted round never regresses.
  virtual void ResetToSnapshot(const Ballot& accepted, LogIndex up_to,
                               std::span<const Entry> suffix) {
    OPX_CHECK_GE(up_to, decided_idx_) << "snapshot must cover the decided prefix";
    OPX_CHECK_GE(up_to, compacted_idx_) << "snapshot below the compaction floor";
    OPX_CHECK_GE(accepted, accepted_round_);
    ++log_version_;
    accepted_round_ = accepted;
    compacted_idx_ = up_to;
    log_.assign(suffix.begin(), suffix.end());
    decided_idx_ = up_to;
  }
  void ResetToSnapshot(const Ballot& accepted, LogIndex up_to,
                       std::initializer_list<Entry> suffix) {
    ResetToSnapshot(accepted, up_to,
                    std::span<const Entry>(suffix.begin(), suffix.size()));
  }

  // --- Decided prefix ----------------------------------------------------
  LogIndex decided_idx() const { return decided_idx_; }
  virtual void set_decided_idx(LogIndex idx) {
    OPX_CHECK_GE(idx, decided_idx_);
    OPX_CHECK_LE(idx, log_len());
    decided_idx_ = idx;
  }

  // --- Durability -----------------------------------------------------------
  // True while some mutation is applied in memory but not yet durable (a
  // persistent backend between a mutation and its group commit). A leader
  // counts its own acceptance toward a majority only while this is false
  // (SequencePaxos::OnDurable). In-memory storage is never pending.
  virtual bool HasPending() const { return false; }

 protected:
  // Restores state without consistency checks (recovery paths of derived
  // persistent implementations). `log` holds only the physical suffix
  // [compacted, compacted + log.size()); a trimmed server legally recovers
  // with decided > log.size(), so all bounds are against the logical length.
  void RestoreForRecovery(Ballot promised, Ballot accepted, LogIndex compacted,
                          std::vector<Entry> log, LogIndex decided) {
    promised_round_ = promised;
    accepted_round_ = accepted;
    ++log_version_;
    log_ = std::move(log);
    compacted_idx_ = compacted;
    OPX_CHECK_GE(decided, compacted) << "decided index below the compaction floor";
    OPX_CHECK_LE(decided, compacted + log_.size());
    decided_idx_ = decided;
  }

 private:
  Ballot promised_round_;
  Ballot accepted_round_;
  std::vector<Entry> log_;       // entries [compacted_idx_, log_len())
  LogIndex compacted_idx_ = 0;
  LogIndex decided_idx_ = 0;

  // Bumped on every log mutation; guards the SharedSuffix memo.
  uint64_t log_version_ = 0;
  mutable std::shared_ptr<const std::vector<Entry>> suffix_cache_;
  mutable LogIndex suffix_cache_from_ = 0;
  mutable uint64_t suffix_cache_version_ = 0;
};

}  // namespace opx::omni

#endif  // SRC_OMNIPAXOS_STORAGE_H_
