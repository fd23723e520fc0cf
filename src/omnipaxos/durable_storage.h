// Write-ahead-logged Storage backend over the segmented group-commit WAL.
//
// The fail-recovery model (§3) requires the promised round, accepted round,
// log, and decided index to survive crashes. DurableStorage journals every
// mutation as one record into a wal::SegmentedWal (segment framing, group
// commit, rotation and recovery live there — see src/wal/segmented_wal.h and
// DESIGN.md §17); this layer owns the record payload encodings and the
// replay semantics. Payloads are encoded straight into the WAL's group-commit
// buffer, with no intermediate vector per mutation.
//
// Record payloads (little-endian, no alignment; the [type][len][crc] frame
// is the WAL's):
//   kPromise / kAccepted : Ballot {u64 n, u32 priority, i32 pid}
//   kAppendBatch         : u32 n, Entry × n — one per Append/AppendAll call
//                          (so one per replicated batch); split only above
//                          1 MiB of entries. Entry = {u64 cmd_id, u32 payload,
//                          u8 is_ss, [u32 next_config, u32 n, i32 pid × n]}
//   kAppend              : one Entry — written by older builds; replayed so
//                          their journals still recover
//   kTruncate            : u64 new_len (the suffix follows as kAppendBatch)
//   kDecide              : u64 decided_idx
//   kTrim                : u64 trim_idx (compaction boundary; prefix dropped)
//   kSnapshot            : Ballot accepted, u64 up_to, u32 n, Entry × n
//                          (atomic ResetToSnapshot: round + boundary + suffix)
//   kCheckpoint          : Ballot promised, Ballot accepted, u64 compacted,
//                          u64 decided, u32 n, Entry × n — complete state,
//                          written as the first record of a rotated segment
//                          so everything older can be deleted.
//
// Mutations buffer in the WAL's group-commit buffer; Sync() issues the one
// fdatasync that makes them durable (the TCP server calls it once per event
// loop pass, before any vote leaves). A failed write or fsync poisons the
// WAL: Sync() returns false and any further mutation refuses loudly
// (OPX_CHECK), never silently diverging from disk.
#ifndef SRC_OMNIPAXOS_DURABLE_STORAGE_H_
#define SRC_OMNIPAXOS_DURABLE_STORAGE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/omnipaxos/storage.h"
#include "src/wal/env.h"
#include "src/wal/segmented_wal.h"

namespace opx::omni {

class DurableStorage final : public Storage {
 public:
  // Creates a fresh storage journaling into `dir` (any existing WAL files
  // there are deleted). Use Recover() to resume from an existing WAL. If the
  // WAL cannot be created, returns nullptr with *error set, or CHECK-fails
  // when `error` is null.
  static std::unique_ptr<DurableStorage> Create(wal::Env* env, const std::string& dir,
                                                const wal::WalOptions& options = {},
                                                std::string* error = nullptr);

  // Rebuilds storage state from the WAL in `dir` and reopens it for
  // appending; zero padding or a torn tail after the active segment's last
  // record is cut. Returns
  // nullptr either when there is nothing to recover (*error, if given, left
  // empty) or when the WAL is corrupt (*error describes the refusal —
  // callers must not quietly re-Create over an unreadable journal).
  static std::unique_ptr<DurableStorage> Recover(wal::Env* env, const std::string& dir,
                                                 const wal::WalOptions& options = {},
                                                 std::string* error = nullptr);

  // PosixEnv conveniences.
  static std::unique_ptr<DurableStorage> Create(const std::string& dir);
  static std::unique_ptr<DurableStorage> Recover(const std::string& dir);

  ~DurableStorage() override;

  void set_promised_round(const Ballot& b) override;
  void set_accepted_round(const Ballot& b) override;
  void Append(Entry e) override;
  void AppendAll(std::span<const Entry> entries) override;
  void TruncateAndAppend(LogIndex len, std::span<const Entry> suffix) override;
  void set_decided_idx(LogIndex idx) override;
  void Trim(LogIndex idx) override;
  void ResetToSnapshot(const Ballot& accepted, LogIndex up_to,
                       std::span<const Entry> suffix) override;
  // Re-expose the base initializer_list conveniences hidden by the overrides.
  using Storage::AppendAll;
  using Storage::TruncateAndAppend;
  using Storage::ResetToSnapshot;

  // Group commit: writes buffered records and fdatasyncs them in one flush.
  // False if the WAL is (or just became) poisoned — the caller must treat
  // unsynced mutations as not durable.
  bool Sync();

  bool ok() const { return wal_->ok(); }
  const std::string& wal_error() const { return wal_->error(); }
  bool HasPending() const override { return wal_->HasPending(); }
  const std::string& dir() const { return wal_->dir(); }

  // The underlying WAL, for tests and tooling (segment counts, sizes).
  wal::SegmentedWal& wal() { return *wal_; }

 private:
  explicit DurableStorage(std::unique_ptr<wal::SegmentedWal> wal);

  std::vector<uint8_t> EncodeCheckpoint() const;
  void WireCheckpoint();

  std::unique_ptr<wal::SegmentedWal> wal_;
};

// Renders one WAL record payload for wal_inspect's record listing ("append
// cmd=7 payload=64", "checkpoint compacted=3 decided=9 entries=6", ...).
// Empty string for an unknown type or an undecodable payload.
std::string DescribeWalRecord(uint8_t type, const uint8_t* payload, size_t len);

// Order-sensitive hash of the durable fields (rounds, compaction boundary,
// decided index, suffix entries). Two storages with equal fingerprints carry
// identical recoverable state — the chaos harness checks WAL recovery
// against the pre-crash storage with this.
uint64_t StorageFingerprint(const Storage& s);

}  // namespace opx::omni

#endif  // SRC_OMNIPAXOS_DURABLE_STORAGE_H_
