// FaultFs — a deterministic, fully in-memory wal::Env with fault injection.
//
// Three fault axes, each independently scriptable:
//
//   - Write budget: after `set_write_budget(n)`, only the first n payload
//     bytes of Append() calls land; the call that crosses the budget lands a
//     short prefix and returns false (torn record), later appends land
//     nothing. Models a disk that dies mid-write. The zeros a growing
//     TruncateFile() lays are not payload and do not count.
//   - Failed fsyncs: `set_sync_failures_after(n)` lets the first n Sync()
//     calls succeed and fails every later one. Models a dying device whose
//     cache can no longer be flushed.
//   - Crash-at-byte-N cuts: every state-changing operation is journaled in
//     order, so `CutAtByte(n)` re-materializes the filesystem as it would
//     look if the process had been killed the instant the n-th appended byte
//     landed — the append crossing (or exactly exhausting) the cut lands a
//     prefix, and every operation after it (including renames and deletes)
//     never happened. `CutAtOp(k)` cuts between operations instead, making
//     the windows byte cuts cannot reach (after a rename, before the
//     directory sync; between deletes) enumerable. With drop_unsynced, a file
//     goes back to what its last successful Sync() saw (lost page cache):
//     bytes it gained since are discarded, and bytes written since over older
//     ones regain their old values — so the zero padding of a WAL segment,
//     once synced, survives, and a power loss leaves zeros past the synced
//     logical end rather than a shorter file. Renames/deletes issued after
//     the directory's last successful SyncDir() are rolled back (lost
//     directory metadata). A shrinking TruncateFile() is durable at once.
//
// Each AppendFile handle writes at its own position (env.h), so a segment
// with zeros laid ahead by TruncateFile() is modelled exactly as PosixEnv
// lays it out on disk.
//
// Everything is std::map/std::vector state — no clocks, no randomness — so a
// given operation sequence always yields bit-identical files. The chaos
// harness leans on that: WAL-backed simulation runs must replay with the
// same EventHash fingerprint as memory-backed ones.
#ifndef SRC_WAL_FAULT_FS_H_
#define SRC_WAL_FAULT_FS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/wal/env.h"

namespace opx::wal {

class FaultFs final : public Env {
 public:
  FaultFs() = default;

  // --- Env ----------------------------------------------------------------
  std::unique_ptr<AppendFile> OpenAppend(const std::string& path) override;
  bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) override;
  bool ListDir(const std::string& dir, std::vector<std::string>* names) override;
  bool CreateDir(const std::string& dir) override;
  bool DeleteFile(const std::string& path) override;
  bool RenameFile(const std::string& from, const std::string& to) override;
  bool TruncateFile(const std::string& path, uint64_t size) override;
  bool FileExists(const std::string& path) override;
  bool SyncDir(const std::string& dir) override;

  // --- Fault injection ------------------------------------------------------
  // Total Append() payload bytes allowed to land from now on; kNoLimit lifts
  // the cap again.
  static constexpr uint64_t kNoLimit = ~0ull;
  void set_write_budget(uint64_t bytes) { write_budget_ = bytes; }

  // The first `n` Sync()/SyncDir() calls (counted from now) succeed; later
  // ones fail.
  void set_sync_failures_after(uint64_t n) { syncs_allowed_ = n; }
  void clear_sync_failures() { syncs_allowed_ = kNoLimit; }

  // XORs 0xff into one byte of `path` (post-hoc corruption for recovery
  // tests; not journaled, so apply it after any CutAtByte). False if the
  // file is missing or shorter than offset+1.
  bool CorruptByte(const std::string& path, uint64_t offset);

  // --- Crash simulation -----------------------------------------------------
  // Payload bytes successfully landed by Append() since construction — the
  // exclusive upper bound for CutAtByte sweeps.
  uint64_t total_appended() const { return total_appended_; }

  // Journal length so far — the exclusive upper bound for CutAtOp sweeps.
  size_t journal_ops() const { return journal_.size(); }

  // The filesystem as it would look after a crash at `byte_budget` landed
  // bytes (see header comment). A budget that is exhausted exactly at an
  // append boundary still cuts there: nothing after that append happened.
  std::unique_ptr<FaultFs> CutAtByte(uint64_t byte_budget, bool drop_unsynced = false) const;

  // The filesystem as it would look after a crash between journal op
  // `op_count - 1` and op `op_count` — the first `op_count` ops happened in
  // full, nothing later did.
  std::unique_ptr<FaultFs> CutAtOp(size_t op_count, bool drop_unsynced = false) const;

 private:
  friend class FaultAppendFile;

  struct FileState {
    std::vector<uint8_t> bytes;
    uint64_t synced_size = 0;  // bytes.size() at the last successful Sync()
    // Writes since that Sync() below synced_size, each with the bytes it
    // overwrote, oldest first: what a power loss puts back.
    std::vector<std::pair<uint64_t, std::vector<uint8_t>>> overwritten;

    void Write(uint64_t at, const uint8_t* data, size_t len);
    void Resize(uint64_t size);
    void MarkSynced();
    void DropUnsynced();
  };

  struct Op {
    enum Kind : uint8_t { kAppend, kDelete, kRename, kTruncate, kSync, kMkdir, kSyncDir };
    Kind kind;
    std::string a, b;            // path (and rename target)
    std::vector<uint8_t> bytes;  // kAppend payload actually landed
    uint64_t size = 0;           // kTruncate size; kAppend file offset
  };

  // Writes at offset `at`; returns bytes landed (may be < len under a write
  // budget).
  size_t DoAppend(const std::string& path, uint64_t at, const uint8_t* data, size_t len);
  bool DoSync(const std::string& path);

  // Shared CutAtByte/CutAtOp materializer: replays the first `op_count`
  // journal ops, with only `last_append_bytes` of the final op landing when
  // it is an append cut mid-write (kNoLimit = in full).
  std::unique_ptr<FaultFs> Materialize(size_t op_count, uint64_t last_append_bytes,
                                       bool drop_unsynced) const;

  std::map<std::string, FileState> files_;
  std::set<std::string> dirs_;
  std::vector<Op> journal_;

  uint64_t write_budget_ = kNoLimit;
  uint64_t syncs_allowed_ = kNoLimit;
  uint64_t total_appended_ = 0;
};

}  // namespace opx::wal

#endif  // SRC_WAL_FAULT_FS_H_
