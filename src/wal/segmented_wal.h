// SegmentedWal — fixed-size append-only segments with group commit.
//
// On-disk layout (DESIGN.md §17). A WAL directory holds segments named
// wal-<seq>.seg with strictly contiguous sequence numbers; only the
// highest-numbered segment is written.
//
//   segment  := header record*
//   header   := [magic "OPXWAL01"][u64 seq][u32 crc]          (20 bytes)
//   record   := [u8 type][u32 len][payload len bytes][u32 crc]
//
// Both CRCs are Castagnoli CRC32 (crc32c.h) over everything before them,
// little-endian like the rest of the format. Record types and payload
// encodings belong to the caller (DurableStorage); this layer frames,
// checksums, batches, and recovers opaque records. AppendRecordInPlace() lets
// the caller encode a payload straight into the group-commit buffer.
//
// Group commit: AppendRecord() only buffers. Commit() writes the buffered
// batch with one Append and one Sync (fdatasync) — a whole event-loop pass
// of mutations costs a single disk flush. sync_every_bytes /
// sync_every_records bound how much can sit unsynced: crossing a threshold
// flushes immediately (without rotating — see below).
//
// Padding: the active segment keeps zeros written past its logical end (the
// end of its last record), up to the next kSegmentPadBytes boundary. Each
// commit lands at the logical end inside them, so its fdatasync flushes data
// pages only; it does not also persist a new file size and new blocks. The
// commit that crosses the padded end lays the next chunk (Env::TruncateFile
// grows a file with written zeros) and pays for its writeback, unless the
// segment is due to rotate at the next commit boundary. Padding is
// advisory: if the zeros cannot be written, the commits up to that boundary
// grow the file as they did before padding existed.
//
// Rotation: when the active segment outgrows segment_bytes, the writer seals
// it — cuts its padding and syncs, so a sealed segment ends at its last
// record — and starts segment seq+1 whose first record is a checkpoint (a caller-
// encoded record capturing the complete state), written to wal-<seq+1>.seg.tmp,
// synced, renamed into place, and the directory fsync'd — POSIX orders
// nothing across metadata ops, so without it a power loss could persist the
// later unlinks but not the rename. Only then are all older segments deleted
// (ascending), followed by a second directory fsync. Every crash point thus
// leaves either the old chain or the new self-contained segment intact.
// Rotation happens only at explicit Commit()/MaybeCompact() boundaries,
// never inside AppendRecord's threshold flush: a mutator journals its record
// before applying it to memory, and a checkpoint taken in that window would
// miss the in-flight mutation.
//
// Recovery (Open): list segments, require contiguous seqs, replay records in
// order. In the *last* segment, whatever follows the last valid record is cut
// away: all zeros is padding, a clean end; anything else is a torn or corrupt
// tail (crash mid-append). An all-zero frame never passes the CRC, so
// padding always ends the replay. After the cut nothing lies past the
// logical end, so no stale CRC-valid frame can end up behind new records.
// Any damage in a sealed segment — padding included — or a gap in the chain
// is refused loudly with an error, because sealed bytes were fdatasync'd
// and acknowledged: silently dropping them could un-decide entries. A
// CRC-valid record the replay sink refuses is refused loudly even in the
// last segment: a fully-framed record may have been group-committed and
// acknowledged, so truncating it on a semantic objection could un-decide
// entries just the same.
#ifndef SRC_WAL_SEGMENTED_WAL_H_
#define SRC_WAL_SEGMENTED_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/wal/crc32c.h"
#include "src/wal/env.h"

namespace opx::wal {

struct WalOptions {
  // Rotation threshold for the active segment. Rotation also requires the
  // checkpoint estimate to fit in half a segment, so a state too large to
  // checkpoint compactly just keeps growing the active segment (no quadratic
  // re-copying).
  uint64_t segment_bytes = 1 << 20;
  // Group-commit caps: crossing either triggers an immediate write+sync of
  // the buffered batch. 0 = unbounded (only explicit Commit()/Sync() flush).
  uint64_t sync_every_bytes = 256 * 1024;
  uint64_t sync_every_records = 4096;
};

inline constexpr size_t kSegmentHeaderSize = 8 + 8 + 4;
inline constexpr char kSegmentMagic[9] = "OPXWAL01";  // 8 bytes + NUL
inline constexpr size_t kRecordFrameBytes = 1 + 4 + 4;  // type + len + crc
// Records larger than this are treated as corruption, bounding what a torn
// length field can make recovery try to skip.
inline constexpr uint32_t kMaxRecordBytes = 64u << 20;
// Zeros are laid ahead of the active segment's logical end up to the next
// multiple of this (see "Padding" above). Of 64 KiB, 256 KiB and 1 MiB, the
// three gave wal-write p50s within noise of each other and 256 KiB the
// highest throughput in most rounds (EXPERIMENTS.md, "Preallocated
// segments"); a smaller chunk keeps the commit that lays it shorter.
inline constexpr uint64_t kSegmentPadBytes = 256 << 10;

std::string SegmentFileName(uint64_t seq);
bool ParseSegmentFileName(const std::string& name, uint64_t* seq);
// Validates magic + CRC of a segment header; returns the stored seq.
bool CheckSegmentHeader(const uint8_t* data, size_t len, uint64_t* seq);

class SegmentedWal {
 public:
  // Replay sink: must apply the record, returning false to refuse it.
  // Refusing any CRC-valid record — sealed or last segment alike — fails
  // recovery with an error; only frames that fail CRC/framing are treated as
  // a torn tail.
  using ReplayFn = std::function<bool(uint8_t type, const uint8_t* payload, size_t len)>;
  // Encodes the complete current state as one (type, payload) record; its
  // replay must fully reset state so older segments become deletable.
  using CheckpointFn = std::function<std::pair<uint8_t, std::vector<uint8_t>>()>;

  // Any wal-*.seg present under dir?
  static bool Exists(Env* env, const std::string& dir);

  // Opens the WAL in `dir` (creating dir and a first segment if empty),
  // replaying every existing record through `replay`. On unrecoverable
  // corruption returns nullptr with a description in *error.
  static std::unique_ptr<SegmentedWal> Open(Env* env, std::string dir, WalOptions options,
                                            const ReplayFn& replay, std::string* error);

  // Deletes any existing wal files in `dir` and opens fresh.
  static std::unique_ptr<SegmentedWal> CreateFresh(Env* env, std::string dir,
                                                   WalOptions options, std::string* error);

  // Wires the checkpoint source; rotation is disabled until this is set.
  // estimate_bytes must be cheap (called on every commit boundary).
  void set_checkpoint(CheckpointFn encode, std::function<uint64_t()> estimate_bytes);

  // Buffers one record; may trigger a threshold flush (write + sync, no
  // rotation). A failed flush poisons the WAL (ok() false).
  void AppendRecord(uint8_t type, const uint8_t* payload, size_t len);

  // AppendRecord without a payload copy: `fill(uint8_t* payload)` must write
  // exactly `len` bytes, in place in the group-commit buffer.
  template <typename Fill>
  void AppendRecordInPlace(uint8_t type, size_t len, const Fill& fill) {
    if (!ok_) {
      return;
    }
    const size_t payload_at = OpenRecord(type, len);
    fill(buffer_.data() + payload_at);
    SealRecord(payload_at);
  }

  // Writes and fdatasyncs the buffered batch, then rotates if the active
  // segment is over budget. False (and poisoned) on I/O failure.
  bool Commit();

  // Commit, then rotate if a checkpoint would reclaim most of the WAL —
  // called after Trim/ResetToSnapshot shrank the live state, so fully
  // trimmed segments get deleted.
  bool MaybeCompact();

  // False once any write or sync has failed: the journal no longer reflects
  // every mutation and must not be trusted or appended to.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  bool HasPending() const { return !buffer_.empty(); }
  const std::string& dir() const { return dir_; }
  uint64_t active_seq() const { return seq_; }
  // Logical size of the active segment: its header and written records, not
  // the zeros laid past them.
  uint64_t active_size() const { return active_ == nullptr ? 0 : active_->size(); }
  // Segments currently on disk, including the active one.
  uint64_t segment_count() const { return closed_.size() + 1; }
  // Logical bytes across all segments plus the unflushed buffer.
  uint64_t TotalBytes() const;

 private:
  SegmentedWal(Env* env, std::string dir, WalOptions options)
      : env_(env), dir_(std::move(dir)), options_(options) {}

  std::string PathFor(uint64_t seq) const { return dir_ + "/" + SegmentFileName(seq); }
  // Frames a record of `len` payload bytes at the end of the buffer and
  // returns the buffer offset of its payload; SealRecord() then checksums
  // the record and applies the group-commit thresholds.
  size_t OpenRecord(uint8_t type, size_t len);
  void SealRecord(size_t payload_at);
  bool WriteAndSync();     // flush buffer to the active segment, no rotation
  bool RotationDue() const;  // over budget, and a checkpoint fits
  void MaybeRotate();      // rotate if RotationDue()
  void Rotate();           // seal, checkpoint into a fresh segment, delete older ones
  void Poison(const std::string& why);

  Env* env_;
  std::string dir_;
  WalOptions options_;

  std::unique_ptr<AppendFile> active_;
  uint64_t padded_end_ = 0;  // physical end of the active segment once padded
  uint64_t seq_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> closed_;  // (seq, bytes) of sealed segments

  std::vector<uint8_t> buffer_;
  uint64_t buffered_records_ = 0;

  CheckpointFn checkpoint_;
  std::function<uint64_t()> checkpoint_estimate_;

  bool ok_ = true;
  std::string error_;
};

}  // namespace opx::wal

#endif  // SRC_WAL_SEGMENTED_WAL_H_
