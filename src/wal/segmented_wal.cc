#include "src/wal/segmented_wal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "src/util/le_bytes.h"

namespace opx::wal {

namespace {

// Appends a [type][len][payload][crc] frame of `len` payload bytes to `out`
// and returns its offset; the caller fills the payload, then SealFrame.
size_t OpenFrame(std::vector<uint8_t>* out, uint8_t type, size_t len) {
  const size_t start = out->size();
  out->resize(start + kRecordFrameBytes + len);
  (*out)[start] = type;
  util::StoreU32(out->data() + start + 1, static_cast<uint32_t>(len));
  return start;
}

// Checksums the frame opened at `start`, the last one in `out`.
void SealFrame(std::vector<uint8_t>* out, size_t start) {
  const size_t crc_at = out->size() - 4;
  util::StoreU32(out->data() + crc_at, Crc32c(out->data() + start, crc_at - start));
}

std::vector<uint8_t> EncodeHeader(uint64_t seq) {
  std::vector<uint8_t> out(kSegmentMagic, kSegmentMagic + 8);
  util::PutU64(&out, seq);
  util::PutU32(&out, Crc32c(out.data(), out.size()));
  return out;
}

void FrameRecord(std::vector<uint8_t>* out, uint8_t type, const uint8_t* payload,
                 size_t len) {
  const size_t start = OpenFrame(out, type, len);
  if (len > 0) {
    std::memcpy(out->data() + start + 5, payload, len);
  }
  SealFrame(out, start);
}

// Outcome of WriteSegmentAtomically. kFailedDirty means the segment was
// renamed into place but the directory fsync making the rename durable
// failed — the caller cannot know whether a crash would surface the new
// segment, so it must stop writing rather than let disk and memory diverge.
enum class SegmentWrite { kOk, kFailedClean, kFailedDirty };

// Writes a complete segment file (header + optional first record) atomically:
// everything goes to <path>.tmp, is synced, renamed into place, and the
// parent directory is fsync'd so the rename itself is durable (POSIX orders
// nothing across metadata ops without it).
SegmentWrite WriteSegmentAtomically(Env* env, const std::string& dir,
                                    const std::string& path, uint64_t seq,
                                    const std::vector<uint8_t>& first_records) {
  const std::string tmp = path + ".tmp";
  if (env->FileExists(tmp)) {
    env->DeleteFile(tmp);
  }
  std::unique_ptr<AppendFile> f = env->OpenAppend(tmp);
  if (f == nullptr) {
    return SegmentWrite::kFailedClean;
  }
  const std::vector<uint8_t> header = EncodeHeader(seq);
  const bool written = f->Append(header.data(), header.size()) &&
                       (first_records.empty() ||
                        f->Append(first_records.data(), first_records.size())) &&
                       f->Sync();
  f.reset();
  if (!written || !env->RenameFile(tmp, path)) {
    env->DeleteFile(tmp);
    return SegmentWrite::kFailedClean;
  }
  return env->SyncDir(dir) ? SegmentWrite::kOk : SegmentWrite::kFailedDirty;
}

}  // namespace

std::string SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "wal-%08llu.seg", static_cast<unsigned long long>(seq));
  return buf;
}

bool ParseSegmentFileName(const std::string& name, uint64_t* seq) {
  if (name.size() < 10 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(name.size() - 4, 4, ".seg") != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < name.size() - 4; ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(name[i] - '0');
    // Reject digit runs that wrap uint64: a wrapped seq could alias a real
    // one and corrupt the chain-contiguity check.
    if (v > (~0ull - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
  }
  *seq = v;
  return true;
}

bool CheckSegmentHeader(const uint8_t* data, size_t len, uint64_t* seq) {
  if (len < kSegmentHeaderSize) {
    return false;
  }
  if (std::memcmp(data, kSegmentMagic, 8) != 0) {
    return false;
  }
  if (Crc32c(data, 16) != util::GetU32(data + 16)) {
    return false;
  }
  *seq = util::GetU64(data + 8);
  return true;
}

bool SegmentedWal::Exists(Env* env, const std::string& dir) {
  std::vector<std::string> names;
  if (!env->ListDir(dir, &names)) {
    return false;
  }
  uint64_t seq = 0;
  for (const std::string& name : names) {
    if (ParseSegmentFileName(name, &seq)) {
      return true;
    }
  }
  return false;
}

std::unique_ptr<SegmentedWal> SegmentedWal::Open(Env* env, std::string dir,
                                                 WalOptions options, const ReplayFn& replay,
                                                 std::string* error) {
  auto fail = [error](const std::string& why) -> std::unique_ptr<SegmentedWal> {
    if (error != nullptr) {
      *error = why;
    }
    return nullptr;
  };
  if (!env->CreateDir(dir)) {
    return fail("cannot create WAL directory " + dir);
  }
  std::vector<std::string> names;
  if (!env->ListDir(dir, &names)) {
    return fail("cannot list WAL directory " + dir);
  }
  std::vector<std::pair<uint64_t, std::string>> segments;
  bool swept_tmp = false;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (ParseSegmentFileName(name, &seq)) {
      segments.emplace_back(seq, name);
    } else if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // An interrupted rotation or creation never got renamed into place;
      // its contents were never acknowledged.
      env->DeleteFile(dir + "/" + name);
      swept_tmp = true;
    }
  }
  std::sort(segments.begin(), segments.end());
  // Make the sweep durable; when no segment exists yet, the genesis
  // creation's own directory fsync below covers it instead.
  if (swept_tmp && !segments.empty() && !env->SyncDir(dir)) {
    return fail("cannot fsync WAL directory " + dir);
  }

  auto wal = std::unique_ptr<SegmentedWal>(new SegmentedWal(env, std::move(dir), options));

  if (segments.empty()) {
    const uint64_t seq = 1;
    if (WriteSegmentAtomically(env, wal->dir_, wal->PathFor(seq), seq, {}) !=
        SegmentWrite::kOk) {
      return fail("cannot create initial WAL segment in " + wal->dir_);
    }
    wal->seq_ = seq;
    wal->active_ = env->OpenAppend(wal->PathFor(seq));
    if (wal->active_ == nullptr) {
      return fail("cannot open initial WAL segment in " + wal->dir_);
    }
    return wal;
  }

  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first != segments[i].first + 1) {
      std::ostringstream why;
      why << "WAL segment chain has a gap: " << segments[i].second << " is followed by "
          << segments[i + 1].second;
      return fail(why.str());
    }
  }

  std::vector<uint8_t> bytes;
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool last = i + 1 == segments.size();
    const uint64_t seq = segments[i].first;
    const std::string path = wal->dir_ + "/" + segments[i].second;
    if (!env->ReadFileBytes(path, &bytes)) {
      return fail("cannot read WAL segment " + path);
    }
    uint64_t header_seq = 0;
    if (!CheckSegmentHeader(bytes.data(), bytes.size(), &header_seq) || header_seq != seq) {
      // Segments are created via tmp+rename after a sync, so a damaged
      // header is corruption of acknowledged bytes, never a torn creation.
      return fail("corrupt segment header in " + path);
    }
    size_t pos = kSegmentHeaderSize;
    size_t valid_end = pos;
    bool clean = true;
    bool refused = false;  // CRC-valid frame, but the replay sink rejected it
    while (pos < bytes.size()) {
      if (bytes.size() - pos < kRecordFrameBytes) {
        clean = false;
        break;
      }
      const uint8_t type = bytes[pos];
      const uint32_t len = util::GetU32(bytes.data() + pos + 1);
      if (len > kMaxRecordBytes || bytes.size() - pos - kRecordFrameBytes < len) {
        clean = false;
        break;
      }
      if (Crc32c(bytes.data() + pos, 1 + 4 + len) !=
          util::GetU32(bytes.data() + pos + 5 + len)) {
        clean = false;
        break;
      }
      if (!replay(type, bytes.data() + pos + 5, len)) {
        clean = false;
        refused = true;
        break;
      }
      pos += kRecordFrameBytes + len;
      valid_end = pos;
    }
    if (!clean) {
      if (!last) {
        std::ostringstream why;
        why << (refused ? "replay refused record" : "corrupt record")
            << " in sealed WAL segment " << path << " at offset " << pos
            << ": refusing to recover (acknowledged bytes would be dropped)";
        return fail(why.str());
      }
      if (refused) {
        // A CRC-valid record the sink rejects is not a torn tail: it may have
        // been group-committed and acknowledged, so truncating it could
        // un-decide entries. Fail loudly instead — this is a replay bug or
        // semantic corruption, not a crash artifact.
        std::ostringstream why;
        why << "replay refused CRC-valid record in WAL segment " << path << " at offset "
            << pos << ": refusing to truncate acknowledged bytes";
        return fail(why.str());
      }
      // Padding, or the torn tail of a commit the crash interrupted before
      // it was acknowledged: cut either and resume behind the last record.
      if (!env->TruncateFile(path, valid_end)) {
        return fail("cannot truncate WAL tail in " + path);
      }
    }
    if (!last) {
      wal->closed_.emplace_back(seq, bytes.size());
    }
  }

  wal->seq_ = segments.back().first;
  wal->active_ = env->OpenAppend(wal->PathFor(wal->seq_));
  if (wal->active_ == nullptr) {
    return fail("cannot reopen WAL segment " + wal->PathFor(wal->seq_));
  }
  return wal;
}

std::unique_ptr<SegmentedWal> SegmentedWal::CreateFresh(Env* env, std::string dir,
                                                        WalOptions options,
                                                        std::string* error) {
  if (!env->CreateDir(dir)) {
    if (error != nullptr) {
      *error = "cannot create WAL directory " + dir;
    }
    return nullptr;
  }
  std::vector<std::string> names;
  if (env->ListDir(dir, &names)) {
    uint64_t seq = 0;
    for (const std::string& name : names) {
      if (ParseSegmentFileName(name, &seq) ||
          (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0)) {
        env->DeleteFile(dir + "/" + name);
      }
    }
  }
  return Open(env, std::move(dir),
              options, [](uint8_t, const uint8_t*, size_t) { return false; }, error);
}

void SegmentedWal::set_checkpoint(CheckpointFn encode,
                                  std::function<uint64_t()> estimate_bytes) {
  checkpoint_ = std::move(encode);
  checkpoint_estimate_ = std::move(estimate_bytes);
}

void SegmentedWal::AppendRecord(uint8_t type, const uint8_t* payload, size_t len) {
  AppendRecordInPlace(type, len, [payload, len](uint8_t* out) {
    if (len > 0) {
      std::memcpy(out, payload, len);
    }
  });
}

size_t SegmentedWal::OpenRecord(uint8_t type, size_t len) {
  return OpenFrame(&buffer_, type, len) + 5;
}

void SegmentedWal::SealRecord(size_t payload_at) {
  SealFrame(&buffer_, payload_at - 5);
  ++buffered_records_;
  const bool over_bytes =
      options_.sync_every_bytes != 0 && buffer_.size() >= options_.sync_every_bytes;
  const bool over_records =
      options_.sync_every_records != 0 && buffered_records_ >= options_.sync_every_records;
  if (over_bytes || over_records) {
    // Threshold flush: write + sync but never rotate — the caller may be
    // mid-mutation (record journaled, memory not yet updated), and a
    // checkpoint taken now would miss that mutation.
    WriteAndSync();
  }
}

bool SegmentedWal::WriteAndSync() {
  if (!ok_) {
    return false;
  }
  if (buffer_.empty()) {
    return true;
  }
  if (!active_->Append(buffer_.data(), buffer_.size())) {
    Poison("segment append failed in " + PathFor(seq_));
    return false;
  }
  const uint64_t end = active_->size();
  if (end > padded_end_ && !RotationDue()) {
    // Crossed the zeros laid ahead: lay the next chunk, unless the next
    // commit boundary rotates and would only cut it again. A failed or
    // partial write leaves zeros or nothing past `end`; either way
    // padded_end_ bounds what Rotate() must cut.
    padded_end_ = (end / kSegmentPadBytes + 1) * kSegmentPadBytes;
    static_cast<void>(env_->TruncateFile(PathFor(seq_), padded_end_));
  }
  if (!active_->Sync()) {
    Poison("fdatasync failed on " + PathFor(seq_));
    return false;
  }
  buffer_.clear();
  buffered_records_ = 0;
  return true;
}

bool SegmentedWal::Commit() {
  if (!WriteAndSync()) {
    return false;
  }
  MaybeRotate();
  return ok_;
}

bool SegmentedWal::MaybeCompact() {
  if (!WriteAndSync()) {
    return false;
  }
  if (checkpoint_ != nullptr) {
    const uint64_t total = TotalBytes();
    const uint64_t estimate = checkpoint_estimate_();
    // Rotate when a checkpoint would at least halve the on-disk footprint —
    // this is what deletes fully-trimmed segments after Trim/ResetToSnapshot.
    if (total > 2 * estimate + 1024) {
      Rotate();
    }
  }
  return ok_;
}

bool SegmentedWal::RotationDue() const {
  // A state too big to checkpoint compactly keeps extending the active
  // segment; rotating would rewrite ~the whole state per segment_bytes of
  // appends (quadratic I/O).
  return checkpoint_ != nullptr && active_ != nullptr &&
         active_->size() >= options_.segment_bytes &&
         checkpoint_estimate_() <= options_.segment_bytes / 2;
}

void SegmentedWal::MaybeRotate() {
  if (ok_ && RotationDue()) {
    Rotate();
  }
}

void SegmentedWal::Rotate() {
  // Seal first: recovery refuses any bytes past a sealed segment's last
  // record, and the old segment is sealed the moment the new one is renamed
  // into place.
  if (padded_end_ > active_->size()) {
    if (!env_->TruncateFile(PathFor(seq_), active_->size())) {
      return;  // advisory, like a failed segment write below
    }
    padded_end_ = active_->size();
    if (!active_->Sync()) {
      Poison("fdatasync failed on " + PathFor(seq_));
      return;
    }
  }
  const auto [type, payload] = checkpoint_();
  std::vector<uint8_t> first;
  FrameRecord(&first, type, payload.data(), payload.size());

  const uint64_t new_seq = seq_ + 1;
  switch (WriteSegmentAtomically(env_, dir_, PathFor(new_seq), new_seq, first)) {
    case SegmentWrite::kOk:
      break;
    case SegmentWrite::kFailedClean:
      // Rotation is advisory: the old chain is intact and fully synced, so a
      // failed attempt is abandoned rather than poisoning the WAL.
      return;
    case SegmentWrite::kFailedDirty:
      // The new segment may or may not surface after a crash. Writing on
      // through the OLD segment would be unsafe: a recovery that does see the
      // new segment replays its checkpoint LAST, erasing everything appended
      // after this point. Nothing is lost yet (checkpoint == current state),
      // so stop here.
      Poison("directory fsync failed after renaming " + PathFor(new_seq));
      return;
  }
  // The new segment is durable and in place; everything older is garbage.
  // Delete in ascending order so a crash mid-sweep leaves a contiguous
  // chain, then fsync the directory so the unlinks cannot outlive a later
  // metadata flush while the rename is already durable behind us.
  active_.reset();
  for (const auto& [seq, size] : closed_) {
    env_->DeleteFile(PathFor(seq));
  }
  env_->DeleteFile(PathFor(seq_));
  if (!env_->SyncDir(dir_)) {
    Poison("directory fsync failed after deleting rotated-out segments in " + dir_);
    return;
  }
  closed_.clear();
  seq_ = new_seq;
  padded_end_ = 0;
  active_ = env_->OpenAppend(PathFor(seq_));
  if (active_ == nullptr) {
    Poison("cannot open rotated WAL segment " + PathFor(seq_));
  }
}

void SegmentedWal::Poison(const std::string& why) {
  ok_ = false;
  if (error_.empty()) {
    error_ = why;
  }
}

uint64_t SegmentedWal::TotalBytes() const {
  uint64_t total = buffer_.size();
  for (const auto& [seq, size] : closed_) {
    total += size;
  }
  if (active_ != nullptr) {
    total += active_->size();
  }
  return total;
}

}  // namespace opx::wal
