#include "src/wal/fault_fs.h"

#include <algorithm>

namespace opx::wal {

namespace {

// Directory component of `path` ("" for bare names, "/" for root files) —
// the key SyncDir durability is tracked under.
std::string ParentDir(const std::string& path) {
  const size_t pos = path.rfind('/');
  if (pos == std::string::npos) {
    return "";
  }
  return pos == 0 ? "/" : path.substr(0, pos);
}

// True if `path` names a plain file directly inside `dir`.
bool InDir(const std::string& dir, const std::string& path, std::string* name) {
  if (path.size() <= dir.size() + 1 || path.compare(0, dir.size(), dir) != 0 ||
      path[dir.size()] != '/') {
    return false;
  }
  const std::string rest = path.substr(dir.size() + 1);
  if (rest.find('/') != std::string::npos) {
    return false;
  }
  *name = rest;
  return true;
}

}  // namespace

class FaultAppendFile final : public AppendFile {
 public:
  FaultAppendFile(FaultFs* fs, std::string path, uint64_t at)
      : fs_(fs), path_(std::move(path)), at_(at) {}

  bool Append(const uint8_t* data, size_t len) override {
    const size_t landed = fs_->DoAppend(path_, at_, data, len);
    at_ += landed;
    return landed == len;
  }
  bool Sync() override { return fs_->DoSync(path_); }
  uint64_t size() const override { return at_; }

 private:
  FaultFs* fs_;
  std::string path_;
  uint64_t at_;  // this handle's write position
};

void FaultFs::FileState::Write(uint64_t at, const uint8_t* data, size_t len) {
  if (at < synced_size && len > 0) {
    const auto from = bytes.begin() + static_cast<ptrdiff_t>(at);
    overwritten.emplace_back(
        at, std::vector<uint8_t>(from, from + static_cast<ptrdiff_t>(
                                                  std::min<uint64_t>(len, synced_size - at))));
  }
  if (bytes.size() < at + len) {
    bytes.resize(at + len);
  }
  std::copy(data, data + len, bytes.begin() + static_cast<ptrdiff_t>(at));
}

void FaultFs::FileState::Resize(uint64_t size) {
  bytes.resize(size);
  synced_size = std::min(synced_size, size);
}

void FaultFs::FileState::MarkSynced() {
  synced_size = bytes.size();
  overwritten.clear();
}

void FaultFs::FileState::DropUnsynced() {
  for (auto it = overwritten.rbegin(); it != overwritten.rend(); ++it) {
    const auto& [at, old] = *it;
    for (uint64_t i = 0; i < old.size() && at + i < synced_size; ++i) {
      bytes[at + i] = old[i];
    }
  }
  bytes.resize(synced_size);
  overwritten.clear();
}

std::unique_ptr<AppendFile> FaultFs::OpenAppend(const std::string& path) {
  const uint64_t end = files_[path].bytes.size();  // create if absent (zero synced bytes)
  return std::make_unique<FaultAppendFile>(this, path, end);
}

bool FaultFs::ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return false;
  }
  *out = it->second.bytes;
  return true;
}

bool FaultFs::ListDir(const std::string& dir, std::vector<std::string>* names) {
  if (dirs_.find(dir) == dirs_.end()) {
    // Tolerate listing a directory that only implicitly exists through its
    // files (mirrors a pre-populated fixture).
    bool any = false;
    for (const auto& [path, file] : files_) {
      std::string name;
      if (InDir(dir, path, &name)) {
        any = true;
        break;
      }
    }
    if (!any) {
      return false;
    }
  }
  names->clear();
  for (const auto& [path, file] : files_) {
    std::string name;
    if (InDir(dir, path, &name)) {
      names->push_back(name);
    }
  }
  std::sort(names->begin(), names->end());
  return true;
}

bool FaultFs::CreateDir(const std::string& dir) {
  dirs_.insert(dir);
  journal_.push_back(Op{Op::kMkdir, dir, {}, {}, 0});
  return true;
}

bool FaultFs::DeleteFile(const std::string& path) {
  if (files_.erase(path) == 0) {
    return false;
  }
  journal_.push_back(Op{Op::kDelete, path, {}, {}, 0});
  return true;
}

bool FaultFs::RenameFile(const std::string& from, const std::string& to) {
  auto it = files_.find(from);
  if (it == files_.end()) {
    return false;
  }
  files_[to] = std::move(it->second);
  files_.erase(it);
  journal_.push_back(Op{Op::kRename, from, to, {}, 0});
  return true;
}

bool FaultFs::TruncateFile(const std::string& path, uint64_t size) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return false;
  }
  it->second.Resize(size);
  journal_.push_back(Op{Op::kTruncate, path, {}, {}, size});
  return true;
}

bool FaultFs::FileExists(const std::string& path) {
  return files_.find(path) != files_.end();
}

bool FaultFs::SyncDir(const std::string& dir) {
  if (syncs_allowed_ != kNoLimit) {
    if (syncs_allowed_ == 0) {
      return false;
    }
    --syncs_allowed_;
  }
  journal_.push_back(Op{Op::kSyncDir, dir, {}, {}, 0});
  return true;
}

bool FaultFs::CorruptByte(const std::string& path, uint64_t offset) {
  auto it = files_.find(path);
  if (it == files_.end() || offset >= it->second.bytes.size()) {
    return false;
  }
  it->second.bytes[offset] ^= 0xff;
  return true;
}

size_t FaultFs::DoAppend(const std::string& path, uint64_t at, const uint8_t* data,
                         size_t len) {
  size_t land = len;
  if (write_budget_ != kNoLimit) {
    land = static_cast<size_t>(std::min<uint64_t>(len, write_budget_));
    write_budget_ -= land;
  }
  files_[path].Write(at, data, land);
  total_appended_ += land;
  if (land > 0) {
    Op op{Op::kAppend, path, {}, {}, at};
    op.bytes.assign(data, data + land);
    journal_.push_back(std::move(op));
  }
  return land;
}

bool FaultFs::DoSync(const std::string& path) {
  if (syncs_allowed_ != kNoLimit) {
    if (syncs_allowed_ == 0) {
      return false;
    }
    --syncs_allowed_;
  }
  files_[path].MarkSynced();
  journal_.push_back(Op{Op::kSync, path, {}, {}, 0});
  return true;
}

std::unique_ptr<FaultFs> FaultFs::CutAtByte(uint64_t byte_budget, bool drop_unsynced) const {
  uint64_t remaining = byte_budget;
  for (size_t i = 0; i < journal_.size(); ++i) {
    const Op& op = journal_[i];
    if (op.kind != Op::kAppend) {
      continue;
    }
    if (op.bytes.size() >= remaining) {
      // This append consumes the final budgeted byte (possibly landing only
      // a prefix). The crash is the instant that byte lands, so every later
      // op — even a sync or rename immediately after a fully-landed append —
      // never happened.
      return Materialize(i + 1, remaining, drop_unsynced);
    }
    remaining -= op.bytes.size();
  }
  return Materialize(journal_.size(), kNoLimit, drop_unsynced);
}

std::unique_ptr<FaultFs> FaultFs::CutAtOp(size_t op_count, bool drop_unsynced) const {
  return Materialize(op_count, kNoLimit, drop_unsynced);
}

std::unique_ptr<FaultFs> FaultFs::Materialize(size_t op_count, uint64_t last_append_bytes,
                                              bool drop_unsynced) const {
  auto fs = std::make_unique<FaultFs>();
  op_count = std::min(op_count, journal_.size());

  // Under a power loss, a rename/delete survives only if a later SyncDir of
  // its parent directory is inside the surviving prefix — directory metadata
  // that was never fsync'd rolls back, independently of file contents.
  std::map<std::string, size_t> last_dir_sync;
  if (drop_unsynced) {
    for (size_t i = 0; i < op_count; ++i) {
      if (journal_[i].kind == Op::kSyncDir) {
        last_dir_sync[journal_[i].a] = i;
      }
    }
  }
  auto metadata_survives = [&](size_t i, const std::string& path) {
    if (!drop_unsynced) {
      return true;
    }
    auto it = last_dir_sync.find(ParentDir(path));
    return it != last_dir_sync.end() && it->second > i;
  };

  for (size_t i = 0; i < op_count; ++i) {
    const Op& op = journal_[i];
    switch (op.kind) {
      case Op::kAppend: {
        uint64_t land = op.bytes.size();
        if (i + 1 == op_count && last_append_bytes != kNoLimit) {
          land = std::min<uint64_t>(land, last_append_bytes);
        }
        fs->files_[op.a].Write(op.size, op.bytes.data(), static_cast<size_t>(land));
        break;
      }
      case Op::kDelete:
        if (metadata_survives(i, op.a)) {
          fs->files_.erase(op.a);
        }
        break;
      case Op::kRename: {
        if (!metadata_survives(i, op.a)) {
          break;
        }
        auto it = fs->files_.find(op.a);
        if (it != fs->files_.end()) {
          fs->files_[op.b] = std::move(it->second);
          fs->files_.erase(it);
        }
        break;
      }
      case Op::kTruncate: {
        auto it = fs->files_.find(op.a);
        if (it != fs->files_.end()) {
          it->second.Resize(op.size);
        }
        break;
      }
      case Op::kSync: {
        auto it = fs->files_.find(op.a);
        if (it != fs->files_.end()) {
          it->second.MarkSynced();
        }
        break;
      }
      case Op::kMkdir:
        fs->dirs_.insert(op.a);
        break;
      case Op::kSyncDir:
        break;  // consumed by the last_dir_sync pre-pass
    }
  }
  if (drop_unsynced) {
    for (auto& [path, file] : fs->files_) {
      file.DropUnsynced();
    }
  }
  // The copy starts with a clean journal: the pre-crash history is not part
  // of the recovered world.
  fs->journal_.clear();
  fs->total_appended_ = 0;
  return fs;
}

}  // namespace opx::wal
