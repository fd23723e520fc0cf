// Narrow filesystem interface the WAL writes through.
//
// Everything SegmentedWal does to disk — create, write, fdatasync, list,
// rename, delete, truncate, zero-fill — goes through this seam, so tests can
// swap in FaultFs (fault_fs.h): a deterministic in-memory filesystem that injects
// short writes, failed fsyncs, and crash-at-byte-N cuts. PosixEnv() is the
// production implementation; its Sync() is a real fdatasync, which is the
// whole point of the exercise (DESIGN.md §17).
#ifndef SRC_WAL_ENV_H_
#define SRC_WAL_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace opx::wal {

// An open file written sequentially from where it ended when opened. Each
// handle keeps its own position, size(): Append() lands its bytes there and
// advances it, overwriting whatever lies past it (the zeros TruncateFile laid
// ahead), so the file's physical end may lie beyond size(). Append() either
// lands every byte or returns false (a short write at the POSIX layer is
// retried internally; running out of space is not). Sync() must not return
// until the written bytes are durable.
class AppendFile {
 public:
  virtual ~AppendFile() = default;
  virtual bool Append(const uint8_t* data, size_t len) = 0;
  virtual bool Sync() = 0;
  virtual uint64_t size() const = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  // Opens `path` for writing at its current end, creating it if absent.
  virtual std::unique_ptr<AppendFile> OpenAppend(const std::string& path) = 0;

  // Reads the whole file into `out`. False if it cannot be opened.
  virtual bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) = 0;

  // Lists plain-file names (not paths) in `dir`, sorted. False if the
  // directory cannot be read.
  virtual bool ListDir(const std::string& dir, std::vector<std::string>* names) = 0;

  // Creates `dir` if it does not exist (single level). False on failure.
  virtual bool CreateDir(const std::string& dir) = 0;

  virtual bool DeleteFile(const std::string& path) = 0;
  virtual bool RenameFile(const std::string& from, const std::string& to) = 0;
  // Sets the size of `path`. Growing it writes zeros, never a hole: on ext4
  // the first write into a hole or a fallocated range allocates or converts
  // an extent, which is a metadata write the next fdatasync has to persist.
  // The zeros are not durable until a Sync() of the file.
  virtual bool TruncateFile(const std::string& path, uint64_t size) = 0;
  virtual bool FileExists(const std::string& path) = 0;

  // Makes preceding metadata operations on `dir` (file creation, rename,
  // delete) durable. POSIX gives no ordering guarantee across metadata ops:
  // without this, a power loss can persist an unlink but not the rename that
  // preceded it. Must not return until the directory entries are on disk.
  virtual bool SyncDir(const std::string& dir) = 0;
};

// Process-wide POSIX-backed environment (open/write/fdatasync/rename).
Env* PosixEnv();

}  // namespace opx::wal

#endif  // SRC_WAL_ENV_H_
