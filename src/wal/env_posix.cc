#include "src/wal/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

namespace opx::wal {
namespace {

class PosixAppendFile final : public AppendFile {
 public:
  PosixAppendFile(int fd, uint64_t size) : fd_(fd), size_(size) {}
  ~PosixAppendFile() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool Append(const uint8_t* data, size_t len) override {
    size_t done = 0;
    while (done < len) {
      const ssize_t n =
          ::pwrite(fd_, data + done, len - done, static_cast<off_t>(size_ + done));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return false;
      }
      done += static_cast<size_t>(n);
    }
    size_ += len;
    return true;
  }

  bool Sync() override { return ::fdatasync(fd_) == 0; }

  uint64_t size() const override { return size_; }

 private:
  int fd_;
  uint64_t size_;
};

class PosixEnvImpl final : public Env {
 public:
  std::unique_ptr<AppendFile> OpenAppend(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd < 0) {
      return nullptr;
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return nullptr;
    }
    return std::make_unique<PosixAppendFile>(fd, static_cast<uint64_t>(st.st_size));
  }

  bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return false;
    }
    out->clear();
    uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        ::close(fd);
        return false;
      }
      if (n == 0) {
        break;
      }
      out->insert(out->end(), buf, buf + n);
    }
    ::close(fd);
    return true;
  }

  bool ListDir(const std::string& dir, std::vector<std::string>* names) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      return false;
    }
    names->clear();
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") {
        continue;
      }
      names->push_back(name);
    }
    ::closedir(d);
    std::sort(names->begin(), names->end());
    return true;
  }

  bool CreateDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
      return true;
    }
    return false;
  }

  bool DeleteFile(const std::string& path) override { return ::unlink(path.c_str()) == 0; }

  bool RenameFile(const std::string& from, const std::string& to) override {
    return ::rename(from.c_str(), to.c_str()) == 0;
  }

  bool TruncateFile(const std::string& path, uint64_t size) override {
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) {
      return false;
    }
    struct stat st {};
    bool ok = ::fstat(fd, &st) == 0;
    if (ok && size < static_cast<uint64_t>(st.st_size)) {
      ok = ::ftruncate(fd, static_cast<off_t>(size)) == 0;
    }
    static const uint8_t kZeros[1 << 16] = {};
    for (uint64_t at = static_cast<uint64_t>(st.st_size); ok && at < size;) {
      const ssize_t n = ::pwrite(fd, kZeros, std::min<uint64_t>(size - at, sizeof kZeros),
                                 static_cast<off_t>(at));
      if (n < 0 && errno == EINTR) {
        continue;
      }
      ok = n > 0;
      at += ok ? static_cast<uint64_t>(n) : 0;
    }
    ::close(fd);
    return ok;
  }

  bool FileExists(const std::string& path) override {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0;
  }

  bool SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
      return false;
    }
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
  }
};

}  // namespace

Env* PosixEnv() {
  static PosixEnvImpl* env = new PosixEnvImpl();
  return env;
}

}  // namespace opx::wal
