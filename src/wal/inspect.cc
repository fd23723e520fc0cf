#include "src/wal/inspect.h"

#include <algorithm>
#include <ostream>
#include <vector>

#include "src/util/le_bytes.h"
#include "src/wal/segmented_wal.h"

namespace opx::wal {

int DumpWal(Env* env, const std::string& dir, const InspectOptions& options,
            const RecordDescriber& describe, std::ostream& out) {
  out << "wal dir: " << dir << "\n";
  std::vector<std::string> names;
  if (!env->ListDir(dir, &names)) {
    out << "error: cannot list directory\n";
    return 1;
  }
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (ParseSegmentFileName(name, &seq)) {
      segments.emplace_back(seq, name);
    }
  }
  std::sort(segments.begin(), segments.end());
  if (segments.empty()) {
    out << "no segments\n";
    return 0;
  }

  int problems = 0;
  uint64_t total_records = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (i > 0 && segments[i].first != segments[i - 1].first + 1) {
      out << "chain gap: " << segments[i - 1].second << " -> " << segments[i].second
          << "\n";
      ++problems;
    }
    const std::string path = dir + "/" + segments[i].second;
    std::vector<uint8_t> bytes;
    if (!env->ReadFileBytes(path, &bytes)) {
      out << "segment " << segments[i].second << ": unreadable\n";
      ++problems;
      continue;
    }
    uint64_t header_seq = 0;
    const bool header_ok =
        CheckSegmentHeader(bytes.data(), bytes.size(), &header_seq) &&
        header_seq == segments[i].first;
    out << "segment " << segments[i].second << ": seq=" << segments[i].first
        << " bytes=" << bytes.size() << " header=" << (header_ok ? "ok" : "BAD");
    if (!header_ok) {
      out << "\n";
      ++problems;
      continue;
    }

    // The active (last) segment may end in zeros laid ahead of its next
    // commit; they start where the trailing run of zero bytes does, or at the
    // end of the record that run began inside.
    const bool last = i + 1 == segments.size();
    size_t zeros_from = bytes.size();
    while (last && zeros_from > kSegmentHeaderSize && bytes[zeros_from - 1] == 0) {
      --zeros_from;
    }
    uint64_t records = 0;
    uint64_t bad_crc = 0;
    size_t pos = kSegmentHeaderSize;
    size_t torn_at = bytes.size();
    size_t padding_at = bytes.size();
    std::vector<std::string> record_lines;
    while (pos < bytes.size()) {
      if (pos >= zeros_from) {
        padding_at = pos;
        break;
      }
      if (bytes.size() - pos < kRecordFrameBytes) {
        torn_at = pos;
        break;
      }
      const uint8_t type = bytes[pos];
      const uint32_t len = util::GetU32(bytes.data() + pos + 1);
      if (len > kMaxRecordBytes || bytes.size() - pos - kRecordFrameBytes < len) {
        torn_at = pos;
        break;
      }
      const bool crc_ok =
          Crc32c(bytes.data() + pos, 1 + 4 + len) == util::GetU32(bytes.data() + pos + 5 + len);
      if (!crc_ok) {
        ++bad_crc;
      }
      if (options.list_records) {
        std::string line = "  @" + std::to_string(pos) + " type=" + std::to_string(type) +
                           " len=" + std::to_string(len) +
                           " crc=" + (crc_ok ? "ok" : "BAD");
        if (crc_ok && describe != nullptr) {
          const std::string desc = describe(type, bytes.data() + pos + 5, len);
          if (!desc.empty()) {
            line += " " + desc;
          }
        }
        record_lines.push_back(std::move(line));
      }
      if (!crc_ok) {
        // Framing after a corrupt record is untrustworthy; stop like
        // recovery does.
        torn_at = pos;
        break;
      }
      ++records;
      pos += kRecordFrameBytes + len;
    }
    out << " records=" << records;
    if (options.verify_crc) {
      out << " crc_failures=" << bad_crc;
    }
    out << "\n";
    for (const std::string& line : record_lines) {
      out << line << "\n";
    }
    if (torn_at < bytes.size()) {
      out << "  torn tail: " << (bytes.size() - torn_at) << " trailing bytes at @"
          << torn_at << "\n";
      ++problems;
    }
    if (padding_at < bytes.size()) {
      out << "  padding: " << (bytes.size() - padding_at) << " zero bytes at @" << padding_at
          << "\n";
    }
    problems += static_cast<int>(bad_crc);
    total_records += records;
  }
  out << "total: segments=" << segments.size() << " records=" << total_records
      << " problems=" << problems << "\n";
  return problems;
}

}  // namespace opx::wal
