// wal_inspect — dump a segmented omni_node WAL directory and the state it
// recovers to.
//
//   wal_inspect /var/lib/omnipaxos/node1 [--records] [--verify-crc]
//               [--entries] [--tail=N] [--no-recover] [--repair]
//
// The physical dump (per-segment header check, record listing, torn-tail and
// CRC diagnostics) never replays anything, so it works on journals too
// damaged to recover. Recovery runs on an in-memory copy of the directory,
// so inspecting never changes it — not even the journal of a live node;
// only --repair recovers in place, which cuts a torn tail (and the zero
// padding) and deletes leftover .tmp files. Exit status: 0 clean, 1
// physical problems found, 2 usage, 3 recovery refused (corrupt chain).
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/omnipaxos/durable_storage.h"
#include "src/util/flags.h"
#include "src/wal/fault_fs.h"
#include "src/wal/inspect.h"

namespace {

constexpr char kUsage[] =
    "usage: wal_inspect DIR [--records] [--verify-crc] [--entries] "
    "[--tail=N] [--no-recover] [--repair]\n"
    "  --records     list every record (offset, type, len, crc, decoded)\n"
    "  --verify-crc  count per-record CRC failures per segment\n"
    "  --entries     print the recovered log entries\n"
    "  --tail=N      with --entries, only the last N entries\n"
    "  --no-recover  physical dump only (works on corrupt journals)\n"
    "  --repair      recover in place: cut a torn tail, delete .tmp files\n"
    "                (without it DIR is only read)\n";

// Copies the plain files of `dir` into `fs`, so recovery can run on them
// without writing to the disk.
void LoadDir(const std::string& dir, opx::wal::FaultFs* fs) {
  opx::wal::Env* disk = opx::wal::PosixEnv();
  std::vector<std::string> names;
  if (!disk->ListDir(dir, &names)) {
    return;
  }
  fs->CreateDir(dir);
  std::vector<uint8_t> bytes;
  for (const std::string& name : names) {
    if (disk->ReadFileBytes(dir + "/" + name, &bytes)) {
      fs->OpenAppend(dir + "/" + name)->Append(bytes.data(), bytes.size());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opx;
  Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const uint64_t tail = static_cast<uint64_t>(flags.GetInt("tail", 0, 0));
  if (!flags.ok()) {
    std::fprintf(stderr, "wal_inspect: bad value for --%s\n%s", flags.bad_flag().c_str(),
                 kUsage);
    return 2;
  }
  if (flags.positional().empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string dir = flags.positional()[0];

  wal::InspectOptions inspect;
  inspect.list_records = flags.Has("records");
  inspect.verify_crc = flags.Has("verify-crc");
  const int problems =
      wal::DumpWal(wal::PosixEnv(), dir, inspect, omni::DescribeWalRecord, std::cout);

  if (flags.Has("no-recover")) {
    return problems > 0 ? 1 : 0;
  }

  wal::FaultFs copy;
  wal::Env* env = wal::PosixEnv();
  if (!flags.GetBool("repair", false)) {
    LoadDir(dir, &copy);
    env = &copy;
  }
  std::string error;
  auto storage = omni::DurableStorage::Recover(env, dir, {}, &error);
  if (storage == nullptr) {
    if (error.empty()) {
      std::printf("recovered state: none (no WAL segments)\n");
      return problems > 0 ? 1 : 0;
    }
    std::fprintf(stderr, "wal_inspect: recovery refused: %s\n", error.c_str());
    return 3;
  }

  const auto& promised = storage->promised_round();
  const auto& accepted = storage->accepted_round();
  std::printf("recovered state:\n");
  std::printf("  promised round: (n=%lu, prio=%u, pid=%d)\n", promised.n,
              promised.priority, promised.pid);
  std::printf("  accepted round: (n=%lu, prio=%u, pid=%d)\n", accepted.n,
              accepted.priority, accepted.pid);
  std::printf("  log length:     %lu (compacted below %lu)\n", storage->log_len(),
              storage->compacted_idx());
  std::printf("  decided index:  %lu\n", storage->decided_idx());
  std::printf("  fingerprint:    %016lx\n", omni::StorageFingerprint(*storage));

  uint64_t commands = 0, stop_signs = 0, payload_bytes = 0;
  for (LogIndex i = storage->compacted_idx(); i < storage->log_len(); ++i) {
    const omni::Entry& e = storage->At(i);
    if (e.IsStopSign()) {
      ++stop_signs;
    } else {
      ++commands;
      payload_bytes += e.payload_bytes;
    }
  }
  std::printf("  in memory:      %lu commands (%lu payload bytes), %lu stop-signs\n",
              commands, payload_bytes, stop_signs);

  if (flags.Has("entries") || flags.Has("tail")) {
    LogIndex from = storage->compacted_idx();
    if (tail > 0 && storage->log_len() - from > tail) {
      from = storage->log_len() - tail;
    }
    for (LogIndex i = from; i < storage->log_len(); ++i) {
      const omni::Entry& e = storage->At(i);
      const char* mark = i < storage->decided_idx() ? "decided " : "accepted";
      if (e.IsStopSign()) {
        std::printf("  [%8lu] %s stop-sign -> config %u (", i, mark,
                    e.stop_sign->next_config);
        for (size_t k = 0; k < e.stop_sign->next_nodes.size(); ++k) {
          std::printf("%s%d", k == 0 ? "" : ",", e.stop_sign->next_nodes[k]);
        }
        std::printf(")\n");
      } else {
        std::printf("  [%8lu] %s cmd#%lu (%u bytes)\n", i, mark, e.cmd_id,
                    e.payload_bytes);
      }
    }
  }
  return problems > 0 ? 1 : 0;
}
