// Tests for the WAL-backed storage: round-trip recovery of every mutation
// type, one record per appended batch, the crash-point matrix (cut the WAL at
// every byte offset and recover), torn/corrupt-tail and failed-fsync
// behavior, segment rotation/compaction, and end-to-end crash-recovery of a
// SequencePaxos server running on durable storage.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "src/audit/auditor.h"
#include "src/omnipaxos/durable_storage.h"
#include "src/omnipaxos/omni_paxos.h"
#include "src/omnipaxos/sequence_paxos.h"
#include "src/rsm/adapters.h"
#include "src/util/le_bytes.h"
#include "src/util/log_index.h"
#include "src/wal/fault_fs.h"
#include "src/wal/inspect.h"

namespace opx {
namespace {

using omni::Ballot;
using omni::DurableStorage;
using omni::Entry;
using omni::StopSign;
using omni::StorageFingerprint;
using wal::FaultFs;
using wal::WalOptions;

constexpr char kDir[] = "/wal";

// Unbounded group-commit thresholds: nothing reaches disk until an explicit
// Sync() (or a compaction), which makes durability boundaries observable.
WalOptions ExplicitSyncOnly() {
  WalOptions opts;
  opts.sync_every_bytes = 0;
  opts.sync_every_records = 0;
  return opts;
}

std::string TempWalDir(const std::string& name) {
  return ::testing::TempDir() + "/opx_" + name + "_" + std::to_string(getpid());
}

void RemoveWalDir(const std::string& dir) {
  std::vector<std::string> names;
  if (wal::PosixEnv()->ListDir(dir, &names)) {
    for (const std::string& name : names) {
      wal::PosixEnv()->DeleteFile(dir + "/" + name);
    }
  }
}

std::string ActiveSegmentPath(DurableStorage& storage) {
  return storage.dir() + "/" + wal::SegmentFileName(storage.wal().active_seq());
}

// wal_inspect's rendering of every record on `fs`, in order (read from a
// copy, so the live WAL is left alone).
std::vector<std::string> DescribeRecords(const FaultFs& fs, const WalOptions& opts) {
  auto copy = fs.CutAtByte(fs.total_appended() + 1);
  std::vector<std::string> out;
  std::string error;
  auto w = wal::SegmentedWal::Open(
      copy.get(), kDir, opts,
      [&out](uint8_t type, const uint8_t* payload, size_t len) {
        out.push_back(omni::DescribeWalRecord(type, payload, len));
        return true;
      },
      &error);
  EXPECT_NE(w, nullptr) << error;
  return out;
}

// --- Round trips (POSIX env, real files) ------------------------------------

TEST(DurableStorage, RecoversEmptyJournal) {
  const std::string dir = TempWalDir("empty");
  { auto storage = DurableStorage::Create(dir); }
  auto recovered = DurableStorage::Recover(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->log_len(), 0u);
  EXPECT_EQ(recovered->decided_idx(), 0u);
  EXPECT_EQ(recovered->promised_round(), omni::kNullBallot);
  RemoveWalDir(dir);
}

TEST(DurableStorage, RecoverMissingDirReturnsNullWithEmptyError) {
  FaultFs fs;
  std::string error = "sentinel";
  EXPECT_EQ(DurableStorage::Recover(&fs, "/nope", {}, &error), nullptr);
  EXPECT_TRUE(error.empty());  // nothing to recover — NOT corruption
  EXPECT_EQ(DurableStorage::Recover("/nonexistent/dir"), nullptr);
}

TEST(DurableStorage, RoundTripsAllMutations) {
  const std::string dir = TempWalDir("roundtrip");
  uint64_t live_fingerprint = 0;
  {
    auto storage = DurableStorage::Create(dir);
    storage->set_promised_round(Ballot{3, 1, 2});
    storage->set_accepted_round(Ballot{3, 1, 2});
    storage->Append(Entry::Command(1, 8));
    storage->AppendAll({Entry::Command(2, 8), Entry::Command(3, 16)});
    StopSign ss;
    ss.next_config = 7;
    ss.next_nodes = {1, 2, 9};
    storage->Append(Entry::Stop(ss));
    storage->set_decided_idx(2);
    storage->TruncateAndAppend(3, {Entry::Command(99, 8)});
    ASSERT_TRUE(storage->Sync());
    live_fingerprint = StorageFingerprint(*storage);
  }
  auto recovered = DurableStorage::Recover(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->promised_round(), (Ballot{3, 1, 2}));
  EXPECT_EQ(recovered->accepted_round(), (Ballot{3, 1, 2}));
  ASSERT_EQ(recovered->log_len(), 4u);
  EXPECT_EQ(recovered->At(0).cmd_id, 1u);
  EXPECT_EQ(recovered->At(1).cmd_id, 2u);
  EXPECT_EQ(recovered->At(2).cmd_id, 3u);
  EXPECT_EQ(recovered->At(2).payload_bytes, 16u);
  EXPECT_EQ(recovered->At(3).cmd_id, 99u);
  EXPECT_EQ(recovered->decided_idx(), 2u);
  EXPECT_EQ(StorageFingerprint(*recovered), live_fingerprint);
  RemoveWalDir(dir);
}

TEST(DurableStorage, StopSignSurvivesRecovery) {
  const std::string dir = TempWalDir("ss");
  {
    auto storage = DurableStorage::Create(dir);
    StopSign ss;
    ss.next_config = 3;
    ss.next_nodes = {4, 5, 6, 7};
    storage->Append(Entry::Stop(ss));
    storage->Sync();
  }
  auto recovered = DurableStorage::Recover(dir);
  ASSERT_NE(recovered, nullptr);
  ASSERT_EQ(recovered->log_len(), 1u);
  ASSERT_TRUE(recovered->At(0).IsStopSign());
  EXPECT_EQ(recovered->At(0).stop_sign->next_config, 3u);
  EXPECT_EQ(recovered->At(0).stop_sign->next_nodes, (std::vector<NodeId>{4, 5, 6, 7}));
  RemoveWalDir(dir);
}

TEST(DurableStorage, TornTailIsDiscardedOnRealDisk) {
  const std::string dir = TempWalDir("torn");
  uint64_t logical_end = 0;
  {
    auto storage = DurableStorage::Create(dir);
    storage->Append(Entry::Command(1, 8));
    storage->Append(Entry::Command(2, 8));
    ASSERT_TRUE(storage->Sync());
    logical_end = storage->wal().active_size();
  }
  // Chop a few bytes off the logical end (the padding goes with them): the
  // last record becomes torn.
  const std::string path = dir + "/" + wal::SegmentFileName(1);
  ASSERT_TRUE(wal::PosixEnv()->TruncateFile(path, logical_end - 3));

  auto recovered = DurableStorage::Recover(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->log_len(), 1u);
  EXPECT_EQ(recovered->At(0).cmd_id, 1u);
  // The journal remains usable: new appends land after the valid prefix.
  recovered->Append(Entry::Command(3, 8));
  ASSERT_TRUE(recovered->Sync());
  auto again = DurableStorage::Recover(dir);
  ASSERT_NE(again, nullptr);
  ASSERT_EQ(again->log_len(), 2u);
  EXPECT_EQ(again->At(1).cmd_id, 3u);
  RemoveWalDir(dir);
}

// Regression: after a Trim the journal's physical suffix is shorter than the
// decided index, so recovery must bound decided against the logical length
// compacted + suffix.
TEST(DurableStorage, TrimSurvivesCrashAndRecovery) {
  const std::string dir = TempWalDir("trim");
  {
    auto storage = DurableStorage::Create(dir);
    storage->set_promised_round(Ballot{2, 0, 3});
    storage->set_accepted_round(Ballot{2, 0, 3});
    for (uint64_t i = 1; i <= 8; ++i) {
      storage->Append(Entry::Command(i, 8));
    }
    storage->set_decided_idx(6);
    storage->Trim(5);  // decided (6) > physical suffix length (3)
    ASSERT_TRUE(storage->Sync());
  }
  auto recovered = DurableStorage::Recover(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->compacted_idx(), 5u);
  EXPECT_EQ(recovered->log_len(), 8u);
  EXPECT_EQ(recovered->decided_idx(), 6u);
  EXPECT_EQ(recovered->At(5).cmd_id, 6u);
  EXPECT_EQ(recovered->At(7).cmd_id, 8u);
  // The journal stays usable after a post-trim recovery.
  recovered->Append(Entry::Command(9, 8));
  recovered->Trim(6);
  ASSERT_TRUE(recovered->Sync());
  auto again = DurableStorage::Recover(dir);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->compacted_idx(), 6u);
  EXPECT_EQ(again->log_len(), 9u);
  EXPECT_EQ(again->At(8).cmd_id, 9u);
  RemoveWalDir(dir);
}

// ResetToSnapshot journals round + boundary + suffix as ONE record: recovery
// replays the install atomically (a crash can never observe the new log
// without the round it was shipped under).
TEST(DurableStorage, SnapshotInstallSurvivesCrashAndRecovery) {
  const std::string dir = TempWalDir("snap");
  const Ballot shipped{7, 0, 2};
  {
    auto storage = DurableStorage::Create(dir);
    storage->Append(Entry::Command(1, 8));
    storage->set_decided_idx(1);
    storage->ResetToSnapshot(shipped, 20, {Entry::Command(21, 8), Entry::Command(22, 8)});
    storage->set_decided_idx(22);
    ASSERT_TRUE(storage->Sync());
  }
  auto recovered = DurableStorage::Recover(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->accepted_round(), shipped);
  EXPECT_EQ(recovered->compacted_idx(), 20u);
  EXPECT_EQ(recovered->decided_idx(), 22u);
  ASSERT_EQ(recovered->log_len(), 22u);
  EXPECT_EQ(recovered->At(20).cmd_id, 21u);
  EXPECT_EQ(recovered->At(21).cmd_id, 22u);
  RemoveWalDir(dir);
}

// --- One record per batch ---------------------------------------------------

TEST(DurableStorage, AppendAllJournalsOneRecordPerCall) {
  FaultFs fs;
  const WalOptions opts = ExplicitSyncOnly();
  auto storage = DurableStorage::Create(&fs, kDir, opts);
  std::vector<Entry> batch;
  for (uint64_t i = 1; i <= 100; ++i) {
    batch.push_back(Entry::Command(i, 8));
  }
  storage->AppendAll(batch);
  storage->Append(Entry::Command(101, 8));
  storage->TruncateAndAppend(99, {Entry::Command(200, 8), Entry::Command(201, 8)});
  ASSERT_TRUE(storage->Sync());
  EXPECT_EQ(DescribeRecords(fs, opts),
            (std::vector<std::string>{"append-batch entries=100 first_cmd=1 last_cmd=100",
                                      "append-batch entries=1 first_cmd=101 last_cmd=101",
                                      "truncate len=99",
                                      "append-batch entries=2 first_cmd=200 last_cmd=201"}));
  // 13 bytes per command entry, plus one 9-byte frame and a 4-byte count per
  // batch.
  EXPECT_EQ(fs.total_appended(), wal::kSegmentHeaderSize + 4 * wal::kRecordFrameBytes +
                                     (4 + 100 * 13) + (4 + 13) + 8 + (4 + 2 * 13));

  std::string error;
  auto rec = DurableStorage::Recover(fs.CutAtByte(fs.total_appended() + 1).get(), kDir, opts,
                                     &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(StorageFingerprint(*rec), StorageFingerprint(*storage));
  EXPECT_EQ(rec->log_len(), 101u);
}

// A batch past the 1 MiB record cap (a follower adopting a long suffix) is
// split, so no record nears the WAL's kMaxRecordBytes recovery bound.
TEST(DurableStorage, OversizedBatchSplitsBelowTheRecordCap) {
  FaultFs fs;
  const WalOptions opts = ExplicitSyncOnly();
  auto storage = DurableStorage::Create(&fs, kDir, opts);
  std::vector<Entry> batch;
  for (uint64_t i = 1; i <= 100'000; ++i) {  // 1.3 MB of entries
    batch.push_back(Entry::Command(i, 8));
  }
  storage->AppendAll(batch);
  ASSERT_TRUE(storage->Sync());
  const std::vector<std::string> records = DescribeRecords(fs, opts);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].rfind("append-batch entries=80659 first_cmd=1 ", 0), 0u) << records[0];
  EXPECT_EQ(records[1], "append-batch entries=19341 first_cmd=80660 last_cmd=100000");

  std::string error;
  auto rec = DurableStorage::Recover(fs.CutAtByte(fs.total_appended() + 1).get(), kDir, opts,
                                     &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(StorageFingerprint(*rec), StorageFingerprint(*storage));
}

// Journals written before batching carry one kAppend (type 3) record per
// entry; they must still recover.
TEST(DurableStorage, RecoversPerEntryAppendRecordsOfOlderJournals) {
  FaultFs fs;
  const WalOptions opts = ExplicitSyncOnly();
  {
    std::string error;
    auto w = wal::SegmentedWal::CreateFresh(&fs, kDir, opts, &error);
    ASSERT_NE(w, nullptr) << error;
    for (uint64_t cmd = 1; cmd <= 3; ++cmd) {
      std::vector<uint8_t> entry;
      util::PutU64(&entry, cmd);
      util::PutU32(&entry, 8);
      entry.push_back(0);  // not a stop-sign
      w->AppendRecord(3, entry.data(), entry.size());
    }
    std::vector<uint8_t> decide;
    util::PutU64(&decide, 2);
    w->AppendRecord(5, decide.data(), decide.size());
    ASSERT_TRUE(w->Commit());
  }
  EXPECT_EQ(DescribeRecords(fs, opts),
            (std::vector<std::string>{"append cmd=1 payload=8", "append cmd=2 payload=8",
                                      "append cmd=3 payload=8", "decide idx=2"}));
  std::string error;
  auto rec = DurableStorage::Recover(&fs, kDir, opts, &error);
  ASSERT_NE(rec, nullptr) << error;
  ASSERT_EQ(rec->log_len(), 3u);
  EXPECT_EQ(rec->At(2).cmd_id, 3u);
  EXPECT_EQ(rec->decided_idx(), 2u);
  // New appends after such a recovery are batches; both kinds replay.
  rec->AppendAll({Entry::Command(4, 8), Entry::Command(5, 8)});
  ASSERT_TRUE(rec->Sync());
  auto again = DurableStorage::Recover(fs.CutAtByte(fs.total_appended() + 1).get(), kDir, opts,
                                       &error);
  ASSERT_NE(again, nullptr) << error;
  EXPECT_EQ(again->log_len(), 5u);
}

// The leader moves every queued proposal into the log with one storage call
// per flush, so a whole client batch costs one record, one length field and
// one CRC — and a stop-sign still ends the batch.
TEST(DurableStorage, LeaderJournalsEachFlushedBatchAsOneRecord) {
  FaultFs fs;
  const WalOptions opts = ExplicitSyncOnly();
  auto storage = DurableStorage::Create(&fs, kDir, opts);
  omni::SequencePaxosConfig cfg;
  cfg.pid = 1;
  cfg.peers = {2, 3};
  omni::SequencePaxos leader(cfg, storage.get());
  leader.HandleLeader(Ballot{1, 0, 1});
  omni::Promise promise;
  promise.n = Ballot{1, 0, 1};
  leader.Handle(2, promise);
  (void)leader.TakeOutgoing();
  ASSERT_TRUE(leader.IsLeader());
  ASSERT_TRUE(storage->Sync());
  const size_t before = DescribeRecords(fs, opts).size();

  for (uint64_t cmd = 1; cmd <= 5; ++cmd) {
    ASSERT_TRUE(leader.Append(Entry::Command(cmd, 8)));
  }
  (void)leader.TakeOutgoing();
  StopSign ss;
  ss.next_config = 2;
  ss.next_nodes = {1, 2, 3};
  ASSERT_TRUE(leader.Append(Entry::Command(6, 8)));
  ASSERT_TRUE(leader.Append(Entry::Stop(ss)));
  ASSERT_TRUE(leader.Append(Entry::Command(7, 8)));  // queued behind the stop-sign
  (void)leader.TakeOutgoing();
  ASSERT_TRUE(storage->Sync());

  const std::vector<std::string> records = DescribeRecords(fs, opts);
  ASSERT_EQ(records.size(), before + 2);
  EXPECT_EQ(records[before], "append-batch entries=5 first_cmd=1 last_cmd=5");
  EXPECT_EQ(records[before + 1], "append-batch entries=2 first_cmd=6 last_cmd=0 stop-sign(c2)");
  EXPECT_EQ(leader.log_len(), 7u);
}

// --- Crash-point matrix -----------------------------------------------------

// One durability boundary of the scripted run: everything synced up to
// `appended` WAL bytes (`ops` journal operations), with the live state
// captured at that instant.
struct SyncPoint {
  uint64_t appended = 0;
  uint64_t ops = 0;
  uint64_t fingerprint = 0;
  LogIndex decided = 0;
  Ballot promised;
  // (logical index, cmd_id) of every decided-but-not-compacted entry:
  // decided entries are immutable, so any later recovery that still covers
  // index i must agree.
  std::vector<std::pair<LogIndex, uint64_t>> decided_cmds;
};

SyncPoint CaptureSyncPoint(const FaultFs& fs, const DurableStorage& s) {
  SyncPoint sp;
  sp.appended = fs.total_appended();
  sp.ops = fs.journal_ops();
  sp.fingerprint = StorageFingerprint(s);
  sp.decided = s.decided_idx();
  sp.promised = s.promised_round();
  for (LogIndex i = s.compacted_idx(); i < s.decided_idx(); ++i) {
    sp.decided_cmds.emplace_back(i, s.At(i).cmd_id);
  }
  return sp;
}

// Runs a scripted mutation sequence covering every record type (promise,
// accepted, append, truncate, decide, trim, snapshot, and checkpoint via
// compaction-driven rotation), capturing a SyncPoint at each explicit Sync().
std::vector<SyncPoint> RunCrashPointScript(FaultFs* fs, const WalOptions& opts) {
  std::vector<SyncPoint> points;
  auto storage = DurableStorage::Create(fs, kDir, opts);
  auto sync = [&] {
    EXPECT_TRUE(storage->Sync());
    points.push_back(CaptureSyncPoint(*fs, *storage));
  };

  storage->set_promised_round(Ballot{1, 0, 2});
  storage->set_accepted_round(Ballot{1, 0, 2});
  sync();

  storage->AppendAll({Entry::Command(1, 8), Entry::Command(2, 8), Entry::Command(3, 8)});
  for (uint64_t i = 4; i <= 6; ++i) {
    storage->Append(Entry::Command(i, 8));
  }
  storage->set_decided_idx(4);
  sync();

  storage->TruncateAndAppend(5, {Entry::Command(7, 8)});
  storage->set_decided_idx(6);
  sync();

  storage->set_promised_round(Ballot{2, 0, 1});
  storage->Trim(3);
  sync();

  // Churn: append/decide/trim keeps the live state small while the WAL
  // grows, until MaybeCompact rotates into a checkpoint-led segment.
  for (uint64_t i = 8; i <= 56; ++i) {
    storage->Append(Entry::Command(i, 8));
    storage->set_decided_idx(storage->log_len());
    if (i % 8 == 0) {
      storage->Trim(util::IndexBack(storage->decided_idx(), 1));
      sync();
    }
  }
  EXPECT_GT(storage->wal().active_seq(), 1u) << "script never exercised rotation";

  storage->ResetToSnapshot(Ballot{5, 0, 3}, 60, {Entry::Command(61, 8), Entry::Command(62, 8)});
  storage->set_decided_idx(62);
  sync();

  storage->Append(Entry::Command(63, 8));
  storage->set_decided_idx(63);
  sync();
  return points;
}

// Satellite: cut the WAL at EVERY byte offset, recover, and assert the
// consistent-prefix contract — recovery never crashes, never loses a synced
// decided entry, keeps rounds monotone in the cut position, and reproduces
// the exact state at every durability boundary.
TEST(DurableStorageCrashMatrix, EveryByteOffset) {
  for (const bool drop_unsynced : {false, true}) {
    SCOPED_TRACE(drop_unsynced ? "power-loss (drop unsynced)" : "process-kill");
    FaultFs fs;
    const WalOptions opts = ExplicitSyncOnly();
    const std::vector<SyncPoint> points = RunCrashPointScript(&fs, opts);
    ASSERT_GE(points.size(), 10u);

    LogIndex prev_decided = 0;
    Ballot prev_promised;
    for (uint64_t c = 0; c <= fs.total_appended(); ++c) {
      SCOPED_TRACE("cut at byte " + std::to_string(c));
      auto cut = fs.CutAtByte(c, drop_unsynced);
      std::string error;
      auto rec = DurableStorage::Recover(cut.get(), kDir, opts, &error);

      // The last durability boundary covered by this cut. A cut at EXACTLY a
      // boundary's appended byte count stops before the fdatasync that made
      // the boundary durable, so under power loss those bytes are gone —
      // only strictly earlier boundaries are guaranteed. Under a process
      // kill the page cache survives, so landed bytes suffice.
      const SyncPoint* durable = nullptr;
      for (const SyncPoint& sp : points) {
        if (drop_unsynced ? sp.appended < c : sp.appended <= c) {
          durable = &sp;
        }
      }

      if (rec == nullptr) {
        // Only legal before the genesis segment finished being created —
        // i.e. before any durability boundary existed. Never a corruption
        // refusal: every cut is a crash, not bit rot.
        ASSERT_TRUE(error.empty()) << error;
        ASSERT_EQ(durable, nullptr) << "synced state vanished at cut " << c;
        continue;
      }

      if (durable != nullptr) {
        EXPECT_GE(rec->decided_idx(), durable->decided);
        EXPECT_GE(rec->promised_round(), durable->promised);
        for (const auto& [idx, cmd] : durable->decided_cmds) {
          if (idx < rec->compacted_idx()) {
            continue;  // legitimately compacted away later in the script
          }
          ASSERT_LT(idx, rec->log_len());
          EXPECT_EQ(rec->At(idx).cmd_id, cmd) << "decided entry rewritten at " << idx;
        }
        if (durable->appended == c) {
          // Exactly at a durability boundary: bit-for-bit state match.
          EXPECT_EQ(StorageFingerprint(*rec), durable->fingerprint);
        }
      }

      // More surviving bytes can only move the state forward.
      EXPECT_GE(rec->decided_idx(), prev_decided);
      EXPECT_GE(rec->promised_round(), prev_promised);
      prev_decided = rec->decided_idx();
      prev_promised = rec->promised_round();
    }
  }
}

// A sealed segment ends at its last record: Rotate() cuts the padding and
// syncs before the next segment is written, so at every operation boundary
// of the script's rotations, under either crash model, the dump finds no
// problem — in particular no zeros in a segment that is not the last.
TEST(DurableStorageCrashMatrix, NoSealedSegmentCarriesPaddingAtAnyOpBoundary) {
  for (const bool drop_unsynced : {false, true}) {
    SCOPED_TRACE(drop_unsynced ? "power-loss (drop unsynced)" : "process-kill");
    FaultFs fs;
    RunCrashPointScript(&fs, ExplicitSyncOnly());
    size_t cuts_with_a_sealed_segment = 0;
    for (size_t k = 0; k <= fs.journal_ops(); ++k) {
      SCOPED_TRACE("cut at op " + std::to_string(k));
      auto cut = fs.CutAtOp(k, drop_unsynced);
      std::vector<std::string> names;
      if (!cut->ListDir(kDir, &names)) {
        continue;
      }
      uint64_t seq = 0;
      cuts_with_a_sealed_segment +=
          std::count_if(names.begin(), names.end(), [&seq](const std::string& name) {
            return wal::ParseSegmentFileName(name, &seq);
          }) > 1;
      std::ostringstream out;
      EXPECT_EQ(wal::DumpWal(cut.get(), kDir, {}, nullptr, out), 0) << out.str();
    }
    EXPECT_GT(cuts_with_a_sealed_segment, 0u) << "no cut landed inside a rotation";
  }
}

// Same contract swept across journal OPERATION boundaries. Byte cuts can
// only land inside or exactly after an append, so the windows between
// metadata ops — segment renamed but the directory fsync pending, old
// segments half-deleted — are reachable only here. Power-loss mode
// additionally rolls back renames/deletes issued after the directory's last
// fsync, which is what would expose a missing SyncDir in rotation.
TEST(DurableStorageCrashMatrix, EveryOpBoundary) {
  for (const bool drop_unsynced : {false, true}) {
    SCOPED_TRACE(drop_unsynced ? "power-loss (drop unsynced)" : "process-kill");
    FaultFs fs;
    const WalOptions opts = ExplicitSyncOnly();
    const std::vector<SyncPoint> points = RunCrashPointScript(&fs, opts);
    ASSERT_GE(points.size(), 10u);

    LogIndex prev_decided = 0;
    Ballot prev_promised;
    for (size_t k = 0; k <= fs.journal_ops(); ++k) {
      SCOPED_TRACE("cut at op " + std::to_string(k));
      auto cut = fs.CutAtOp(k, drop_unsynced);
      std::string error;
      auto rec = DurableStorage::Recover(cut.get(), kDir, opts, &error);

      // A boundary is durable once the prefix contains its fdatasync.
      const SyncPoint* durable = nullptr;
      for (const SyncPoint& sp : points) {
        if (sp.ops <= k) {
          durable = &sp;
        }
      }

      if (rec == nullptr) {
        ASSERT_TRUE(error.empty()) << error;
        ASSERT_EQ(durable, nullptr) << "synced state vanished at op " << k;
        continue;
      }

      if (durable != nullptr) {
        EXPECT_GE(rec->decided_idx(), durable->decided);
        EXPECT_GE(rec->promised_round(), durable->promised);
        for (const auto& [idx, cmd] : durable->decided_cmds) {
          if (idx < rec->compacted_idx()) {
            continue;
          }
          ASSERT_LT(idx, rec->log_len());
          EXPECT_EQ(rec->At(idx).cmd_id, cmd) << "decided entry rewritten at " << idx;
        }
        if (durable->ops == k) {
          EXPECT_EQ(StorageFingerprint(*rec), durable->fingerprint);
        }
      }

      EXPECT_GE(rec->decided_idx(), prev_decided);
      EXPECT_GE(rec->promised_round(), prev_promised);
      prev_decided = rec->decided_idx();
      prev_promised = rec->promised_round();
    }
  }
}

// A batch is one record, so a crash anywhere inside it recovers all of the
// batch or none of it — never a prefix.
TEST(DurableStorageCrashMatrix, BatchRecordIsAllOrNothing) {
  for (const bool drop_unsynced : {false, true}) {
    SCOPED_TRACE(drop_unsynced ? "power-loss (drop unsynced)" : "process-kill");
    FaultFs fs;
    const WalOptions opts = ExplicitSyncOnly();
    auto storage = DurableStorage::Create(&fs, kDir, opts);
    storage->Append(Entry::Command(1, 8));
    ASSERT_TRUE(storage->Sync());
    const uint64_t batch_start = fs.total_appended();
    std::vector<Entry> batch;
    for (uint64_t i = 2; i <= 9; ++i) {
      batch.push_back(Entry::Command(i, 8));
    }
    storage->AppendAll(batch);
    ASSERT_TRUE(storage->Sync());
    ASSERT_EQ(DescribeRecords(fs, opts).back(), "append-batch entries=8 first_cmd=2 last_cmd=9");

    // From the first byte of the batch's write (its predecessor's fdatasync
    // has happened) to one past the end (nothing was interrupted).
    for (uint64_t c = batch_start + 1; c <= fs.total_appended() + 1; ++c) {
      SCOPED_TRACE("cut at byte " + std::to_string(c));
      std::string error;
      auto rec = DurableStorage::Recover(fs.CutAtByte(c, drop_unsynced).get(), kDir, opts, &error);
      ASSERT_NE(rec, nullptr) << error;
      // Under power loss the batch needs its fdatasync, which follows its
      // last byte; a killed process keeps every byte that landed.
      const bool whole = c >= fs.total_appended() + (drop_unsynced ? 1 : 0);
      EXPECT_EQ(rec->log_len(), whole ? 9u : 1u);
    }
  }
}

// --- Torn / corrupt tails and failed fsyncs ----------------------------------

// Flip every single byte of the final record (and of the segment header):
// recovery either truncates the tail cleanly (state reverts to the previous
// boundary) or refuses loudly — it never surfaces a different state.
TEST(DurableStorage, EveryFinalRecordByteFlipRecoversCleanly) {
  FaultFs fs;
  const WalOptions opts = ExplicitSyncOnly();
  uint64_t before_fingerprint = 0;
  std::string path;
  uint64_t final_start = 0, final_end = 0;
  {
    auto storage = DurableStorage::Create(&fs, kDir, opts);
    storage->set_promised_round(Ballot{1, 0, 1});
    storage->Append(Entry::Command(1, 8));
    storage->Append(Entry::Command(2, 8));
    storage->set_decided_idx(1);
    ASSERT_TRUE(storage->Sync());
    before_fingerprint = StorageFingerprint(*storage);
    path = ActiveSegmentPath(*storage);

    final_start = storage->wal().active_size();
    storage->Append(Entry::Command(3, 8));  // the record under attack
    ASSERT_TRUE(storage->Sync());
    final_end = storage->wal().active_size();
  }
  ASSERT_GT(final_end, final_start);

  for (uint64_t off = final_start; off < final_end; ++off) {
    SCOPED_TRACE("flip byte " + std::to_string(off));
    auto clone = fs.CutAtByte(fs.total_appended());
    ASSERT_TRUE(clone->CorruptByte(path, off));
    std::string error;
    auto rec = DurableStorage::Recover(clone.get(), kDir, opts, &error);
    ASSERT_NE(rec, nullptr) << error;
    // The damaged final record is dropped; everything before it intact.
    EXPECT_EQ(StorageFingerprint(*rec), before_fingerprint);
  }

  // Header damage is not a torn tail: segments are created atomically, so a
  // bad header means acknowledged bytes rotted — refuse loudly.
  for (uint64_t off = 0; off < wal::kSegmentHeaderSize; ++off) {
    SCOPED_TRACE("flip header byte " + std::to_string(off));
    auto clone = fs.CutAtByte(fs.total_appended());
    ASSERT_TRUE(clone->CorruptByte(path, off));
    std::string error;
    EXPECT_EQ(DurableStorage::Recover(clone.get(), kDir, opts, &error), nullptr);
    EXPECT_FALSE(error.empty());
  }
}

TEST(DurableStorage, FailedFsyncPoisonsAndSyncReportsIt) {
  FaultFs fs;
  auto storage = DurableStorage::Create(&fs, kDir, ExplicitSyncOnly());
  storage->Append(Entry::Command(1, 8));
  ASSERT_TRUE(storage->Sync());
  const uint64_t good_fingerprint = StorageFingerprint(*storage);

  storage->Append(Entry::Command(2, 8));
  fs.set_sync_failures_after(0);
  EXPECT_FALSE(storage->Sync());  // the group commit hits the dead device
  EXPECT_FALSE(storage->ok());
  EXPECT_FALSE(storage->wal_error().empty());
  fs.clear_sync_failures();
  EXPECT_FALSE(storage->Sync());  // poisoned stays poisoned

  // A crash now (losing unsynced bytes) recovers the last good state.
  auto cut = fs.CutAtByte(fs.total_appended(), /*drop_unsynced=*/true);
  std::string error;
  auto rec = DurableStorage::Recover(cut.get(), kDir, ExplicitSyncOnly(), &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(StorageFingerprint(*rec), good_fingerprint);
}

TEST(DurableStorageDeathTest, MutationAfterPoisonRefusesLoudly) {
  FaultFs fs;
  auto storage = DurableStorage::Create(&fs, kDir, ExplicitSyncOnly());
  storage->Append(Entry::Command(1, 8));
  fs.set_sync_failures_after(0);
  ASSERT_FALSE(storage->Sync());
  EXPECT_DEATH(storage->Append(Entry::Command(2, 8)), "WAL unusable");
}

TEST(DurableStorageDeathTest, FailedThresholdFlushRefusesLoudlyMidGroupCommit) {
  FaultFs fs;
  WalOptions opts;
  opts.sync_every_bytes = 0;
  opts.sync_every_records = 2;  // the 2nd buffered record forces a flush
  auto storage = DurableStorage::Create(&fs, kDir, opts);
  storage->Append(Entry::Command(1, 8));
  ASSERT_TRUE(storage->Sync());
  storage->Append(Entry::Command(2, 8));
  fs.set_sync_failures_after(0);
  // This append crosses sync_every_records; the flush fails mid-group-commit
  // and the mutation must abort rather than let memory run ahead of disk.
  EXPECT_DEATH(storage->Append(Entry::Command(3, 8)), "WAL write failed");
}

// --- Rotation / compaction ---------------------------------------------------

TEST(DurableStorage, CompactionRotatesIntoCheckpointAndDeletesOldSegments) {
  FaultFs fs;
  const WalOptions opts = ExplicitSyncOnly();
  auto storage = DurableStorage::Create(&fs, kDir, opts);
  storage->set_promised_round(Ballot{3, 0, 1});
  storage->set_accepted_round(Ballot{3, 0, 1});
  for (uint64_t i = 1; i <= 120; ++i) {
    storage->Append(Entry::Command(i, 8));
    storage->set_decided_idx(i);
    if (i % 10 == 0) {
      storage->Trim(i - 2);
      ASSERT_TRUE(storage->Sync());
    }
  }
  ASSERT_GT(storage->wal().active_seq(), 1u);
  EXPECT_EQ(storage->wal().segment_count(), 1u);
  EXPECT_FALSE(fs.FileExists(std::string(kDir) + "/" + wal::SegmentFileName(1)));
  ASSERT_TRUE(storage->Sync());
  const uint64_t live = StorageFingerprint(*storage);

  std::string error;
  auto cut = fs.CutAtByte(fs.total_appended());
  auto rec = DurableStorage::Recover(cut.get(), kDir, opts, &error);
  ASSERT_NE(rec, nullptr) << error;
  EXPECT_EQ(StorageFingerprint(*rec), live);
  EXPECT_EQ(rec->compacted_idx(), storage->compacted_idx());
  EXPECT_EQ(rec->decided_idx(), 120u);
}

// --- End-to-end: SequencePaxos over the WAL ----------------------------------

TEST(DurableStorage, SequencePaxosSurvivesCrashViaWal) {
  // A 3-server cluster where server 3 journals to disk; crash it (drop all
  // volatile state), recover from the WAL, and catch up.
  const std::string dir = TempWalDir("e2e");
  omni::Storage mem1, mem2;
  auto wal3 = DurableStorage::Create(dir);

  auto make = [](NodeId id, omni::Storage* storage, bool recovered = false) {
    omni::OmniConfig cfg;
    cfg.pid = id;
    for (NodeId p = 1; p <= 3; ++p) {
      if (p != id) {
        cfg.peers.push_back(p);
      }
    }
    cfg.ble_priority = id == 1 ? 1 : 0;
    return std::make_unique<omni::OmniPaxos>(cfg, storage, recovered);
  };
  std::vector<std::unique_ptr<omni::OmniPaxos>> nodes;
  nodes.push_back(nullptr);
  nodes.push_back(make(1, &mem1));
  nodes.push_back(make(2, &mem2));
  nodes.push_back(make(3, wal3.get()));

  auto settle = [&]() {
    for (int iter = 0; iter < 20; ++iter) {
      bool any = false;
      for (NodeId id = 1; id <= 3; ++id) {
        if (!nodes[static_cast<size_t>(id)]) {
          continue;
        }
        for (omni::OmniOut& out : nodes[static_cast<size_t>(id)]->TakeOutgoing()) {
          if (nodes[static_cast<size_t>(out.to)]) {
            nodes[static_cast<size_t>(out.to)]->Handle(id, std::move(out.body));
            any = true;
          }
        }
      }
      if (!any) {
        break;
      }
    }
  };
  auto tick = [&]() {
    for (NodeId id = 1; id <= 3; ++id) {
      if (nodes[static_cast<size_t>(id)]) {
        nodes[static_cast<size_t>(id)]->TickElection();
      }
    }
    settle();
  };

  tick();
  tick();
  ASSERT_TRUE(nodes[1]->IsLeader());
  for (uint64_t cmd = 1; cmd <= 5; ++cmd) {
    nodes[1]->Append(Entry::Command(cmd, 8));
    settle();
  }
  EXPECT_EQ(wal3->decided_idx(), 5u);
  ASSERT_TRUE(wal3->Sync());

  // Crash server 3: volatile protocol state gone, WAL handle closed.
  nodes[3] = nullptr;
  wal3.reset();
  for (uint64_t cmd = 6; cmd <= 8; ++cmd) {
    nodes[1]->Append(Entry::Command(cmd, 8));
    settle();
  }

  // Recover from disk and rejoin.
  auto recovered = DurableStorage::Recover(dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->decided_idx(), 5u);
  nodes[3] = make(3, recovered.get(), /*recovered=*/true);
  settle();  // PrepareReq → Prepare → re-sync
  tick();
  EXPECT_EQ(recovered->decided_idx(), 8u);
  for (LogIndex i = 0; i < 8; ++i) {
    EXPECT_EQ(recovered->At(i).cmd_id, i + 1);
  }
  RemoveWalDir(dir);
}

// --- The simulator's persist-before-send boundary ---------------------------

// Draining a leader's outgoing messages journals the proposals its
// <AcceptDecide> carries (FlushProposals), so the simulator adapter must
// group-commit after the drain, not before it: a node that crashes right
// after one drain must have nothing unsynced (Restart CHECKs this) and must
// recover to the state it sent from.
TEST(DurableStorage, SimNodeCommitsTheBatchItsDrainJournals) {
  FaultFs fs;
  rsm::NodeOptions opts;
  opts.wal_env = &fs;
  opts.wal_dir = kDir;
  opts.wal_options = ExplicitSyncOnly();
  rsm::OmniNode node(1, {}, opts);
  for (int i = 0; i < 5 && !node.IsLeader(); ++i) {
    node.Tick();
    node.TakeOutgoing();
  }
  ASSERT_TRUE(node.IsLeader());
  ASSERT_TRUE(node.Propose(7, 8));
  node.TakeOutgoing();
  const uint64_t sent_from = StorageFingerprint(node.impl().storage());
  node.Restart(opts);
  EXPECT_EQ(StorageFingerprint(node.impl().storage()), sent_from);
  EXPECT_EQ(node.impl().log_len(), 1u);
}

// --- The leader's write runs alongside its followers' ----------------------

// Three OmniPaxos servers on DurableStorage, each journaling to its own
// FaultFs and driven the way OmniTcpServer drives one (DESIGN.md §17): a
// server group-commits after taking its output and only then counts its own
// acceptance (OnDurable). Settle() delivers every message after its sender's
// commit; the tests step the leader's <AcceptDecide> and <Decide> out before
// its commit by hand. The auditor sees every live server after every
// delivery, except a recovered one until it is back in the Accept phase: its
// unsynced decide record died with it, and it re-learns the index at resync.
class DurableTrio {
 public:
  DurableTrio() {
    for (NodeId id = 1; id <= 3; ++id) {
      fs_[id] = std::make_unique<FaultFs>();
      storage_[id] = DurableStorage::Create(fs_[id].get(), kDir, ExplicitSyncOnly());
      node_[id] = Make(id, /*recovered=*/false);
    }
  }

  omni::OmniPaxos& node(NodeId id) { return *node_[id]; }
  DurableStorage& storage(NodeId id) { return *storage_[id]; }
  FaultFs& fs(NodeId id) { return *fs_[id]; }
  const audit::SafetyAuditor& auditor() const { return auditor_; }

  // The end of a server pass: one group commit, then the leader counts the
  // entries it made durable.
  void Commit(NodeId id) {
    EXPECT_TRUE(storage_[id]->Sync());
    node_[id]->OnDurable();
  }

  void Deliver(NodeId from, NodeId to, omni::OmniMessage msg) {
    if (!isolated_[from] && !isolated_[to]) {
      node_[to]->Handle(from, std::move(msg));
    }
    Audit();
  }

  void DeliverAll(NodeId from, std::vector<omni::OmniOut> outs) {
    for (omni::OmniOut& out : outs) {
      Deliver(from, out.to, std::move(out.body));
    }
  }

  // Takes every server's output, commits, then delivers; until quiet.
  void Settle() {
    for (int round = 0; round < 100; ++round) {
      bool quiet = true;
      for (NodeId id = 1; id <= 3; ++id) {
        std::vector<omni::OmniOut> outs = node_[id]->TakeOutgoing();
        Commit(id);
        quiet = quiet && outs.empty();
        DeliverAll(id, std::move(outs));
      }
      if (quiet) {
        return;
      }
    }
    ADD_FAILURE() << "messages still flowing after 100 rounds";
  }

  void Tick() {
    for (NodeId id = 1; id <= 3; ++id) {
      node_[id]->TickElection();
    }
    Settle();
  }

  void Isolate(NodeId id) { isolated_[id] = true; }
  void Heal(NodeId id) {
    isolated_[id] = false;
    for (NodeId other = 1; other <= 3; ++other) {
      if (other != id) {
        node_[id]->Reconnected(other);
        node_[other]->Reconnected(id);
      }
    }
    Settle();
  }

  // Kills server `id` the instant its journal had landed `byte` bytes, with
  // everything it had not synced lost, and restarts it from that journal.
  void CrashAndRecover(NodeId id, uint64_t byte) {
    std::unique_ptr<FaultFs> cut = fs_[id]->CutAtByte(byte, /*drop_unsynced=*/true);
    node_[id] = nullptr;
    storage_[id] = nullptr;
    fs_[id] = std::move(cut);
    std::string error;
    storage_[id] = DurableStorage::Recover(fs_[id].get(), kDir, ExplicitSyncOnly(), &error);
    ASSERT_NE(storage_[id], nullptr) << error;
    node_[id] = Make(id, /*recovered=*/true);
    resyncing_[id] = true;
  }

 private:
  std::unique_ptr<omni::OmniPaxos> Make(NodeId id, bool recovered) {
    omni::OmniConfig cfg;
    cfg.pid = id;
    for (NodeId p = 1; p <= 3; ++p) {
      if (p != id) {
        cfg.peers.push_back(p);
      }
    }
    cfg.ble_priority = id == 1 ? 1 : 0;
    return std::make_unique<omni::OmniPaxos>(cfg, storage_[id].get(), recovered);
  }

  void Audit() {
    std::vector<audit::AuditView> views;
    for (NodeId id = 1; id <= 3; ++id) {
      if (resyncing_[id] && node_[id]->paxos().phase() == omni::Phase::kAccept) {
        resyncing_[id] = false;
      }
      if (!resyncing_[id]) {
        views.push_back(node_[id]->Audit());
      }
    }
    auditor_.Observe(views, audit::AuditContext{});
  }

  std::unique_ptr<FaultFs> fs_[4];
  std::unique_ptr<DurableStorage> storage_[4];
  std::unique_ptr<omni::OmniPaxos> node_[4];
  bool isolated_[4] = {};
  bool resyncing_[4] = {};
  audit::SafetyAuditor auditor_{audit::SafetyAuditor::Options{.abort_on_violation = false}};
};

// Every decided index any server reports, with its command.
std::map<LogIndex, uint64_t> DecidedCommands(DurableTrio& c) {
  std::map<LogIndex, uint64_t> decided;
  for (NodeId id = 1; id <= 3; ++id) {
    const omni::Storage& s = c.node(id).storage();
    for (LogIndex i = s.compacted_idx(); i < s.decided_idx(); ++i) {
      decided[i] = s.At(i).cmd_id;
    }
  }
  return decided;
}

// Elects server 1 and decides commands 1..3 on all three, everything synced.
void DecideThree(DurableTrio& c) {
  for (int i = 0; i < 10 && !c.node(1).IsLeader(); ++i) {
    c.Tick();
  }
  ASSERT_TRUE(c.node(1).IsLeader());
  for (uint64_t cmd = 1; cmd <= 3; ++cmd) {
    c.node(1).Append(Entry::Command(cmd, 8));
    c.Settle();
  }
  for (NodeId id = 1; id <= 3; ++id) {
    ASSERT_EQ(c.node(id).decided_idx(), 3u) << "server " << id;
    ASSERT_FALSE(c.storage(id).HasPending());
  }
}

// Server 1 proposes commands 11..14 and sends its <AcceptDecide> before its
// own commit; `ackers` receive it, commit, and vote. Then whatever server 1
// sends next (a <Decide>, if it decided) leaves before its commit as well.
void ProposeBatch(DurableTrio& c, const std::vector<NodeId>& ackers) {
  for (uint64_t cmd = 11; cmd <= 14; ++cmd) {
    c.node(1).Append(Entry::Command(cmd, 8));
  }
  std::vector<omni::OmniOut> proposal = c.node(1).TakeOutgoing();
  ASSERT_TRUE(c.storage(1).HasPending()) << "the batch is journaled, not yet synced";
  ASSERT_EQ(proposal.size(), 2u);
  for (omni::OmniOut& out : proposal) {
    ASSERT_TRUE(std::holds_alternative<omni::AcceptDecide>(
        std::get<omni::PaxosMessage>(out.body)));
    if (std::find(ackers.begin(), ackers.end(), out.to) != ackers.end()) {
      c.Deliver(1, out.to, std::move(out.body));
    }
  }
  for (NodeId f : ackers) {
    std::vector<omni::OmniOut> votes = c.node(f).TakeOutgoing();
    c.Commit(f);  // a vote leaves only after its sender's commit
    c.DeliverAll(f, std::move(votes));
  }
  c.DeliverAll(1, c.node(1).TakeOutgoing());
  ASSERT_TRUE(c.storage(1).HasPending());
}

// The leader's commit starts and the process dies while the batch is
// landing: none of it was synced. Server 1 restarts from its journal, and
// the others resynchronize it with server 2 cut off, so server 3 is the only
// other copy of the batch. Returns the server leading the new round.
NodeId CrashLeaderMidCommit(DurableTrio& c) {
  const uint64_t synced = c.fs(1).total_appended();
  EXPECT_TRUE(c.storage(1).Sync());
  const uint64_t landed = c.fs(1).total_appended();
  EXPECT_GT(landed, synced);
  c.CrashAndRecover(1, synced + (landed - synced) / 2);
  EXPECT_EQ(c.storage(1).log_len(), 3u) << "the batch died with the leader";
  EXPECT_EQ(c.storage(1).decided_idx(), 3u);
  c.Isolate(2);
  for (int i = 0; i < 50; ++i) {
    c.Tick();
    for (NodeId id : {1, 3}) {
      if (c.node(id).IsLeader() && c.node(1).paxos().phase() == omni::Phase::kAccept) {
        return id;
      }
    }
  }
  ADD_FAILURE() << "servers 1 and 3 never resynchronized";
  return kNoNode;
}

// Every index in `reported` is decided, with the same command, on `ids`.
void ExpectStillDecided(DurableTrio& c, const std::map<LogIndex, uint64_t>& reported,
                        std::initializer_list<NodeId> ids) {
  for (NodeId id : ids) {
    const omni::Storage& s = c.node(id).storage();
    for (const auto& [idx, cmd] : reported) {
      ASSERT_LT(idx, s.decided_idx()) << "server " << id << " lost decided index " << idx;
      EXPECT_EQ(s.At(idx).cmd_id, cmd) << "server " << id << " index " << idx;
    }
  }
}

TEST(DurableStorageLeaderWrite, BatchDecidedByBothFollowersSurvivesTheLeaderLosingIt) {
  DurableTrio c;
  DecideThree(c);
  ProposeBatch(c, {2, 3});
  EXPECT_EQ(c.node(1).decided_idx(), 7u) << "two durable followers are a majority";
  EXPECT_EQ(c.node(3).decided_idx(), 7u) << "the <Decide> left before the commit";
  const std::map<LogIndex, uint64_t> reported = DecidedCommands(c);
  ASSERT_EQ(reported.size(), 7u);

  const NodeId leader = CrashLeaderMidCommit(c);
  ASSERT_NE(leader, kNoNode);
  ExpectStillDecided(c, reported, {1, 3});
  c.node(leader).Append(Entry::Command(21, 8));
  c.Settle();
  EXPECT_EQ(c.node(1).decided_idx(), 8u);
  c.Heal(2);
  c.Tick();
  ExpectStillDecided(c, reported, {1, 2, 3});
  EXPECT_TRUE(c.auditor().violations().empty()) << c.auditor().Report();
}

TEST(DurableStorageLeaderWrite, OneFollowerAckDecidesNothingWhileTheLeaderIsPending) {
  DurableTrio c;
  DecideThree(c);
  ProposeBatch(c, {2});
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_EQ(c.node(id).decided_idx(), 3u) << "server " << id;
  }
  const std::map<LogIndex, uint64_t> reported = DecidedCommands(c);
  ASSERT_EQ(reported.size(), 3u);

  // Servers 1 and 3 never held the batch durably, so the new round drops it
  // and decides command 21 at index 3 instead; nothing decided is lost.
  const NodeId leader = CrashLeaderMidCommit(c);
  ASSERT_NE(leader, kNoNode);
  c.node(leader).Append(Entry::Command(21, 8));
  c.Settle();
  ExpectStillDecided(c, reported, {1, 3});
  EXPECT_EQ(c.node(3).storage().At(3).cmd_id, 21u);
  c.Heal(2);
  c.Tick();
  ExpectStillDecided(c, reported, {1, 2, 3});
  EXPECT_EQ(c.node(2).storage().At(3).cmd_id, 21u) << "server 2's undecided copy is overwritten";
  EXPECT_TRUE(c.auditor().violations().empty()) << c.auditor().Report();
}

}  // namespace
}  // namespace opx
