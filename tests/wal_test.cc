// Unit tests for the src/wal/ subsystem: the CRC32C implementations, the
// FaultFs fault-injection filesystem itself, SegmentedWal framing / rotation /
// recovery policy, and the wal_inspect dump format (golden output).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/le_bytes.h"
#include "src/wal/crc32c.h"
#include "src/wal/fault_fs.h"
#include "src/wal/inspect.h"
#include "src/wal/segmented_wal.h"

namespace opx {
namespace {

using wal::FaultFs;
using wal::SegmentedWal;
using wal::WalOptions;

constexpr char kDir[] = "/wal";

// Record payloads as the replay callback saw them, in order.
struct Replayed {
  uint8_t type;
  std::vector<uint8_t> payload;
};

SegmentedWal::ReplayFn Collect(std::vector<Replayed>* out) {
  return [out](uint8_t type, const uint8_t* payload, size_t len) {
    out->push_back(Replayed{type, std::vector<uint8_t>(payload, payload + len)});
    return true;
  };
}

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> b) { return b; }

// Hand-rolled segment image for corruption tests (same format the WAL writes).
std::vector<uint8_t> SegmentHeaderBytes(uint64_t seq) {
  std::vector<uint8_t> out(wal::kSegmentMagic, wal::kSegmentMagic + 8);
  util::PutU64(&out, seq);
  util::PutU32(&out, wal::Crc32c(out.data(), out.size()));
  return out;
}

void FrameRecordBytes(std::vector<uint8_t>* out, uint8_t type,
                      const std::vector<uint8_t>& payload) {
  const size_t start = out->size();
  out->push_back(type);
  util::PutU32(out, static_cast<uint32_t>(payload.size()));
  out->insert(out->end(), payload.begin(), payload.end());
  util::PutU32(out, wal::Crc32c(out->data() + start, 1 + 4 + payload.size()));
}

void WriteWholeFile(wal::Env* env, const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  auto f = env->OpenAppend(path);
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(f->Append(bytes.data(), bytes.size()));
  ASSERT_TRUE(f->Sync());
}

// --- Crc32c ----------------------------------------------------------------

// Check values from RFC 3720 (iSCSI) appendix B.4 and the common "123456789"
// check string.
TEST(Crc32c, MatchesPublishedCheckValues) {
  const auto crc = [](const std::vector<uint8_t>& bytes) {
    const uint32_t fast = wal::Crc32c(bytes.data(), bytes.size());
    EXPECT_EQ(fast, wal::Crc32cBitwise(bytes.data(), bytes.size()));
    return fast;
  };
  const char* check = "123456789";
  EXPECT_EQ(crc(std::vector<uint8_t>(check, check + 9)), 0xe3069283u);
  EXPECT_EQ(crc({}), 0u);
  EXPECT_EQ(crc(std::vector<uint8_t>(32, 0x00)), 0x8a9136aau);
  EXPECT_EQ(crc(std::vector<uint8_t>(32, 0xff)), 0x62a8ab43u);
  std::vector<uint8_t> ascending(32), descending(32);
  for (uint8_t i = 0; i < 32; ++i) {
    ascending[i] = i;
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  EXPECT_EQ(crc(ascending), 0x46dd794eu);
  EXPECT_EQ(crc(descending), 0x113fdb5cu);
}

// The hardware path processes 8-, 4- and 1-byte steps; random lengths and
// start offsets cover every tail and alignment against the bitwise reference.
TEST(Crc32c, HardwareMatchesBitwiseOnRandomInputs) {
  if (!wal::Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
  }
  std::mt19937_64 rng(0xc4c32c);
  std::vector<uint8_t> buf(70'000);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng());
  }
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t offset = rng() % 8;
    const size_t len = trial < 2900 ? rng() % 300 : rng() % (buf.size() - offset);
    const uint8_t* data = buf.data() + offset;
    const uint32_t want = wal::Crc32cBitwise(data, len);
    ASSERT_EQ(wal::Crc32cHardware(data, len), want) << "offset " << offset << " len " << len;
    ASSERT_EQ(wal::Crc32c(data, len), want);
  }
}

// Any single flipped bit changes the checksum, in both implementations.
TEST(Crc32c, DetectsEverySingleBitFlip) {
  std::vector<uint8_t> bytes(64);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  const uint32_t clean = wal::Crc32c(bytes.data(), bytes.size());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(wal::Crc32c(bytes.data(), bytes.size()), clean) << "bit " << bit;
    EXPECT_NE(wal::Crc32cBitwise(bytes.data(), bytes.size()), clean) << "bit " << bit;
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

// --- FaultFs ---------------------------------------------------------------

TEST(FaultFs, WriteBudgetLandsPrefixThenNothing) {
  FaultFs fs;
  auto f = fs.OpenAppend("/f");
  fs.set_write_budget(5);
  EXPECT_TRUE(f->Append(Bytes({1, 2, 3}).data(), 3));   // fits
  EXPECT_FALSE(f->Append(Bytes({4, 5, 6, 7}).data(), 4));  // lands 2 of 4
  EXPECT_FALSE(f->Append(Bytes({8}).data(), 1));           // lands nothing
  std::vector<uint8_t> got;
  ASSERT_TRUE(fs.ReadFileBytes("/f", &got));
  EXPECT_EQ(got, Bytes({1, 2, 3, 4, 5}));
  EXPECT_EQ(fs.total_appended(), 5u);
  fs.set_write_budget(FaultFs::kNoLimit);
  EXPECT_TRUE(f->Append(Bytes({9}).data(), 1));
}

TEST(FaultFs, SyncFailuresAfterN) {
  FaultFs fs;
  auto f = fs.OpenAppend("/f");
  fs.set_sync_failures_after(2);
  EXPECT_TRUE(f->Sync());
  EXPECT_TRUE(f->Sync());
  EXPECT_FALSE(f->Sync());
  EXPECT_FALSE(f->Sync());
  fs.clear_sync_failures();
  EXPECT_TRUE(f->Sync());
}

TEST(FaultFs, CutAtByteDropsEverythingAfterTheCrossingWrite) {
  FaultFs fs;
  fs.CreateDir("/d");
  auto f = fs.OpenAppend("/d/a");
  ASSERT_TRUE(f->Append(Bytes({1, 2, 3, 4}).data(), 4));
  ASSERT_TRUE(fs.RenameFile("/d/a", "/d/b"));
  auto g = fs.OpenAppend("/d/b");
  ASSERT_TRUE(g->Append(Bytes({5, 6, 7, 8}).data(), 4));
  ASSERT_TRUE(fs.DeleteFile("/d/b"));

  // Crash inside the second append: the rename before it happened, the
  // delete after it did not, and the append landed a 2-byte prefix.
  auto cut = fs.CutAtByte(6);
  std::vector<uint8_t> got;
  EXPECT_FALSE(cut->ReadFileBytes("/d/a", &got));
  ASSERT_TRUE(cut->ReadFileBytes("/d/b", &got));
  EXPECT_EQ(got, Bytes({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(cut->total_appended(), 0u);  // the copy starts a fresh history

  // A budget exhausted EXACTLY at an append boundary still cuts there: the
  // crash is the instant the final byte landed, so the trailing delete never
  // happened even though the append it follows landed in full.
  auto boundary = fs.CutAtByte(fs.total_appended());
  ASSERT_TRUE(boundary->ReadFileBytes("/d/b", &got));
  EXPECT_EQ(got, Bytes({1, 2, 3, 4, 5, 6, 7, 8}));

  // A budget beyond every appended byte means the crash interrupted nothing:
  // the whole journal (delete included) replays.
  auto full = fs.CutAtByte(fs.total_appended() + 1);
  EXPECT_FALSE(full->ReadFileBytes("/d/b", &got));
}

TEST(FaultFs, CutAtOpEnumeratesInterOpCrashWindows) {
  FaultFs fs;
  fs.CreateDir("/d");
  auto f = fs.OpenAppend("/d/a");
  ASSERT_TRUE(f->Append(Bytes({1, 2}).data(), 2));  // op 1
  ASSERT_TRUE(fs.RenameFile("/d/a", "/d/b"));       // op 2
  ASSERT_TRUE(fs.DeleteFile("/d/b"));               // op 3
  ASSERT_EQ(fs.journal_ops(), 4u);

  std::vector<uint8_t> got;
  // Between the rename and the delete — a window no byte cut can reach,
  // since both ops sit after the append that consumed the final byte.
  auto mid = fs.CutAtOp(3);
  ASSERT_TRUE(mid->ReadFileBytes("/d/b", &got));
  EXPECT_EQ(got, Bytes({1, 2}));
  EXPECT_FALSE(mid->FileExists("/d/a"));

  auto all = fs.CutAtOp(fs.journal_ops());
  EXPECT_FALSE(all->FileExists("/d/a"));
  EXPECT_FALSE(all->FileExists("/d/b"));
}

TEST(FaultFs, DropUnsyncedRollsBackMetadataAfterLastDirSync) {
  FaultFs fs;
  fs.CreateDir("/d");
  auto f = fs.OpenAppend("/d/a");
  ASSERT_TRUE(f->Append(Bytes({1, 2}).data(), 2));
  ASSERT_TRUE(f->Sync());
  ASSERT_TRUE(fs.RenameFile("/d/a", "/d/b"));

  std::vector<uint8_t> got;
  // Power loss with the rename never made durable: it rolls back.
  auto lost = fs.CutAtOp(fs.journal_ops(), /*drop_unsynced=*/true);
  ASSERT_TRUE(lost->ReadFileBytes("/d/a", &got));
  EXPECT_EQ(got, Bytes({1, 2}));
  EXPECT_FALSE(lost->FileExists("/d/b"));

  // After SyncDir the rename survives the same power loss.
  ASSERT_TRUE(fs.SyncDir("/d"));
  auto kept = fs.CutAtOp(fs.journal_ops(), /*drop_unsynced=*/true);
  EXPECT_FALSE(kept->FileExists("/d/a"));
  ASSERT_TRUE(kept->ReadFileBytes("/d/b", &got));
  EXPECT_EQ(got, Bytes({1, 2}));

  // A process kill (page cache survives) keeps unsynced metadata either way.
  ASSERT_TRUE(fs.DeleteFile("/d/b"));
  auto killed = fs.CutAtOp(fs.journal_ops(), /*drop_unsynced=*/false);
  EXPECT_FALSE(killed->FileExists("/d/b"));
}

TEST(FaultFs, SyncDirSharesTheSyncFailureBudget) {
  FaultFs fs;
  fs.CreateDir("/d");
  fs.set_sync_failures_after(1);
  EXPECT_TRUE(fs.SyncDir("/d"));
  EXPECT_FALSE(fs.SyncDir("/d"));
  fs.clear_sync_failures();
  EXPECT_TRUE(fs.SyncDir("/d"));
}

TEST(FaultFs, CutAtByteDropUnsyncedTruncatesToLastSync) {
  FaultFs fs;
  auto f = fs.OpenAppend("/f");
  ASSERT_TRUE(f->Append(Bytes({1, 2, 3}).data(), 3));
  ASSERT_TRUE(f->Sync());
  ASSERT_TRUE(f->Append(Bytes({4, 5}).data(), 2));

  std::vector<uint8_t> got;
  auto kept = fs.CutAtByte(5);
  ASSERT_TRUE(kept->ReadFileBytes("/f", &got));
  EXPECT_EQ(got.size(), 5u);  // process crash: page cache survives

  auto dropped = fs.CutAtByte(5, /*drop_unsynced=*/true);
  ASSERT_TRUE(dropped->ReadFileBytes("/f", &got));
  EXPECT_EQ(got, Bytes({1, 2, 3}));  // power cut: only synced bytes survive
}

TEST(FaultFs, CorruptByteFlipsInPlace) {
  FaultFs fs;
  auto f = fs.OpenAppend("/f");
  ASSERT_TRUE(f->Append(Bytes({0x00, 0x0f}).data(), 2));
  EXPECT_TRUE(fs.CorruptByte("/f", 1));
  EXPECT_FALSE(fs.CorruptByte("/f", 2));  // past EOF
  EXPECT_FALSE(fs.CorruptByte("/g", 0));  // no such file
  std::vector<uint8_t> got;
  ASSERT_TRUE(fs.ReadFileBytes("/f", &got));
  EXPECT_EQ(got, Bytes({0x00, 0xf0}));
}

// Each handle writes at its own position, so zeros laid ahead by a growing
// TruncateFile are overwritten in place. A power loss puts back what the
// last Sync() saw: synced zeros survive under unsynced overwrites, and
// unsynced growth is dropped, so the file is never shorter than when synced.
TEST(FaultFs, PowerLossRestoresSyncedZerosUnderUnsyncedWrites) {
  FaultFs fs;
  auto f = fs.OpenAppend("/f");
  ASSERT_TRUE(f->Append(Bytes({1, 2, 3}).data(), 3));
  ASSERT_TRUE(fs.TruncateFile("/f", 8));  // zeros laid ahead
  ASSERT_TRUE(f->Sync());
  ASSERT_TRUE(f->Append(Bytes({4, 5}).data(), 2));  // lands inside the zeros
  EXPECT_EQ(f->size(), 5u);
  ASSERT_TRUE(fs.TruncateFile("/f", 12));  // unsynced growth

  std::vector<uint8_t> got;
  auto killed = fs.CutAtOp(fs.journal_ops());
  ASSERT_TRUE(killed->ReadFileBytes("/f", &got));
  EXPECT_EQ(got, Bytes({1, 2, 3, 4, 5, 0, 0, 0, 0, 0, 0, 0}));

  auto power_loss = fs.CutAtOp(fs.journal_ops(), /*drop_unsynced=*/true);
  ASSERT_TRUE(power_loss->ReadFileBytes("/f", &got));
  EXPECT_EQ(got, Bytes({1, 2, 3, 0, 0, 0, 0, 0}));

  // A second handle opens at the physical end, past the zeros.
  EXPECT_EQ(fs.OpenAppend("/f")->size(), 12u);
}

// --- SegmentedWal ----------------------------------------------------------

// Padding is all zeros, and an all-zero frame (type 0, length 0, CRC 0) can
// never pass the CRC, so replay always stops where the padding starts.
TEST(SegmentedWal, AllZeroFrameNeverPassesCrc) {
  const uint8_t zeros[wal::kRecordFrameBytes] = {};
  EXPECT_NE(wal::Crc32c(zeros, 1 + 4), util::GetU32(zeros + 5));
  EXPECT_NE(wal::Crc32cBitwise(zeros, 1 + 4), 0u);
}

// The mechanism: once a commit has laid a chunk of zeros, the commits that
// land inside it neither grow the file nor allocate blocks, so their
// fdatasync has no size or extent change to persist.
TEST(SegmentedWal, CommitsInsideOneChunkKeepFileSizeAndBlocks) {
  const std::string dir = ::testing::TempDir() + "/opx_pad_" + std::to_string(getpid());
  std::string error;
  auto w = SegmentedWal::CreateFresh(wal::PosixEnv(), dir, {}, &error);
  ASSERT_NE(w, nullptr) << error;
  const std::string path = dir + "/" + wal::SegmentFileName(1);
  const std::vector<uint8_t> p(100, 7);
  w->AppendRecord(1, p.data(), p.size());
  ASSERT_TRUE(w->Commit());
  struct stat before {};
  ASSERT_EQ(::stat(path.c_str(), &before), 0);
  for (int i = 0; i < 100; ++i) {  // ~11 KB, well inside the first chunk
    w->AppendRecord(1, p.data(), p.size());
    ASSERT_TRUE(w->Commit());
  }
  struct stat after {};
  ASSERT_EQ(::stat(path.c_str(), &after), 0);
  EXPECT_EQ(after.st_size, before.st_size);
  EXPECT_EQ(after.st_blocks, before.st_blocks);
  w.reset();
  std::vector<std::string> names;
  ASSERT_TRUE(wal::PosixEnv()->ListDir(dir, &names));
  for (const std::string& name : names) {
    wal::PosixEnv()->DeleteFile(dir + "/" + name);
  }
  ::rmdir(dir.c_str());
}

// Zeros after the last record are a clean end: every record replays, the
// dump reports the padding but no problem, and the reopened WAL resumes at
// the logical end.
TEST(SegmentedWal, ZeroPaddingIsACleanEnd) {
  FaultFs fs;
  std::string error;
  auto w = SegmentedWal::CreateFresh(&fs, kDir, {}, &error);
  ASSERT_NE(w, nullptr) << error;
  const std::vector<uint8_t> p = Bytes({1, 2, 3});
  w->AppendRecord(7, p.data(), p.size());
  ASSERT_TRUE(w->Commit());
  const uint64_t logical_end = w->active_size();
  w.reset();
  const std::string path = std::string(kDir) + "/" + wal::SegmentFileName(1);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fs.ReadFileBytes(path, &bytes));
  ASSERT_EQ(bytes.size(), wal::kSegmentPadBytes);
  EXPECT_TRUE(std::all_of(bytes.begin() + static_cast<ptrdiff_t>(logical_end), bytes.end(),
                          [](uint8_t b) { return b == 0; }));

  std::ostringstream out;
  EXPECT_EQ(wal::DumpWal(&fs, kDir, {}, nullptr, out), 0) << out.str();
  EXPECT_NE(out.str().find("padding: " + std::to_string(bytes.size() - logical_end) +
                           " zero bytes at @" + std::to_string(logical_end)),
            std::string::npos)
      << out.str();

  std::vector<Replayed> recs;
  auto r = SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error);
  ASSERT_NE(r, nullptr) << error;
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(r->active_size(), logical_end);
  r->AppendRecord(8, p.data(), p.size());
  ASSERT_TRUE(r->Commit());
  r.reset();
  recs.clear();
  ASSERT_NE(SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error), nullptr) << error;
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[1].type, 8);
}

// A crash mid-commit leaves a torn frame at the logical end with the zeros
// still behind it: a torn tail, cut like any other.
TEST(SegmentedWal, TornRecordInsidePaddingIsCut) {
  FaultFs fs;
  std::string error;
  auto w = SegmentedWal::CreateFresh(&fs, kDir, {}, &error);
  ASSERT_NE(w, nullptr) << error;
  const std::vector<uint8_t> p = Bytes({1, 2, 3});
  w->AppendRecord(7, p.data(), p.size());
  ASSERT_TRUE(w->Commit());
  w->AppendRecord(8, p.data(), p.size());
  ASSERT_TRUE(w->Commit());
  const uint64_t logical_end = w->active_size();
  w.reset();
  // Damage the second record's last payload byte: a bad frame followed by
  // zeros.
  const std::string path = std::string(kDir) + "/" + wal::SegmentFileName(1);
  ASSERT_TRUE(fs.CorruptByte(path, logical_end - 5));
  std::ostringstream out;
  EXPECT_GE(wal::DumpWal(&fs, kDir, {}, nullptr, out), 1);
  EXPECT_NE(out.str().find("torn tail"), std::string::npos) << out.str();

  std::vector<Replayed> recs;
  auto r = SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error);
  ASSERT_NE(r, nullptr) << error;
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, 7);
}

// A CRC-valid frame lying behind a torn one (say, the later page of a commit
// whose earlier page never landed) is never replayed: recovery stops at the
// torn frame and cuts everything after it, so records written later cannot
// end up in front of it either.
TEST(SegmentedWal, ValidFrameBehindTornOneIsNeverReplayed) {
  FaultFs fs;
  fs.CreateDir(kDir);
  std::vector<uint8_t> seg = SegmentHeaderBytes(1);
  FrameRecordBytes(&seg, 1, Bytes({0x11}));
  std::vector<uint8_t> torn;
  FrameRecordBytes(&torn, 2, Bytes({0x22, 0x22, 0x22, 0x22}));
  torn.back() ^= 0x01;
  seg.insert(seg.end(), torn.begin(), torn.end());
  FrameRecordBytes(&seg, 3, Bytes({0x33}));  // CRC-valid, behind the torn one
  seg.resize(seg.size() + 64, 0);            // and the padding
  const std::string path = std::string(kDir) + "/" + wal::SegmentFileName(1);
  WriteWholeFile(&fs, path, seg);

  std::vector<Replayed> recs;
  std::string error;
  auto r = SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error);
  ASSERT_NE(r, nullptr) << error;
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, 1);
  const std::vector<uint8_t> p = Bytes({0x44});
  r->AppendRecord(4, p.data(), p.size());
  ASSERT_TRUE(r->Commit());
  r.reset();

  recs.clear();
  ASSERT_NE(SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error), nullptr) << error;
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].type, 1);
  EXPECT_EQ(recs[1].type, 4);
}

TEST(SegmentedWal, RoundTripsRecordsThroughRecovery) {
  FaultFs fs;
  std::string error;
  auto w = SegmentedWal::CreateFresh(&fs, kDir, {}, &error);
  ASSERT_NE(w, nullptr) << error;
  const std::vector<uint8_t> p1 = Bytes({10, 11, 12});
  const std::vector<uint8_t> p2;  // empty payloads are legal
  w->AppendRecord(1, p1.data(), p1.size());
  w->AppendRecord(2, p2.data(), p2.size());
  EXPECT_TRUE(w->HasPending());
  ASSERT_TRUE(w->Commit());
  EXPECT_FALSE(w->HasPending());
  w.reset();

  std::vector<Replayed> recs;
  auto r = SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error);
  ASSERT_NE(r, nullptr) << error;
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].type, 1);
  EXPECT_EQ(recs[0].payload, p1);
  EXPECT_EQ(recs[1].type, 2);
  EXPECT_TRUE(recs[1].payload.empty());
  EXPECT_EQ(r->active_seq(), 1u);
  EXPECT_EQ(r->segment_count(), 1u);
}

// Encoding in place produces the very bytes AppendRecord frames from a copy.
TEST(SegmentedWal, AppendRecordInPlaceMatchesAppendRecord) {
  const std::vector<uint8_t> payload = Bytes({5, 4, 3, 2, 1, 0, 9});
  std::vector<uint8_t> images[2];
  for (int in_place = 0; in_place < 2; ++in_place) {
    FaultFs fs;
    std::string error;
    auto w = SegmentedWal::CreateFresh(&fs, kDir, {}, &error);
    ASSERT_NE(w, nullptr) << error;
    for (uint8_t type = 1; type <= 3; ++type) {
      const size_t len = payload.size() - type;  // 6, 5, 4 bytes
      if (in_place == 1) {
        w->AppendRecordInPlace(type, len, [&payload, len](uint8_t* out) {
          std::memcpy(out, payload.data(), len);
        });
      } else {
        w->AppendRecord(type, payload.data(), len);
      }
    }
    ASSERT_TRUE(w->Commit());
    ASSERT_TRUE(fs.ReadFileBytes(std::string(kDir) + "/" + wal::SegmentFileName(1),
                                 &images[in_place]));
    images[in_place].resize(w->active_size());  // the records, not the padding
  }
  EXPECT_EQ(images[0], images[1]);
  EXPECT_EQ(images[0].size(), wal::kSegmentHeaderSize + 3 * wal::kRecordFrameBytes + 6 + 5 + 4);
}

TEST(SegmentedWal, UncommittedBufferIsLostButNothingElse) {
  FaultFs fs;
  std::string error;
  // Unbounded thresholds: nothing reaches disk until Commit().
  WalOptions opts;
  opts.sync_every_bytes = 0;
  opts.sync_every_records = 0;
  auto w = SegmentedWal::CreateFresh(&fs, kDir, opts, &error);
  ASSERT_NE(w, nullptr) << error;
  const std::vector<uint8_t> p = Bytes({1});
  w->AppendRecord(1, p.data(), p.size());
  ASSERT_TRUE(w->Commit());
  w->AppendRecord(2, p.data(), p.size());  // buffered, never committed
  w.reset();

  std::vector<Replayed> recs;
  auto r = SegmentedWal::Open(&fs, kDir, opts, Collect(&recs), &error);
  ASSERT_NE(r, nullptr) << error;
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, 1);
}

TEST(SegmentedWal, ThresholdFlushReachesDiskWithoutCommit) {
  FaultFs fs;
  std::string error;
  WalOptions opts;
  opts.sync_every_bytes = 0;
  opts.sync_every_records = 2;
  auto w = SegmentedWal::CreateFresh(&fs, kDir, opts, &error);
  ASSERT_NE(w, nullptr) << error;
  const std::vector<uint8_t> p = Bytes({1});
  w->AppendRecord(1, p.data(), p.size());
  w->AppendRecord(2, p.data(), p.size());  // crosses sync_every_records
  EXPECT_FALSE(w->HasPending());
  w.reset();  // no Commit()

  std::vector<Replayed> recs;
  auto r = SegmentedWal::Open(&fs, kDir, opts, Collect(&recs), &error);
  ASSERT_NE(r, nullptr) << error;
  EXPECT_EQ(recs.size(), 2u);
}

TEST(SegmentedWal, TornTailIsTruncatedAndWritesResume) {
  FaultFs fs;
  std::string error;
  auto w = SegmentedWal::CreateFresh(&fs, kDir, {}, &error);
  ASSERT_NE(w, nullptr) << error;
  const std::vector<uint8_t> p = Bytes({1, 2, 3});
  w->AppendRecord(7, p.data(), p.size());
  ASSERT_TRUE(w->Commit());
  const uint64_t logical_end = w->active_size();
  w.reset();

  // A crash mid-append leaves garbage after the last full record (here in
  // place of the zero padding; TornRecordInsidePaddingIsCut keeps it).
  const std::string path = std::string(kDir) + "/" + wal::SegmentFileName(1);
  ASSERT_TRUE(fs.TruncateFile(path, logical_end));
  auto f = fs.OpenAppend(path);
  const std::vector<uint8_t> junk = Bytes({9, 9, 9});
  ASSERT_TRUE(f->Append(junk.data(), junk.size()));
  const uint64_t torn_size = f->size();

  std::vector<Replayed> recs;
  auto r = SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error);
  ASSERT_NE(r, nullptr) << error;
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, 7);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fs.ReadFileBytes(path, &bytes));
  EXPECT_EQ(bytes.size(), torn_size - junk.size());  // tail cut off

  // The reopened WAL appends cleanly after the truncation point.
  r->AppendRecord(8, p.data(), p.size());
  ASSERT_TRUE(r->Commit());
  r.reset();
  recs.clear();
  auto again = SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error);
  ASSERT_NE(again, nullptr) << error;
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[1].type, 8);
}

TEST(SegmentedWal, CorruptSealedSegmentRefusesLoudly) {
  FaultFs fs;
  fs.CreateDir(kDir);
  // Two-segment chain built by hand: seg 1 sealed, seg 2 active.
  std::vector<uint8_t> seg1 = SegmentHeaderBytes(1);
  FrameRecordBytes(&seg1, 1, Bytes({42}));
  std::vector<uint8_t> seg2 = SegmentHeaderBytes(2);
  FrameRecordBytes(&seg2, 2, Bytes({43}));
  WriteWholeFile(&fs, std::string(kDir) + "/" + wal::SegmentFileName(1), seg1);
  WriteWholeFile(&fs, std::string(kDir) + "/" + wal::SegmentFileName(2), seg2);

  // Sanity: the intact chain replays both records.
  std::vector<Replayed> recs;
  std::string error;
  ASSERT_NE(SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error), nullptr) << error;
  ASSERT_EQ(recs.size(), 2u);

  // Flip one payload byte in the SEALED segment: those bytes were synced and
  // acknowledged, so recovery must refuse rather than truncate.
  ASSERT_TRUE(fs.CorruptByte(std::string(kDir) + "/" + wal::SegmentFileName(1),
                             wal::kSegmentHeaderSize + 5));
  recs.clear();
  error.clear();
  EXPECT_EQ(SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error), nullptr);
  EXPECT_NE(error.find("sealed"), std::string::npos) << error;
}

TEST(SegmentedWal, ChainGapRefusesLoudly) {
  FaultFs fs;
  fs.CreateDir(kDir);
  WriteWholeFile(&fs, std::string(kDir) + "/" + wal::SegmentFileName(1),
                 SegmentHeaderBytes(1));
  WriteWholeFile(&fs, std::string(kDir) + "/" + wal::SegmentFileName(3),
                 SegmentHeaderBytes(3));
  std::vector<Replayed> recs;
  std::string error;
  EXPECT_EQ(SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error), nullptr);
  EXPECT_NE(error.find("gap"), std::string::npos) << error;
}

TEST(SegmentedWal, CorruptHeaderRefusesLoudly) {
  FaultFs fs;
  std::string error;
  auto w = SegmentedWal::CreateFresh(&fs, kDir, {}, &error);
  ASSERT_NE(w, nullptr) << error;
  w.reset();
  ASSERT_TRUE(fs.CorruptByte(std::string(kDir) + "/" + wal::SegmentFileName(1), 3));
  std::vector<Replayed> recs;
  EXPECT_EQ(SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error), nullptr);
  EXPECT_NE(error.find("header"), std::string::npos) << error;
}

TEST(SegmentedWal, LeftoverTmpFilesAreSweptAtOpen) {
  FaultFs fs;
  std::string error;
  auto w = SegmentedWal::CreateFresh(&fs, kDir, {}, &error);
  ASSERT_NE(w, nullptr) << error;
  w.reset();
  const std::string tmp = std::string(kDir) + "/" + wal::SegmentFileName(2) + ".tmp";
  WriteWholeFile(&fs, tmp, SegmentHeaderBytes(2));
  std::vector<Replayed> recs;
  auto r = SegmentedWal::Open(&fs, kDir, {}, Collect(&recs), &error);
  ASSERT_NE(r, nullptr) << error;
  EXPECT_FALSE(fs.FileExists(tmp));
  EXPECT_EQ(r->active_seq(), 1u);
}

TEST(SegmentedWal, ReplayRefusalInLastSegmentFailsRecovery) {
  FaultFs fs;
  std::string error;
  auto w = SegmentedWal::CreateFresh(&fs, kDir, {}, &error);
  ASSERT_NE(w, nullptr) << error;
  const std::vector<uint8_t> p = Bytes({1});
  w->AppendRecord(1, p.data(), p.size());
  w->AppendRecord(99, p.data(), p.size());  // the replay below refuses type 99
  ASSERT_TRUE(w->Commit());
  w.reset();

  // The refused record is CRC-valid and was group-committed: it may have
  // been acknowledged, so recovery must refuse loudly rather than truncate
  // it away like a torn tail (which could silently un-decide entries).
  auto refuse_99 = [](uint8_t type, const uint8_t*, size_t) { return type != 99; };
  EXPECT_EQ(SegmentedWal::Open(&fs, kDir, {}, refuse_99, &error), nullptr);
  EXPECT_NE(error.find("refused"), std::string::npos) << error;
}

TEST(SegmentedWal, ParseSegmentFileNameRejectsOverflowingDigitRuns) {
  uint64_t seq = 0;
  EXPECT_TRUE(wal::ParseSegmentFileName("wal-00000042.seg", &seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_TRUE(wal::ParseSegmentFileName("wal-18446744073709551615.seg", &seq));
  EXPECT_EQ(seq, ~0ull);
  // One past uint64 max and an absurd digit run: both would wrap and could
  // alias a real sequence number.
  EXPECT_FALSE(wal::ParseSegmentFileName("wal-18446744073709551616.seg", &seq));
  EXPECT_FALSE(wal::ParseSegmentFileName("wal-99999999999999999999999999.seg", &seq));
}

TEST(SegmentedWal, RotationCheckpointsAndDeletesOldSegments) {
  FaultFs fs;
  std::string error;
  WalOptions opts;
  opts.segment_bytes = 128;  // rotate quickly
  auto w = SegmentedWal::CreateFresh(&fs, kDir, opts, &error);
  ASSERT_NE(w, nullptr) << error;
  // Checkpoint = the running record count, so recovery can verify it.
  uint64_t count = 0;
  w->set_checkpoint(
      [&count] {
        std::vector<uint8_t> payload(8);
        for (int i = 0; i < 8; ++i) {
          payload[static_cast<size_t>(i)] = static_cast<uint8_t>(count >> (8 * i));
        }
        return std::make_pair(static_cast<uint8_t>(200), payload);
      },
      [] { return uint64_t{8}; });

  const std::vector<uint8_t> p = Bytes({1, 2, 3, 4, 5, 6, 7, 8});
  for (int i = 0; i < 40; ++i) {
    w->AppendRecord(1, p.data(), p.size());
    ++count;
    ASSERT_TRUE(w->Commit()) << w->error();
  }
  EXPECT_GT(w->active_seq(), 1u);
  EXPECT_EQ(w->segment_count(), 1u);  // rotation deletes everything older
  const uint64_t final_seq = w->active_seq();
  EXPECT_FALSE(fs.FileExists(std::string(kDir) + "/" + wal::SegmentFileName(1)));
  w.reset();

  // Recovery sees one checkpoint record followed by the post-rotation tail,
  // and the counts line up to exactly 40 appends.
  uint64_t base = 0, tail = 0;
  auto replay = [&base, &tail](uint8_t type, const uint8_t* payload, size_t len) {
    if (type == 200) {
      if (len != 8) {
        return false;
      }
      base = 0;
      for (int i = 0; i < 8; ++i) {
        base |= static_cast<uint64_t>(payload[i]) << (8 * i);
      }
      tail = 0;
      return true;
    }
    ++tail;
    return true;
  };
  auto r = SegmentedWal::Open(&fs, kDir, opts, replay, &error);
  ASSERT_NE(r, nullptr) << error;
  EXPECT_EQ(r->active_seq(), final_seq);
  EXPECT_EQ(base + tail, 40u);
}

TEST(SegmentedWal, FailedSyncPoisons) {
  FaultFs fs;
  std::string error;
  WalOptions opts;
  opts.sync_every_bytes = 0;
  opts.sync_every_records = 0;
  auto w = SegmentedWal::CreateFresh(&fs, kDir, opts, &error);
  ASSERT_NE(w, nullptr) << error;
  const std::vector<uint8_t> p = Bytes({1});
  w->AppendRecord(1, p.data(), p.size());
  fs.set_sync_failures_after(0);
  EXPECT_FALSE(w->Commit());
  EXPECT_FALSE(w->ok());
  EXPECT_NE(w->error().find("fdatasync"), std::string::npos) << w->error();
  // Still failed even after the device recovers: the WAL cannot know which
  // of its bytes survived.
  fs.clear_sync_failures();
  EXPECT_FALSE(w->Commit());
}

// --- wal_inspect dump format (golden) --------------------------------------

// Builds a deterministic two-segment WAL with a torn tail and dumps it; the
// exact output is pinned by tests/golden/wal_inspect.golden. Regenerate by
// running with --gtest_filter=WalInspect.* and copying the "actual" block.
TEST(WalInspect, GoldenDump) {
  FaultFs fs;
  fs.CreateDir(kDir);
  std::vector<uint8_t> seg1 = SegmentHeaderBytes(1);
  FrameRecordBytes(&seg1, 1, Bytes({0x01, 0x02}));
  FrameRecordBytes(&seg1, 5, Bytes({}));
  std::vector<uint8_t> seg2 = SegmentHeaderBytes(2);
  FrameRecordBytes(&seg2, 3, Bytes({0xaa}));
  seg2.push_back(0x42);  // torn tail: one stray byte
  WriteWholeFile(&fs, std::string(kDir) + "/" + wal::SegmentFileName(1), seg1);
  WriteWholeFile(&fs, std::string(kDir) + "/" + wal::SegmentFileName(2), seg2);

  wal::InspectOptions options;
  options.list_records = true;
  options.verify_crc = true;
  auto describe = [](uint8_t type, const uint8_t*, size_t) -> std::string {
    return type == 5 ? "decide" : "";
  };
  std::ostringstream out;
  const int problems = wal::DumpWal(&fs, kDir, options, describe, out);
  EXPECT_EQ(problems, 1);  // the torn tail

  std::ifstream golden(std::string(OPX_SOURCE_DIR) + "/tests/golden/wal_inspect.golden");
  ASSERT_TRUE(golden.good()) << "missing tests/golden/wal_inspect.golden";
  std::stringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(out.str(), want.str()) << "actual:\n" << out.str();
}

TEST(WalInspect, CountsCrcFailures) {
  FaultFs fs;
  fs.CreateDir(kDir);
  std::vector<uint8_t> seg1 = SegmentHeaderBytes(1);
  FrameRecordBytes(&seg1, 1, Bytes({0x01}));
  FrameRecordBytes(&seg1, 2, Bytes({0x02}));
  WriteWholeFile(&fs, std::string(kDir) + "/" + wal::SegmentFileName(1), seg1);
  ASSERT_TRUE(fs.CorruptByte(std::string(kDir) + "/" + wal::SegmentFileName(1),
                             wal::kSegmentHeaderSize + 5));

  wal::InspectOptions options;
  options.verify_crc = true;
  std::ostringstream out;
  const int problems = wal::DumpWal(&fs, kDir, options, nullptr, out);
  EXPECT_GE(problems, 1);
  EXPECT_NE(out.str().find("crc_failures=1"), std::string::npos) << out.str();
}

}  // namespace
}  // namespace opx
