// Tests that run the operator tools as processes: omni_node's exit codes for
// flags, peer lists and WALs it cannot use, and wal_inspect's read-only
// default against its explicit --repair. In-process, ServerStart covers the
// same WAL failures at OmniTcpServer::Start.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/net/omni_tcp_server.h"
#include "src/omnipaxos/durable_storage.h"
#include "src/wal/segmented_wal.h"

namespace opx {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/opx_tools_" + name + "_" + std::to_string(getpid());
}

struct ToolRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr together
};

ToolRun RunTool(const std::string& command) {
  const std::string out = TempPath("output");
  const int status = std::system((command + " >" + out + " 2>&1").c_str());
  ToolRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(out);
  std::stringstream text;
  text << in.rdbuf();
  run.output = text.str();
  std::remove(out.c_str());
  return run;
}

// Every plain file in `dir` with its bytes.
std::map<std::string, std::vector<uint8_t>> Snapshot(const std::string& dir) {
  std::map<std::string, std::vector<uint8_t>> files;
  std::vector<std::string> names;
  if (wal::PosixEnv()->ListDir(dir, &names)) {
    for (const std::string& name : names) {
      wal::PosixEnv()->ReadFileBytes(dir + "/" + name, &files[name]);
    }
  }
  return files;
}

void RemoveDir(const std::string& dir) {
  for (const auto& [name, bytes] : Snapshot(dir)) {
    wal::PosixEnv()->DeleteFile(dir + "/" + name);
  }
  ::rmdir(dir.c_str());
}

// A WAL directory whose only segment has a damaged header: recovery refuses
// it rather than treating it as empty.
std::string RefusedJournalDir() {
  const std::string dir = TempPath("refused");
  RemoveDir(dir);
  EXPECT_TRUE(wal::PosixEnv()->CreateDir(dir));
  auto f = wal::PosixEnv()->OpenAppend(dir + "/" + wal::SegmentFileName(1));
  const std::vector<uint8_t> junk(64, 0x5a);
  EXPECT_TRUE(f->Append(junk.data(), junk.size()));
  return dir;
}

// Two committed records, the second then torn at the logical end, plus a
// leftover .tmp from an interrupted rotation.
std::string TornWalDir() {
  const std::string dir = TempPath("torn");
  RemoveDir(dir);
  uint64_t logical_end = 0;
  {
    auto storage = omni::DurableStorage::Create(dir);
    storage->Append(omni::Entry::Command(1, 8));
    EXPECT_TRUE(storage->Sync());
    storage->Append(omni::Entry::Command(2, 8));
    EXPECT_TRUE(storage->Sync());
    logical_end = storage->wal().active_size();
  }
  EXPECT_TRUE(wal::PosixEnv()->TruncateFile(dir + "/" + wal::SegmentFileName(1),
                                            logical_end - 3));
  auto tmp = wal::PosixEnv()->OpenAppend(dir + "/" + wal::SegmentFileName(2) + ".tmp");
  const std::vector<uint8_t> partial(10, 0x11);
  EXPECT_TRUE(tmp->Append(partial.data(), partial.size()));
  return dir;
}

const std::string kPeers = " --peers=2=127.0.0.1:7002";

// --- omni_node -------------------------------------------------------------

TEST(OmniNodeTool, NonNumericIdExitsTwo) {
  const ToolRun run = RunTool(std::string(OPX_OMNI_NODE) + " --id=x" + kPeers);
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("bad value for --id"), std::string::npos) << run.output;
}

TEST(OmniNodeTool, NonNumericTimeoutExitsTwo) {
  const ToolRun run = RunTool(std::string(OPX_OMNI_NODE) + " --id=1 --timeout-ms=abc" + kPeers);
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("bad value for --timeout-ms"), std::string::npos) << run.output;
}

TEST(OmniNodeTool, IdBeyondNodeIdRangeExitsTwoInsteadOfWrapping) {
  const ToolRun run = RunTool(std::string(OPX_OMNI_NODE) + " --id=99999999999" + kPeers);
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("bad value for --id"), std::string::npos) << run.output;
}

TEST(OmniNodeTool, OwnIdInPeersExitsTwo) {
  const ToolRun run = RunTool(std::string(OPX_OMNI_NODE) +
                              " --id=1 --peers=1=127.0.0.1:7001,2=127.0.0.1:7002");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("own --id 1"), std::string::npos) << run.output;
}

TEST(OmniNodeTool, HostNamePeerExitsTwo) {
  const ToolRun run = RunTool(std::string(OPX_OMNI_NODE) + " --id=1 --peers=2=localhost:7002");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("ID=IPV4:PORT"), std::string::npos) << run.output;
}

TEST(OmniNodeTool, MissingWalParentDirectoryExitsThree) {
  const std::string dir = TempPath("no_parent") + "/wal";
  const ToolRun run =
      RunTool(std::string(OPX_OMNI_NODE) + " --id=1" + kPeers + " --wal-dir=" + dir);
  EXPECT_EQ(run.exit_code, 3) << run.output;
  EXPECT_EQ(run.output, "omni_node: cannot create WAL directory " + dir + "\n");
}

TEST(OmniNodeTool, RefusedJournalExitsThree) {
  const std::string dir = RefusedJournalDir();
  const ToolRun run =
      RunTool(std::string(OPX_OMNI_NODE) + " --id=1" + kPeers + " --wal-dir=" + dir);
  EXPECT_EQ(run.exit_code, 3) << run.output;
  EXPECT_NE(run.output.find("corrupt segment header"), std::string::npos) << run.output;
  EXPECT_EQ(std::count(run.output.begin(), run.output.end(), '\n'), 1) << run.output;
  RemoveDir(dir);
}

// --- OmniTcpServer::Start ----------------------------------------------------

net::ServerOptions WalServerOptions(const std::string& dir) {
  net::ServerOptions options;
  options.id = 1;
  options.peers[2] = net::Endpoint{"127.0.0.1", 7002};
  options.wal_dir = dir;
  return options;
}

TEST(ServerStart, MissingWalParentDirectoryIsReported) {
  const std::string dir = TempPath("no_parent") + "/wal";
  net::OmniTcpServer server(WalServerOptions(dir));
  EXPECT_FALSE(server.Start());
  EXPECT_EQ(server.wal_error(), "cannot create WAL directory " + dir);
}

TEST(ServerStart, RefusedJournalIsReported) {
  const std::string dir = RefusedJournalDir();
  net::OmniTcpServer server(WalServerOptions(dir));
  EXPECT_FALSE(server.Start());
  EXPECT_NE(server.wal_error().find("corrupt segment header"), std::string::npos)
      << server.wal_error();
  RemoveDir(dir);
}

// --- wal_inspect ---------------------------------------------------------------

TEST(WalInspectTool, InspectLeavesTheDirectoryUnchanged) {
  const std::string dir = TornWalDir();
  const auto before = Snapshot(dir);
  ASSERT_EQ(before.size(), 2u);
  const ToolRun run = RunTool(std::string(OPX_WAL_INSPECT) + " " + dir);
  EXPECT_EQ(run.exit_code, 1) << run.output;  // the torn tail is a problem
  EXPECT_NE(run.output.find("torn tail"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("log length:     1"), std::string::npos) << run.output;
  EXPECT_EQ(Snapshot(dir), before);
  RemoveDir(dir);
}

TEST(WalInspectTool, RepairCutsTheTornTail) {
  const std::string dir = TornWalDir();
  const auto before = Snapshot(dir);
  const ToolRun run = RunTool(std::string(OPX_WAL_INSPECT) + " " + dir + " --repair");
  EXPECT_EQ(run.exit_code, 1) << run.output;  // the dump ran before the repair
  const auto after = Snapshot(dir);
  ASSERT_EQ(after.size(), 1u);  // the .tmp leftover is gone
  const std::string seg = wal::SegmentFileName(1);
  ASSERT_EQ(after.count(seg), 1u);
  EXPECT_LT(after.at(seg).size(), before.at(seg).size());
  const ToolRun again = RunTool(std::string(OPX_WAL_INSPECT) + " " + dir);
  EXPECT_EQ(again.exit_code, 0) << again.output;
  RemoveDir(dir);
}

// Zero padding is a clean end: wal_inspect exits 0 and recovers the state the
// node committed, with the same fingerprint.
TEST(WalInspectTool, ZeroPaddingIsACleanEnd) {
  const std::string dir = TempPath("padded");
  RemoveDir(dir);
  uint64_t fingerprint = 0;
  {
    auto storage = omni::DurableStorage::Create(dir);
    storage->set_promised_round(omni::Ballot{3, 0, 2});
    storage->Append(omni::Entry::Command(1, 8));
    storage->set_decided_idx(1);
    ASSERT_TRUE(storage->Sync());
    fingerprint = omni::StorageFingerprint(*storage);
  }
  const auto before = Snapshot(dir);
  ASSERT_EQ(before.at(wal::SegmentFileName(1)).size(), wal::kSegmentPadBytes);
  const ToolRun run = RunTool(std::string(OPX_WAL_INSPECT) + " " + dir);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("padding:"), std::string::npos) << run.output;
  char want[64];
  std::snprintf(want, sizeof want, "fingerprint:    %016lx", fingerprint);
  EXPECT_NE(run.output.find(want), std::string::npos) << run.output;
  EXPECT_EQ(Snapshot(dir), before);
  RemoveDir(dir);
}

}  // namespace
}  // namespace opx
