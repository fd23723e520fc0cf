// A benchmark-owned copy of the OmniTcpServer node loop, with layer spans.
//
// It wires the same public pieces as OmniTcpServer::Start/StepOnce/Pump, in
// the same order — TcpTransport, OmniPaxos, Storage or DurableStorage with the
// transport flush hook set to Sync — and answers the same client frames
// (0x01 append, 0x03 status, 0x06 lease read). Because the benchmark sets
// every callback, Handle, the client handler and Sync nest as child spans of
// the epoll wait and the flush, and each layer's self time falls out.
//
// TcpTransport::Poll is Wait() followed by Flush(); the loop calls the two
// through their public entry points so the writev time is its own span.
//
// Delete this file once spans live inside OmniTcpServer itself.
#ifndef PERFBENCH_SRC_TRACED_NODE_H_
#define PERFBENCH_SRC_TRACED_NODE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "perfbench/src/common.h"
#include "src/net/omni_tcp_server.h"
#include "src/net/tcp_transport.h"
#include "src/obs/metrics.h"
#include "src/omnipaxos/durable_storage.h"
#include "src/omnipaxos/omni_paxos.h"

namespace perfbench {

// Counts the bytes the WAL hands to the filesystem.
class CountingEnv final : public opx::wal::Env {
 public:
  std::unique_ptr<opx::wal::AppendFile> OpenAppend(const std::string& path) override;
  bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) override {
    return base_->ReadFileBytes(path, out);
  }
  bool ListDir(const std::string& dir, std::vector<std::string>* names) override {
    return base_->ListDir(dir, names);
  }
  bool CreateDir(const std::string& dir) override { return base_->CreateDir(dir); }
  bool DeleteFile(const std::string& path) override { return base_->DeleteFile(path); }
  bool RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  bool TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  bool FileExists(const std::string& path) override { return base_->FileExists(path); }
  bool SyncDir(const std::string& dir) override { return base_->SyncDir(dir); }

  uint64_t bytes_appended() const { return bytes_; }

 private:
  class File;
  opx::wal::Env* base_ = opx::wal::PosixEnv();
  uint64_t bytes_ = 0;  // touched only by the owning node's thread
};

// Everything one node has counted so far; the benchmark subtracts two
// captures to get a window.
struct NodeCapture {
  SpanTotals spans;
  int64_t at_ns = 0;
  uint64_t decided = 0;
  uint64_t reads_served = 0;
  uint64_t passes = 0;
  uint64_t leader_changes = 0;
  bool is_leader = false;
  uint64_t accept_msgs = 0;     // AcceptDecide messages with entries
  uint64_t accept_entries = 0;  // entries those messages carried
  uint64_t wal_syncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_segment_seq = 0;
  uint64_t net_bytes_out = 0;
  uint64_t net_frames_out = 0;
  uint64_t net_frames_shared = 0;
  uint64_t net_writev = 0;
  LatencyHistogram sync_ns;  // one sample per DurableStorage::Sync
};

class TracedNode {
 public:
  explicit TracedNode(opx::net::ServerOptions options);
  ~TracedNode();

  TracedNode(const TracedNode&) = delete;
  TracedNode& operator=(const TracedNode&) = delete;

  bool Start();
  // Runs the loop until `stop`; answers Capture() requests between passes.
  void Run(const std::atomic<bool>& stop);

  // Called from another thread: blocks until the loop thread has copied its
  // counters (at most one pass later). `*out` must not be shared.
  void Capture(NodeCapture* out);

 private:
  void StepOnce(int timeout_ms);
  void OnPeerMessage(opx::NodeId from, opx::omni::OmniMessage msg);
  void OnClientFrame(uint64_t client, const uint8_t* data, size_t len);
  void Pump();
  void ServeCapture();
  void Fill(NodeCapture* out) const;

  opx::net::ServerOptions options_;
  SpanStack spans_;
  CountingEnv env_;
  opx::obs::Metrics metrics_;
  std::unique_ptr<opx::omni::Storage> storage_;
  opx::omni::DurableStorage* durable_ = nullptr;
  std::unique_ptr<opx::omni::OmniPaxos> node_;
  std::unique_ptr<opx::net::TcpTransport> transport_;
  std::set<uint64_t> clients_;
  opx::LogIndex pushed_ = 0;
  int tick_timer_ = -1;

  uint64_t reads_served_ = 0;
  uint64_t passes_ = 0;
  uint64_t leader_changes_ = 0;
  opx::NodeId last_leader_ = opx::kNoNode;
  uint64_t accept_msgs_ = 0;
  uint64_t accept_entries_ = 0;
  uint64_t wal_syncs_ = 0;
  LatencyHistogram sync_ns_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> capture_wanted_{false};
  NodeCapture* capture_out_ = nullptr;  // guarded by mu_
  uint64_t captures_done_ = 0;          // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACED_NODE_H_
