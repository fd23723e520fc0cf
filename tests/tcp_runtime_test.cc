// Integration tests for the real TCP runtime: three OmniTcpServer instances
// on localhost sockets (each on its own thread), driven by OmniClient or a
// raw socket — replication, leader redirect, crash + WAL recovery, and
// leader-lease reads, all over actual TCP.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client_wire.h"
#include "src/net/frame_queue.h"
#include "src/net/omni_client.h"
#include "src/net/omni_tcp_server.h"
#include "src/obs/trace.h"
#include "src/util/le_bytes.h"
#include "tests/tcp_cluster.h"

namespace opx {
namespace {

using net::Endpoint;
using net::OmniClient;
using testing::TcpCluster;

// A blocking client socket that speaks client_wire frames directly, so a
// test can pipeline requests instead of waiting for each reply the way
// OmniClient does.
class RawClient {
 public:
  explicit RawClient(const Endpoint& endpoint) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(endpoint.port);
    inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr);
    if (fd_ < 0 || connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ADD_FAILURE() << "cannot connect to port " << endpoint.port;
      return;
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const uint8_t hello = net::kHelloClient;
    Queue(&hello, 1);
  }
  ~RawClient() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  // Appends one [u32 len][payload] frame to the unsent bytes.
  void Queue(const uint8_t* payload, size_t len) {
    util::PutU32(&out_, static_cast<uint32_t>(len));
    out_.insert(out_.end(), payload, payload + len);
  }

  bool SendQueued() {
    size_t sent = 0;
    while (sent < out_.size()) {
      const ssize_t n = write(fd_, out_.data() + sent, out_.size() - sent);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    out_.clear();
    return true;
  }

  // Feeds every received frame to `on_frame`, which returns whether it
  // wants more. True once it wants no more (the rest of that read is still
  // fed to it); false if the socket closes or `timeout_ms` passes without a
  // byte first.
  template <typename OnFrame>
  bool ReadFrames(int timeout_ms, OnFrame&& on_frame) {
    const timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    bool more = true;
    while (more) {
      uint8_t chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        return false;
      }
      reader_.Feed(chunk, static_cast<size_t>(n), [&](const uint8_t* d, size_t len) {
        more = on_frame(d, len) && more;
        return true;
      });
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::vector<uint8_t> out_;
  net::FrameReader reader_;
};

TEST(TcpRuntime, ReplicatesCommandsEndToEnd) {
  TcpCluster cluster;
  OmniClient client(cluster.endpoints());
  ASSERT_TRUE(client.Connect(Seconds(10)));
  for (uint64_t cmd = 1; cmd <= 20; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
  }
  OmniClient::Status status;
  ASSERT_TRUE(client.GetStatus(&status, Seconds(5)));
  EXPECT_GE(status.decided, 20u);
  EXPECT_NE(status.leader, kNoNode);
}

TEST(TcpRuntime, FollowerRedirectsToLeader) {
  TcpCluster cluster;
  OmniClient probe(cluster.endpoints());
  ASSERT_TRUE(probe.Connect(Seconds(10)));
  OmniClient::Status status;
  ASSERT_TRUE(probe.GetStatus(&status, Seconds(10)));
  // Wait for a leader to emerge.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (status.leader == kNoNode && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(probe.GetStatus(&status, Seconds(5)));
  }
  ASSERT_NE(status.leader, kNoNode);
  // Connect specifically to a follower and append: the follower's redirect
  // must move the client to the leader, which decides the command.
  const NodeId follower = status.leader == 1 ? 2 : 1;
  OmniClient client(cluster.endpoints());
  ASSERT_TRUE(client.ConnectTo(follower));
  EXPECT_TRUE(client.AppendAndWait(777, 8, Seconds(10)));
  EXPECT_EQ(client.connected_to(), status.leader);
}

// A fresh cluster starts heartbeat round 1 as soon as every peer link is up
// both ways, so all three servers elect their first leader at the end of
// round 1, one election timeout later. A dial refused because the peer did
// not listen yet is redialed at the peer's hello; otherwise its 200 ms
// backoff would leave round 1 without a majority of replies. Each server's
// first kBleLeader trace event carries the round that elected it.
TEST(TcpRuntime, FirstLeaderIsElectedAtTheEndOfHeartbeatRoundOne) {
#if !defined(OPX_OBS_ENABLED)
  GTEST_SKIP() << "built with OPX_OBS=OFF; no trace to read";
#else
  std::array<obs::ObsSink, 3> sinks;
  {
    TcpCluster cluster({.election_timeout = Millis(200),
                        .obs = {&sinks[0], &sinks[1], &sinks[2]}});
    std::vector<std::unique_ptr<OmniClient>> probes;
    for (const auto& [id, endpoint] : cluster.endpoints()) {
      probes.push_back(std::make_unique<OmniClient>(std::map<NodeId, Endpoint>{{id, endpoint}}));
    }
    bool agreed = false;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!agreed && std::chrono::steady_clock::now() < deadline) {
      std::set<NodeId> leaders;
      for (auto& probe : probes) {
        OmniClient::Status status;
        leaders.insert(probe->GetStatus(&status, Seconds(5)) ? status.leader : kNoNode);
      }
      agreed = leaders.size() == 1 && *leaders.begin() != kNoNode;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(agreed) << "the servers never named one leader";
  }  // the servers' threads are joined: their sinks may be read
  NodeId first_leader = kNoNode;
  for (NodeId id = 1; id <= 3; ++id) {
    const std::vector<obs::TraceEvent> events = sinks[static_cast<size_t>(id - 1)].Events();
    const auto first = std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
      return e.kind == obs::EventKind::kBleLeader;
    });
    ASSERT_NE(first, events.end()) << "server " << id << " elected nobody";
    EXPECT_EQ(first->config, 1u) << "server " << id << " elected its first leader in round "
                                 << first->config;
    if (first_leader == kNoNode) {
      first_leader = first->peer;
    }
    EXPECT_EQ(first->peer, first_leader) << "server " << id;
  }
#endif
}

// An early round 1 lasts a full election timeout: starting it restarts the
// election timer. Servers 1 and 2 start, and server 3 starts 150 ms later,
// 50 ms before their first 200 ms tick. No link to server 3 is up before it
// starts, so no round 1 can start early before then, and none may end, nor
// any server know a leader, until one election timeout after it. Had the
// timer kept its phase, servers 1 and 2 would end a 50 ms round 1 at that
// tick and elect there. The test thread drives all three servers, so it sees
// the moment each first knows a leader.
TEST(TcpRuntime, EarlyRoundOneLastsAFullElectionTimeout) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kTimeout = std::chrono::milliseconds(200);
  for (int attempt = 0; attempt < 20; ++attempt) {
    const std::vector<uint16_t> ports = net::FreePorts(3);
    ASSERT_EQ(ports.size(), 3u);
    std::map<NodeId, Endpoint> endpoints;
    for (NodeId id = 1; id <= 3; ++id) {
      endpoints[id] = Endpoint{"127.0.0.1", ports[static_cast<size_t>(id - 1)]};
    }
    std::vector<std::unique_ptr<net::OmniTcpServer>> servers;
    for (NodeId id = 1; id <= 3; ++id) {
      net::ServerOptions options;
      options.id = id;
      options.listen_port = endpoints[id].port;
      options.peers = endpoints;
      options.peers.erase(id);
      options.election_timeout = Millis(kTimeout.count());
      servers.push_back(std::make_unique<net::OmniTcpServer>(options));
    }
    std::vector<Clock::time_point> knew(3);  // when each first knew a leader
    // Steps the first `started` servers until `until` or until all know one.
    const auto drive = [&](size_t started, Clock::time_point until) {
      while (Clock::now() < until &&
             std::count(knew.begin(), knew.begin() + started, Clock::time_point{}) > 0) {
        for (size_t i = 0; i < started; ++i) {
          servers[i]->StepOnce(1);
          if (knew[i] == Clock::time_point{} && servers[i]->leader_hint() != kNoNode) {
            knew[i] = Clock::now();
          }
        }
      }
    };
    const Clock::time_point start = Clock::now();  // before any timer exists
    if (!servers[0]->Start() || !servers[1]->Start()) {
      continue;  // a port was taken
    }
    drive(2, start + std::chrono::milliseconds(150));
    const Clock::time_point third = Clock::now();
    if (third - start > std::chrono::milliseconds(180)) {
      continue;  // descheduled: server 3 would start too close to the first tick
    }
    if (!servers[2]->Start()) {
      continue;
    }
    drive(3, third + std::chrono::seconds(5));
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_NE(knew[i], Clock::time_point{}) << "server " << i + 1 << " never knew a leader";
      EXPECT_GE(knew[i] - third, kTimeout)
          << "server " << i + 1 << " knew a leader "
          << std::chrono::duration_cast<std::chrono::milliseconds>(knew[i] - third).count()
          << " ms after server 3 started";
    }
    return;
  }
  FAIL() << "could not start three servers on free ports in time";
}

// A WAL-backed server stops, restarts from its journal and catches up with
// what was decided while it was down. Every fd the servers opened, the
// journal files of the stopped and the recovered server included, is closed
// once the cluster is gone.
TEST(TcpRuntime, SurvivesServerCrashAndWalRecovery) {
  const int fds_before = testing::OpenFds();
  {
    TcpCluster cluster({.wal = true});
    OmniClient client(cluster.endpoints());
    ASSERT_TRUE(client.Connect(Seconds(10)));
    for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
      ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10)));
    }
    // Crash server 3 (thread stopped, state dropped; WAL remains).
    cluster.StopServer(3);
    for (uint64_t cmd = 11; cmd <= 20; ++cmd) {
      ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
    }
    // Restart from the WAL; it must catch up with entries decided while down.
    ASSERT_TRUE(cluster.StartServer(3));
    OmniClient direct(std::map<NodeId, Endpoint>{{3, cluster.endpoints().at(3)}});
    ASSERT_TRUE(direct.Connect(Seconds(10)));
    OmniClient::Status status;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < deadline) {
      if (direct.GetStatus(&status, Seconds(5)) && status.decided >= 20u) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    EXPECT_GE(status.decided, 20u) << "recovered server did not catch up";
  }
  EXPECT_EQ(testing::OpenFds(), fds_before) << "fds leaked across cluster start and teardown";
}

// Leader-lease reads through OmniClient: a read with the decided index of
// the last acknowledged write as its watermark sees that write, and a
// watermark no server has reached is bounced until the deadline.
TEST(TcpRuntime, LeaseReadSeesEveryAcknowledgedWrite) {
  // Four-round leases on a 100 ms tick: a loaded `ctest -j` host must not
  // starve the heartbeats long enough for the lease to lapse mid-test.
  TcpCluster cluster({.election_timeout = Millis(100), .lease_rounds = 4});
  OmniClient client(cluster.endpoints());
  ASSERT_TRUE(client.Connect(Seconds(10)));
  for (uint64_t cmd = 1; cmd <= 5; ++cmd) {
    ASSERT_TRUE(client.AppendAndWait(cmd, 8, Seconds(10))) << "cmd " << cmd;
  }
  OmniClient::Status status;
  ASSERT_TRUE(client.GetStatus(&status, Seconds(5)));
  ASSERT_GE(status.decided, 5u);
  uint64_t read_at = 0;
  ASSERT_TRUE(client.LeaseRead(status.decided, &read_at, Seconds(10)));
  EXPECT_GE(read_at, status.decided);
  EXPECT_FALSE(client.LeaseRead(status.decided + 1000, nullptr, Millis(300)));
}

// The small-reply path under pipelining: every lease-read reply the leader
// packs into a shared send-queue entry reaches the client as its own frame,
// exactly once and in request order, with the decided pushes for the
// interleaved appends parsed from the same stream. The servers compact their
// logs as they go (watermark 16), and the leader's log must have compacted
// by the end.
TEST(TcpRuntime, PipelinedLeaseReadsGetOneReplyEachInOrder) {
  TcpCluster cluster({.election_timeout = Millis(100), .lease_rounds = 4, .trim_watermark = 16});
  OmniClient client(cluster.endpoints());
  ASSERT_TRUE(client.Connect(Seconds(10)));
  ASSERT_TRUE(client.AppendAndWait(1, 8, Seconds(10)));
  uint64_t watermark = 0;
  ASSERT_TRUE(client.LeaseRead(1, &watermark, Seconds(10)));
  const NodeId leader = client.connected_to();  // it just served a lease read

  constexpr uint64_t kReads = 1200;
  constexpr uint64_t kAppendEvery = 10;
  constexpr uint64_t kFirstAppendId = 1000;
  RawClient raw(cluster.endpoints().at(leader));
  std::set<uint64_t> pending_appends;
  for (uint64_t i = 0; i < kReads; ++i) {
    const auto read = net::EncodeReadRequest({i + 1, watermark});
    raw.Queue(read.data(), read.size());
    if (i % kAppendEvery == 0) {
      const auto append = net::EncodeAppendRequest({kFirstAppendId + i, 8});
      raw.Queue(append.data(), append.size());
      pending_appends.insert(kFirstAppendId + i);
    }
  }
  ASSERT_TRUE(raw.SendQueued());

  uint64_t next_read = 1;
  uint64_t last_decided = watermark;
  auto on_frame = [&](const uint8_t* d, size_t len) {
    if (len > 0 && d[0] == net::kReadReplyTag) {
      net::ReadReply reply;
      EXPECT_TRUE(net::DecodeReadReply(d, len, &reply));
      EXPECT_EQ(reply.read_id, next_read);
      EXPECT_TRUE(reply.served) << "read " << reply.read_id;
      EXPECT_GE(reply.decided, last_decided) << "read " << reply.read_id;
      last_decided = reply.decided;
      ++next_read;
    } else if (len > 0 && d[0] == net::kDecidedBatchTag) {
      std::vector<uint64_t> ids;
      EXPECT_TRUE(net::DecodeDecidedBatch(d, len, &ids));
      for (uint64_t id : ids) {
        pending_appends.erase(id);
      }
    } else {
      ADD_FAILURE() << "unexpected frame of " << len << " bytes";
    }
    return next_read <= kReads || !pending_appends.empty();
  };
  EXPECT_TRUE(raw.ReadFrames(20'000, on_frame))
      << "stream ended after " << next_read - 1 << " replies";
  EXPECT_EQ(next_read, kReads + 1);
  EXPECT_TRUE(pending_appends.empty()) << pending_appends.size() << " appends undecided";
  // No reply arrives twice: a duplicate of any read id fails the in-order
  // check above, including one that would trail the last reply.
  raw.ReadFrames(200, on_frame);
  EXPECT_EQ(next_read, kReads + 1);

  // Auto-trim runs on the election tick; give it a few.
  OmniClient::Status status;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (client.GetStatus(&status, Seconds(5)) && status.compacted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(status.compacted, 0u) << "the leader's log never compacted";
}

// The leader ships each batch before its own fdatasync, and the leader
// counts itself only once durable, so every append a client saw decided is
// in the journal of a majority. A raw client pipelines appends to the leader
// of a WAL-backed cluster (compaction off) and keeps every id it sees in a
// decided push; once the servers stop, each one's WAL is recovered from disk.
TEST(TcpRuntime, EveryAcknowledgedAppendIsInTheJournalOfAMajority) {
  TcpCluster cluster({.wal = true, .election_timeout = Millis(100)});
  OmniClient client(cluster.endpoints());
  ASSERT_TRUE(client.Connect(Seconds(10)));
  ASSERT_TRUE(client.AppendAndWait(1, 8, Seconds(10)));
  OmniClient::Status status;
  ASSERT_TRUE(client.GetStatus(&status, Seconds(5)));
  ASSERT_NE(status.leader, kNoNode);

  constexpr uint64_t kAppends = 1200;
  constexpr uint64_t kFirstId = 1000;
  RawClient raw(cluster.endpoints().at(status.leader));
  for (uint64_t id = kFirstId; id < kFirstId + kAppends; ++id) {
    const auto append = net::EncodeAppendRequest({id, 8});
    raw.Queue(append.data(), append.size());
  }
  ASSERT_TRUE(raw.SendQueued());
  std::set<uint64_t> acked;
  raw.ReadFrames(20'000, [&](const uint8_t* d, size_t len) {
    std::vector<uint64_t> ids;
    if (len > 0 && d[0] == net::kDecidedBatchTag && net::DecodeDecidedBatch(d, len, &ids)) {
      acked.insert(ids.begin(), ids.end());
    }
    return acked.size() < kAppends;
  });
  EXPECT_EQ(acked.size(), kAppends);

  std::map<uint64_t, int> copies;  // command id -> recovered logs holding it
  for (NodeId id = 1; id <= 3; ++id) {
    cluster.StopServer(id);
    std::string error;
    auto recovered = omni::DurableStorage::Recover(wal::PosixEnv(), cluster.wal_dir(id),
                                                   wal::WalOptions(), &error);
    ASSERT_NE(recovered, nullptr) << "server " << id << ": " << error;
    ASSERT_EQ(recovered->compacted_idx(), 0u);
    for (const omni::Entry& e : recovered->log()) {
      ++copies[e.cmd_id];
    }
  }
  for (uint64_t id : acked) {
    EXPECT_GE(copies[id], 2) << "acknowledged append " << id << " is not on a majority";
  }
}

}  // namespace
}  // namespace opx
