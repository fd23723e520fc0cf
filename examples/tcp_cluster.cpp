// tcp_cluster — a real Omni-Paxos cluster over actual TCP sockets, in one
// process: three OmniTcpServer instances (each with its own event-loop
// thread and WAL), driven by the blocking OmniClient. The same servers run
// as separate processes via tools/omni_node.
//
// Ports come from the kernel and the WALs live in a fresh temporary
// directory, removed at exit, so parallel runs never collide. Exits 1 when a
// command is not decided or the restarted follower does not catch up.
//
//   $ ./tcp_cluster
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "src/net/omni_client.h"
#include "src/net/omni_tcp_server.h"

namespace {

using namespace opx;

constexpr uint64_t kCommands = 600;  // 500 with all servers up, 100 with one down

// One server and the thread running its event loop.
struct ServerSlot {
  std::unique_ptr<net::OmniTcpServer> server;
  std::thread thread;
  std::atomic<bool> stop{false};

  void Stop() {
    stop.store(true);
    if (thread.joinable()) {
      thread.join();
    }
    server = nullptr;
  }
  ~ServerSlot() { Stop(); }
};

int RunCluster(const std::string& wal_root) {
  const std::vector<uint16_t> ports = net::FreePorts(3);
  if (ports.size() != 3) {
    std::fprintf(stderr, "cannot reserve 3 ports\n");
    return 1;
  }
  std::map<NodeId, net::Endpoint> endpoints;
  for (NodeId id = 1; id <= 3; ++id) {
    endpoints[id] = net::Endpoint{"127.0.0.1", ports[static_cast<size_t>(id - 1)]};
  }
  ServerSlot slots[4];

  // Starts (or restarts, recovering its WAL) server `id` on its port. A port
  // freed by a stopped server can be taken by another process before the
  // rebind, so the bind is retried for a while before giving up.
  auto start = [&](NodeId id) {
    net::ServerOptions options;
    options.id = id;
    options.listen_port = endpoints[id].port;
    options.election_timeout = Millis(50);
    options.ble_priority = id == 1 ? 1 : 0;
    options.wal_dir = wal_root + "/node" + std::to_string(id) + ".wal";
    options.peers = endpoints;
    options.peers.erase(id);
    ServerSlot& slot = slots[id];
    for (int attempt = 0; attempt < 40; ++attempt) {
      slot.server = std::make_unique<net::OmniTcpServer>(options);
      if (slot.server->Start()) {
        slot.stop.store(false);
        slot.thread = std::thread([&slot]() { slot.server->Run(slot.stop); });
        std::printf("server %d listening on 127.0.0.1:%u (wal: %s)\n", id,
                    options.listen_port, options.wal_dir.c_str());
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "cannot bind port %u\n", options.listen_port);
    return false;
  };
  for (NodeId id = 1; id <= 3; ++id) {
    if (!start(id)) {
      return 1;
    }
  }

  net::OmniClient client(endpoints);
  if (!client.Connect(Seconds(10))) {
    std::fprintf(stderr, "no server reachable\n");
    return 1;
  }
  std::printf("\nclient connected to server %d; replicating 500 commands...\n",
              client.connected_to());
  for (uint64_t cmd = 1; cmd <= 500; ++cmd) {
    if (!client.AppendAndWait(cmd, 8, Seconds(10))) {
      std::fprintf(stderr, "command %lu not decided\n", cmd);
      return 1;
    }
  }
  net::OmniClient::Status status;
  if (!client.GetStatus(&status) || status.leader == kNoNode) {
    std::fprintf(stderr, "no leader after 500 commands\n");
    return 1;
  }
  std::printf("done: leader=s%d decided=%lu\n", status.leader, status.decided);

  // Stop a follower, keep replicating, bring it back — it recovers from its
  // WAL over the real sockets.
  const NodeId victim = status.leader % 3 + 1;
  std::printf("\nstopping follower s%d...\n", victim);
  slots[victim].Stop();
  for (uint64_t cmd = 501; cmd <= kCommands; ++cmd) {
    if (!client.AppendAndWait(cmd, 8, Seconds(10))) {
      std::fprintf(stderr, "command %lu not decided with s%d down\n", cmd, victim);
      return 1;
    }
  }
  std::printf("replicated 100 more without it; restarting s%d from WAL...\n", victim);
  if (!start(victim)) {
    return 1;
  }

  net::OmniClient direct(std::map<NodeId, net::Endpoint>{{victim, endpoints[victim]}});
  net::OmniClient::Status recovered;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (direct.Connect(Seconds(2)) && direct.GetStatus(&recovered) &&
        recovered.decided >= kCommands) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (recovered.decided < kCommands) {
    std::fprintf(stderr, "s%d did not catch up: decided=%lu, want >= %lu\n", victim,
                 recovered.decided, kCommands);
    return 1;
  }
  std::printf("s%d caught up: decided=%lu\n\n", victim, recovered.decided);
  return 0;
}

}  // namespace

int main() {
  std::printf("== Omni-Paxos over real TCP ==\n\n");
  std::string wal_root = (std::filesystem::temp_directory_path() / "tcp_cluster_XXXXXX").string();
  if (mkdtemp(wal_root.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a directory for the WALs\n");
    return 1;
  }
  const int rc = RunCluster(wal_root);  // every server is stopped on return
  std::error_code ec;
  std::filesystem::remove_all(wal_root, ec);
  if (rc == 0) {
    std::printf("all servers stopped. To run as separate processes, see tools/omni_node.\n");
  }
  return rc;
}
