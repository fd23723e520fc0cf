// A three-server OmniTcpServer cluster on localhost for the TCP tests, each
// server running on its own thread.
//
// Ports come from the kernel: FreePorts binds port 0 and reads the port
// back, so tests running in parallel under `ctest -j` never pick the same
// ones. Another process can still take a port between that probe and the
// server's own bind; the server's Start() then fails and the whole cluster
// start is retried on fresh ports.
#ifndef TESTS_TCP_CLUSTER_H_
#define TESTS_TCP_CLUSTER_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/omni_tcp_server.h"

namespace opx::testing {

// Asks the kernel for `n` distinct free ports. All probe sockets stay bound
// until every port is known, so the n ports differ from each other.
inline std::vector<uint16_t> FreePorts(int n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (int i = 0; i < n; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      break;
    }
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      break;
    }
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) {
    close(fd);
  }
  return ports;
}

struct TcpClusterOptions {
  bool wal = false;  // WAL-backed servers, in a fresh temporary directory
  Time election_timeout = Millis(30);
  uint64_t lease_rounds = 1;
};

class TcpCluster {
 public:
  explicit TcpCluster(TcpClusterOptions opts = {}) : opts_(opts) {
    if (opts_.wal) {
      std::string dir = ::testing::TempDir() + "/tcp_cluster_XXXXXX";
      if (mkdtemp(dir.data()) == nullptr) {
        ADD_FAILURE() << "mkdtemp failed for " << dir;
        return;
      }
      wal_root_ = dir;
    }
    for (int attempt = 0; attempt < 20; ++attempt) {
      const std::vector<uint16_t> ports = FreePorts(3);
      if (ports.size() == 3 && TryStart(ports)) {
        return;
      }
      for (NodeId id = 1; id <= 3; ++id) {
        StopServer(id);
      }
      RemoveWals();
    }
    ADD_FAILURE() << "could not start a 3-server cluster on free ports";
  }

  ~TcpCluster() {
    for (NodeId id = 1; id <= 3; ++id) {
      StopServer(id);
    }
    if (!wal_root_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(wal_root_, ec);
    }
  }

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  // Starts (or restarts, recovering its WAL) server `id` on its port. A port
  // freed by StopServer can be taken by another process before the rebind,
  // so the bind is retried for a while before giving up.
  bool StartServer(NodeId id) {
    for (int attempt = 0; attempt < 40; ++attempt) {
      if (Launch(id)) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  }

  void StopServer(NodeId id) {
    Slot& slot = slots_[static_cast<size_t>(id)];
    slot.stop.store(true);
    if (slot.thread.joinable()) {
      slot.thread.join();
    }
    slot.server = nullptr;
  }

  const std::map<NodeId, net::Endpoint>& endpoints() const { return endpoints_; }
  // Server `id`'s WAL directory (empty without `wal`).
  const std::string& wal_dir(NodeId id) const {
    return options_[static_cast<size_t>(id)].wal_dir;
  }

 private:
  struct Slot {
    std::unique_ptr<net::OmniTcpServer> server;
    std::thread thread;
    std::atomic<bool> stop{false};
  };

  bool TryStart(const std::vector<uint16_t>& ports) {
    for (NodeId id = 1; id <= 3; ++id) {
      endpoints_[id] = net::Endpoint{"127.0.0.1", ports[static_cast<size_t>(id - 1)]};
    }
    for (NodeId id = 1; id <= 3; ++id) {
      net::ServerOptions& options = options_[static_cast<size_t>(id)];
      options.id = id;
      options.listen_port = endpoints_[id].port;
      options.peers = endpoints_;
      options.peers.erase(id);
      options.election_timeout = opts_.election_timeout;
      options.lease_rounds = opts_.lease_rounds;
      options.ble_priority = id == 1 ? 1 : 0;
      if (!wal_root_.empty()) {
        options.wal_dir = wal_root_ + "/node" + std::to_string(id) + ".wal";
      }
    }
    for (NodeId id = 1; id <= 3; ++id) {
      if (!Launch(id)) {
        return false;
      }
    }
    return true;
  }

  bool Launch(NodeId id) {
    auto server = std::make_unique<net::OmniTcpServer>(options_[static_cast<size_t>(id)]);
    if (!server->Start()) {
      return false;
    }
    Slot& slot = slots_[static_cast<size_t>(id)];
    slot.stop.store(false);
    slot.server = std::move(server);
    slot.thread = std::thread([&slot] { slot.server->Run(slot.stop); });
    return true;
  }

  void RemoveWals() {
    for (NodeId id = 1; id <= 3; ++id) {
      const std::string& dir = options_[static_cast<size_t>(id)].wal_dir;
      if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
      }
    }
  }

  TcpClusterOptions opts_;
  std::string wal_root_;
  net::ServerOptions options_[4];
  std::map<NodeId, net::Endpoint> endpoints_;
  Slot slots_[4];  // after everything the server threads read
};

}  // namespace opx::testing

#endif  // TESTS_TCP_CLUSTER_H_
