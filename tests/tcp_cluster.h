// A three-server OmniTcpServer cluster on localhost for the TCP tests, each
// server running on its own thread.
//
// Ports come from the kernel (net::FreePorts), so tests running in parallel
// under `ctest -j` never pick the same ones. Another process can still take
// a port between that probe and the server's own bind; the server's Start()
// then fails and the whole cluster start is retried on fresh ports.
#ifndef TESTS_TCP_CLUSTER_H_
#define TESTS_TCP_CLUSTER_H_

#include <gtest/gtest.h>

#include <array>
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

// The number of file descriptors this process has open: the entries of
// /proc/self/fd (the directory stream's own descriptor is in every count, so
// two counts compare exactly). Tests in one process run one at a time, so
// counts taken before a test's cluster starts and after it is gone differ
// only by what that cluster and its clients leaked.
inline int OpenFds() {
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

struct TcpClusterOptions {
  bool wal = false;  // WAL-backed servers, in a fresh temporary directory
  Time election_timeout = Millis(30);
  uint64_t lease_rounds = 1;
  uint64_t trim_watermark = 0;  // ServerOptions::trim_watermark (0 = off)
  // Server id's ServerOptions::obs is obs[id - 1]. A sink must outlive the
  // cluster, and its server's thread writes it until StopServer(id).
  std::array<obs::ObsSink*, 3> obs{};
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
      const std::vector<uint16_t> ports = net::FreePorts(3);
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
      options.trim_watermark = opts_.trim_watermark;
      options.ble_priority = id == 1 ? 1 : 0;
      options.obs = opts_.obs[static_cast<size_t>(id - 1)];
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
