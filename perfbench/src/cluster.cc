#include "perfbench/src/cluster.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <pthread.h>
#include <sched.h>

#include <filesystem>

#include "src/net/omni_client.h"

namespace perfbench {
namespace {

// Asks the kernel for `n` distinct free ports by binding port 0; the servers
// bind them right after (with SO_REUSEADDR), and a lost race is retried.
std::vector<uint16_t> FreePorts(int n) {
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
    addr.sin_port = 0;
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

}  // namespace

void PinToCpu(int cpu) {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n < 4) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % static_cast<int>(n), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::string Cluster::WalDir(opx::NodeId id) const {
  return cfg_.wal_root + "/node" + std::to_string(id);
}

TracedNode* Cluster::traced(opx::NodeId id) const {
  const size_t i = static_cast<size_t>(id - 1);
  return i < nodes_.size() ? nodes_[i].get() : nullptr;
}

bool Cluster::Start() {
  for (int attempt = 0; attempt < 20; ++attempt) {
    const std::vector<uint16_t> ports = FreePorts(3);
    if (ports.size() == 3 && TryStart(ports)) {
      return true;
    }
    servers_.clear();
    nodes_.clear();
  }
  return false;
}

bool Cluster::TryStart(const std::vector<uint16_t>& ports) {
  endpoints_.clear();
  for (opx::NodeId id = 1; id <= 3; ++id) {
    endpoints_[id] = {"127.0.0.1", ports[static_cast<size_t>(id - 1)]};
  }
  for (opx::NodeId id = 1; id <= 3; ++id) {
    opx::net::ServerOptions opt;
    opt.id = id;
    opt.listen_port = endpoints_[id].port;
    opt.peers = endpoints_;
    opt.peers.erase(id);
    opt.trim_watermark = kTrimWatermark;
    opt.election_timeout = kElectionTimeout;
    if (!cfg_.wal_root.empty()) {
      opt.wal_dir = WalDir(id);
      std::error_code ec;
      std::filesystem::remove_all(opt.wal_dir, ec);
      std::filesystem::create_directories(opt.wal_dir, ec);
    }
    if (cfg_.traced) {
      nodes_.push_back(std::make_unique<TracedNode>(opt));
      if (!nodes_.back()->Start()) {
        return false;
      }
    } else {
      servers_.push_back(std::make_unique<opx::net::OmniTcpServer>(opt));
      if (!servers_.back()->Start()) {
        return false;
      }
    }
  }
  stop_.store(false);
  int cpu = 1;
  for (auto& s : servers_) {
    opx::net::OmniTcpServer* srv = s.get();
    threads_.emplace_back([this, srv, cpu] {
      PinToCpu(cpu);
      srv->Run(stop_);
    });
    ++cpu;
  }
  for (auto& n : nodes_) {
    TracedNode* node = n.get();
    threads_.emplace_back([this, node, cpu] {
      PinToCpu(cpu);
      node->Run(stop_);
    });
    ++cpu;
  }
  return true;
}

void Cluster::Stop() {
  stop_.store(true);
  for (std::thread& t : threads_) {
    t.join();
  }
  threads_.clear();
  servers_.clear();
  nodes_.clear();
}

opx::NodeId Cluster::AwaitSettledLeader(opx::Time settle, opx::Time deadline) {
  std::vector<std::unique_ptr<opx::net::OmniClient>> probes;
  for (const auto& [id, ep] : endpoints_) {
    probes.push_back(std::make_unique<opx::net::OmniClient>(
        std::map<opx::NodeId, opx::net::Endpoint>{{id, ep}}));
  }
  const int64_t until = NowNs() + deadline;
  opx::NodeId agreed = opx::kNoNode;
  int64_t agreed_since = 0;
  while (NowNs() < until) {
    opx::NodeId common = opx::kNoNode;
    bool all_agree = true;
    for (auto& probe : probes) {
      opx::net::OmniClient::Status st;
      if (!probe->GetStatus(&st, opx::Millis(500)) || st.leader == opx::kNoNode ||
          (common != opx::kNoNode && st.leader != common)) {
        all_agree = false;
        break;
      }
      common = st.leader;
    }
    const int64_t now = NowNs();
    if (!all_agree) {
      agreed = opx::kNoNode;
    } else if (common != agreed) {
      agreed = common;
      agreed_since = now;
    } else if (now - agreed_since >= settle) {
      opx::net::OmniClient writer(
          std::map<opx::NodeId, opx::net::Endpoint>{{agreed, endpoints_.at(agreed)}});
      // Priming append: ids with the top bit set never collide with the
      // generator's (connection << 32 | seq) ids.
      if (writer.Connect(opx::Seconds(2)) &&
          writer.AppendAndWait((1ULL << 63) | static_cast<uint64_t>(now), 8,
                               opx::Seconds(2))) {
        return agreed;
      }
      agreed = opx::kNoNode;
    }
    usleep(10'000);
  }
  return opx::kNoNode;
}

}  // namespace perfbench
