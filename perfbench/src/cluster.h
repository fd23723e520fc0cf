// A 3-node loopback cluster in this process, one thread per node: either
// the real OmniTcpServer (untraced runs) or the span-recording TracedNode.
#ifndef PERFBENCH_SRC_CLUSTER_H_
#define PERFBENCH_SRC_CLUSTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/traced_node.h"
#include "src/net/omni_tcp_server.h"
#include "src/net/tcp_transport.h"

namespace perfbench {

// Every node compacts its log at this many entries, as a deployed server
// would: it bounds memory and WAL size.
constexpr uint64_t kTrimWatermark = 4096;
constexpr opx::Time kElectionTimeout = opx::Millis(100);

struct ClusterConfig {
  bool traced = false;
  std::string wal_root;  // empty = in-memory storage; else <wal_root>/node<id>
};

// Pins the calling thread to one CPU (modulo the CPU count); a no-op on
// hosts with fewer than four CPUs.
void PinToCpu(int cpu);

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg) : cfg_(std::move(cfg)) {}
  ~Cluster() { Stop(); }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Binds three nodes on free loopback ports and starts their threads.
  bool Start();

  // Settled-leader gate: every node's status frame (0x03) names the same
  // leader, continuously, for `settle` (several election timeouts); then
  // one append through that leader must be decided. Returns the leader or
  // kNoNode when the deadline passes first.
  opx::NodeId AwaitSettledLeader(opx::Time settle, opx::Time deadline);

  // Stops and joins every node thread, then destroys the nodes (closing
  // their WALs).
  void Stop();

  const std::map<opx::NodeId, opx::net::Endpoint>& endpoints() const { return endpoints_; }
  std::string WalDir(opx::NodeId id) const;
  // Traced clusters only; nullptr otherwise.
  TracedNode* traced(opx::NodeId id) const;

 private:
  bool TryStart(const std::vector<uint16_t>& ports);

  ClusterConfig cfg_;
  std::map<opx::NodeId, opx::net::Endpoint> endpoints_;
  std::vector<std::unique_ptr<opx::net::OmniTcpServer>> servers_;
  std::vector<std::unique_ptr<TracedNode>> nodes_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CLUSTER_H_
