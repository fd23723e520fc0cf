// The baseline protocols' rsm::LockstepCluster instances for unit tests.
// Raft has no session-reconnect hook, so link heals do not notify its nodes —
// exactly like the real protocol over its own retries.
#ifndef TESTS_LOCKSTEP_HARNESS_H_
#define TESTS_LOCKSTEP_HARNESS_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/multipaxos/multipaxos.h"
#include "src/obs/trace.h"
#include "src/raft/raft.h"
#include "src/rsm/lockstep_cluster.h"
#include "src/vr/vr_replica.h"

namespace opx::testing {

class RaftCluster : public rsm::LockstepCluster<raft::Raft> {
 public:
  explicit RaftCluster(int n, raft::RaftConfig base = {})
      : LockstepCluster(n, [base](NodeId id, std::vector<NodeId> peers, omni::Storage*, bool) {
          peers.insert(std::upper_bound(peers.begin(), peers.end(), id), id);
          return std::make_unique<raft::Raft>(ConfigFor(base, id, std::move(peers)));
        }),
        base_(std::move(base)) {
    AttachObs(base_.obs);
  }

  // Adds a fresh (empty-log) server, e.g. the target of a membership change.
  // Its voter list is a placeholder (it never self-elects as a learner once
  // contacted, and tests drive membership via the leader), and a huge
  // election timeout keeps it from starting elections before joining.
  NodeId AddFreshServer() {
    const NodeId id = size() + 1;
    raft::RaftConfig cfg = ConfigFor(base_, id, {id});
    cfg.election_ticks = 1 << 20;
    return AddServer(std::make_unique<raft::Raft>(cfg));
  }

 private:
  static raft::RaftConfig ConfigFor(raft::RaftConfig cfg, NodeId id, std::vector<NodeId> voters) {
    cfg.pid = id;
    cfg.voters = std::move(voters);
    cfg.seed += static_cast<uint64_t>(id) * 7919;
    return cfg;
  }

  raft::RaftConfig base_;
};

// Multi-Paxos servers 1..n with default timeouts; server id's seed is
// seed_base + id.
class MpxCluster : public rsm::LockstepCluster<mpx::MultiPaxos> {
 public:
  explicit MpxCluster(int n, uint64_t seed_base = 100, obs::ObsSink* obs = nullptr)
      : LockstepCluster(n, [=](NodeId id, std::vector<NodeId> peers, omni::Storage*, bool) {
          mpx::MpxConfig cfg;
          cfg.pid = id;
          cfg.peers = std::move(peers);
          cfg.seed = seed_base + static_cast<uint64_t>(id);
          cfg.obs = obs;
          return std::make_unique<mpx::MultiPaxos>(cfg);
        }) {
    AttachObs(obs);
  }
};

// VR replicas 1..n with default timeouts, each on its cluster storage;
// server id's seed is seed_base + id.
class VrCluster : public rsm::LockstepCluster<vr::VrReplica> {
 public:
  explicit VrCluster(int n, uint64_t seed_base = 300, obs::ObsSink* obs = nullptr)
      : LockstepCluster(
            n, [=](NodeId id, std::vector<NodeId> peers, omni::Storage* storage, bool) {
              vr::VrReplicaConfig cfg;
              cfg.pid = id;
              cfg.peers = std::move(peers);
              cfg.seed = seed_base + static_cast<uint64_t>(id);
              cfg.obs = obs;
              return std::make_unique<vr::VrReplica>(cfg, storage);
            }) {
    AttachObs(obs);
  }
};

}  // namespace opx::testing

#endif  // TESTS_LOCKSTEP_HARNESS_H_
