// LocalCluster — an in-process Omni-Paxos cluster with immediate message
// delivery. This is the batteries-included entry point for library users and
// the examples: no simulator, no networking — call Step() to exchange
// messages, Tick() to advance election heartbeats, and Append() to replicate.
//
// A facade over OmniCluster (lockstep_cluster.h) that settles after every
// call and feeds newly decided entries to an apply callback. For
// latency/bandwidth-faithful experiments use rsm::ClusterSim instead.
#ifndef SRC_RSM_LOCAL_CLUSTER_H_
#define SRC_RSM_LOCAL_CLUSTER_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/omnipaxos/omni_paxos.h"
#include "src/rsm/lockstep_cluster.h"
#include "src/util/unique_function.h"

namespace opx::rsm {

class LocalCluster {
 public:
  // Called for every newly decided entry, on every live server, in log order.
  using ApplyFn =
      util::UniqueFunction<void(NodeId server, LogIndex idx, const omni::Entry& entry)>;

  // `preferred_leader` wins the first election (kNoNode for none).
  explicit LocalCluster(int num_servers, NodeId preferred_leader = 1)
      : cluster_(num_servers, preferred_leader),
        applied_(static_cast<size_t>(num_servers) + 1, 0) {}

  void set_apply(ApplyFn fn) { apply_ = std::move(fn); }

  int size() const { return cluster_.size(); }
  omni::OmniPaxos& node(NodeId id) { return cluster_.node(id); }
  const omni::Storage& storage(NodeId id) const { return cluster_.storage(id); }
  bool LinkUp(NodeId a, NodeId b) const { return cluster_.LinkUp(a, b); }
  bool IsCrashed(NodeId id) const { return cluster_.IsCrashed(id); }
  // Leader claimant with the highest ballot.
  NodeId CurrentLeader() { return cluster_.CurrentLeader(); }

  // One election heartbeat period on every live server, then settle.
  void Tick() {
    cluster_.Tick();
    Apply();
  }

  void TickRounds(int rounds) {
    for (int i = 0; i < rounds; ++i) {
      Tick();
    }
  }

  // Runs enough heartbeat rounds for a stable leader; returns its id.
  NodeId ElectLeader(int max_rounds = 10) {
    for (int round = 0; round < max_rounds; ++round) {
      Tick();
      if (NodeId leader = CurrentLeader(); leader != kNoNode) {
        return leader;
      }
    }
    return kNoNode;
  }

  // Proposes a command at `server` (leaders accept directly; followers
  // forward). Returns false if the configuration is stopped.
  bool Append(NodeId server, uint64_t cmd_id, uint32_t payload_bytes = 8) {
    const bool ok = cluster_.Append(server, cmd_id, payload_bytes);
    Apply();
    return ok;
  }

  // Exchanges all outstanding messages until the cluster is quiescent,
  // applying newly decided entries through the apply callback.
  void Step() {
    cluster_.Collect();
    cluster_.DeliverAll();
    Apply();
  }

  // --- Fault injection -------------------------------------------------------

  void SetLink(NodeId a, NodeId b, bool up) {
    const bool heals = up && !LinkUp(a, b) && !IsCrashed(a) && !IsCrashed(b);
    cluster_.SetLink(a, b, up);
    if (heals) {
      Step();
    }
  }

  void Crash(NodeId id) { cluster_.Crash(id); }

  // Restarts a crashed server from its persistent storage (§4.1.3) and
  // replays its decided entries into the apply callback.
  void Restart(NodeId id) {
    cluster_.Restart(id);
    applied_[static_cast<size_t>(id)] = 0;
    Step();
  }

 private:
  void Apply() {
    if (!apply_) {
      return;
    }
    for (NodeId id = 1; id <= size(); ++id) {
      if (IsCrashed(id)) {
        continue;
      }
      LogIndex& applied = applied_[static_cast<size_t>(id)];
      applied = std::max(applied, storage(id).compacted_idx());
      for (const LogIndex decided = node(id).decided_idx(); applied < decided; ++applied) {
        apply_(id, applied, storage(id).At(applied));
      }
    }
  }

  OmniCluster cluster_;
  std::vector<LogIndex> applied_;
  ApplyFn apply_;
};

}  // namespace opx::rsm

#endif  // SRC_RSM_LOCAL_CLUSTER_H_
