// Quickstart — a three-server Omni-Paxos replicated log in one process.
//
//   $ ./quickstart
//
// Walks through the core API: build a LocalCluster, elect a leader through
// Ballot Leader Election, replicate commands with Sequence Paxos, survive a
// leader crash, and show that every server decided the same log.
#include <algorithm>
#include <cstdio>

#include "src/rsm/local_cluster.h"

int main() {
  using namespace opx;

  std::printf("== Omni-Paxos quickstart ==\n\n");

  // 1. Three servers, fully connected, in-process.
  rsm::LocalCluster cluster(3);

  // 2. BLE exchanges heartbeat rounds until a quorum-connected server is
  //    elected (§5.2). Each Tick() is one election-timeout period.
  const NodeId leader = cluster.ElectLeader();
  std::printf("elected leader: server %d (ballot %lu)\n", leader,
              cluster.node(leader).ble().leader().n);

  // 3. Replicate commands. Append at the leader (followers would forward).
  for (uint64_t cmd = 1; cmd <= 5; ++cmd) {
    cluster.Append(leader, /*cmd_id=*/cmd);
  }
  std::printf("appended 5 commands; decided index at every server:");
  for (NodeId id = 1; id <= 3; ++id) {
    std::printf(" s%d=%lu", id, cluster.node(id).decided_idx());
  }
  std::printf("\n");

  // 4. Crash the leader. The survivors detect the failure through missing
  //    heartbeats and elect a new quorum-connected leader.
  std::printf("\ncrashing leader s%d...\n", leader);
  cluster.Crash(leader);
  const NodeId new_leader = cluster.ElectLeader();
  std::printf("new leader: server %d\n", new_leader);

  // 5. The new leader first synchronizes the log (Prepare phase, §4.1.1),
  //    then accepts new commands.
  for (uint64_t cmd = 6; cmd <= 8; ++cmd) {
    cluster.Append(new_leader, cmd);
  }

  // 6. Restart the crashed server from its persistent storage; it re-enters
  //    via <PrepareReq> and catches up (§4.1.3).
  std::printf("restarting s%d from persistent storage...\n", leader);
  cluster.Restart(leader);
  cluster.Tick();

  std::printf("\nfinal decided logs (SC2: prefixes of one another):\n");
  for (NodeId id = 1; id <= 3; ++id) {
    std::printf("  s%d:", id);
    const auto& storage = cluster.storage(id);
    for (LogIndex i = 0; i < cluster.node(id).decided_idx(); ++i) {
      std::printf(" %lu", storage.At(i).cmd_id);
    }
    std::printf("\n");
  }
  // SC2: any two decided logs agree on their common prefix.
  for (NodeId a = 1; a <= 3; ++a) {
    for (NodeId b = a + 1; b <= 3; ++b) {
      const LogIndex common =
          std::min(cluster.node(a).decided_idx(), cluster.node(b).decided_idx());
      for (LogIndex i = 0; i < common; ++i) {
        if (cluster.storage(a).At(i) != cluster.storage(b).At(i)) {
          std::printf("\nSequence Consensus VIOLATED: s%d and s%d differ at index %lu\n",
                      a, b, i);
          return 1;
        }
      }
    }
  }
  std::printf("\nall servers decided identical logs — Sequence Consensus holds.\n");
  return 0;
}
