// Multi-Paxos baseline tests: phase 1/2, failure-detector takeover, NACK
// gossip, gap repair, and the partial-connectivity behaviours Table 1 lists.
#include <gtest/gtest.h>

#include "src/multipaxos/multipaxos.h"
#include "tests/lockstep_harness.h"

namespace opx {
namespace {

using testing::MpxCluster;

TEST(MpxElection, ThreeServersElectOneLeader) {
  MpxCluster cluster(3);
  cluster.TickRounds(30);
  EXPECT_NE(cluster.CurrentLeader(), kNoNode);
}

TEST(MpxElection, LeaderCrashTriggersTakeover) {
  MpxCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId old_leader = cluster.CurrentLeader();
  ASSERT_NE(old_leader, kNoNode);
  cluster.Crash(old_leader);
  cluster.TickRounds(40);
  const NodeId new_leader = cluster.CurrentLeader();
  EXPECT_NE(new_leader, kNoNode);
  EXPECT_NE(new_leader, old_leader);
}

TEST(MpxReplication, AppendDecidesEverywhere) {
  MpxCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    EXPECT_TRUE(cluster.Append(leader, cmd));
  }
  cluster.TickRounds(2);  // commit watermark propagates
  const uint64_t leader_decided = cluster.node(leader).decided_idx();
  EXPECT_GE(leader_decided, 10u);
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_EQ(cluster.node(id).decided_idx(), leader_decided) << "server " << id;
  }
}

TEST(MpxReplication, FollowerRejectsAppend) {
  MpxCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  const NodeId follower = leader == 1 ? 2 : 1;
  EXPECT_FALSE(cluster.node(follower).Append(mpx::Entry::Command(1, 8)));
}

TEST(MpxReplication, NewLeaderAdoptsAcceptedValues) {
  MpxCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  for (uint64_t cmd = 1; cmd <= 5; ++cmd) {
    cluster.Append(leader, cmd);
  }
  cluster.TickRounds(2);
  const uint64_t decided_before = cluster.node(leader).decided_idx();
  cluster.Crash(leader);
  cluster.TickRounds(40);
  const NodeId new_leader = cluster.CurrentLeader();
  ASSERT_NE(new_leader, kNoNode);
  EXPECT_GE(cluster.node(new_leader).decided_idx(), decided_before);
  // Decided prefixes agree (SC2-equivalent for Multi-Paxos).
  for (uint64_t i = 0; i < decided_before; ++i) {
    bool is_noop_or_equal = true;
    for (NodeId id = 1; id <= 3; ++id) {
      if (cluster.IsCrashed(id) || cluster.node(id).decided_idx() <= i) {
        continue;
      }
      is_noop_or_equal =
          is_noop_or_equal && cluster.node(id).log()[i] == cluster.node(new_leader).log()[i];
    }
    EXPECT_TRUE(is_noop_or_equal) << "slot " << i;
  }
}

TEST(MpxReplication, DisconnectedFollowerRepairsGapOnHeal) {
  MpxCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  NodeId follower = kNoNode;
  for (NodeId id = 1; id <= 3; ++id) {
    if (id != leader) {
      follower = id;
      break;
    }
  }
  cluster.SetLink(leader, follower, false);
  for (uint64_t cmd = 1; cmd <= 5; ++cmd) {
    cluster.Append(leader, cmd);
  }
  cluster.TickRounds(1);
  EXPECT_LT(cluster.node(follower).decided_idx(), cluster.node(leader).decided_idx());
  cluster.SetLink(leader, follower, true);
  cluster.TickRounds(3);
  EXPECT_EQ(cluster.node(follower).decided_idx(), cluster.node(leader).decided_idx());
}

TEST(MpxPartialConnectivity, QuorumLossDeadlocks) {
  // Fig. 1a with 5 servers: everyone is connected to A only; the leader C is
  // alive but not QC. Multi-Paxos never recovers (Fig. 8a).
  MpxCluster cluster(5);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  NodeId hub = leader == 1 ? 2 : 1;  // "A": the only QC server
  // Cut every link except those incident to the hub.
  for (NodeId a = 1; a <= 5; ++a) {
    for (NodeId b = a + 1; b <= 5; ++b) {
      if (a != hub && b != hub) {
        cluster.SetLink(a, b, false);
      }
    }
  }
  cluster.TickRounds(60);
  // No server can decide new commands: the hub never suspects anyone (it is
  // connected to everyone), and nobody else can reach a majority.
  const uint64_t decided_before = cluster.node(hub).decided_idx();
  for (NodeId id = 1; id <= 5; ++id) {
    if (cluster.node(id).IsLeader()) {
      cluster.node(id).Append(mpx::Entry::Command(999, 8));
    }
  }
  cluster.Collect();
  cluster.DeliverAll();
  cluster.TickRounds(10);
  EXPECT_EQ(cluster.node(hub).decided_idx(), decided_before);
}

TEST(MpxPartialConnectivity, ConstrainedElectionRecovers) {
  // Fig. 1b: old leader fully isolated; the hub (only QC server) takes over
  // even with an outdated log (Fig. 8b: Multi-Paxos recovers here).
  MpxCluster cluster(5);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  const NodeId hub = leader == 1 ? 2 : 1;
  cluster.Isolate(leader);
  for (NodeId a = 1; a <= 5; ++a) {
    for (NodeId b = a + 1; b <= 5; ++b) {
      if (a != hub && b != hub && a != leader && b != leader) {
        cluster.SetLink(a, b, false);
      }
    }
  }
  cluster.TickRounds(40);
  const NodeId new_leader = cluster.CurrentLeader();
  EXPECT_EQ(new_leader, hub);
  EXPECT_TRUE(cluster.Append(hub, 1234));
  cluster.TickRounds(2);
  EXPECT_GT(cluster.node(hub).decided_idx(), 0u);
}

TEST(MpxPartialConnectivity, ChainedScenarioLivelocks) {
  // Fig. 1c: 3 servers in a chain; the ballot gossip causes repeated leader
  // changes (Fig. 8c: Multi-Paxos has the lowest throughput).
  MpxCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  // Make `leader` an endpoint of the chain: cut leader <-> other_end.
  NodeId middle = kNoNode, other_end = kNoNode;
  for (NodeId id = 1; id <= 3; ++id) {
    if (id != leader) {
      if (middle == kNoNode) {
        middle = id;
      } else {
        other_end = id;
      }
    }
  }
  const uint64_t changes_before = cluster.node(leader).leader_changes() +
                                  cluster.node(middle).leader_changes() +
                                  cluster.node(other_end).leader_changes();
  cluster.SetLink(leader, other_end, false);
  cluster.TickRounds(100);
  const uint64_t changes_after = cluster.node(leader).leader_changes() +
                                 cluster.node(middle).leader_changes() +
                                 cluster.node(other_end).leader_changes();
  // Repeated elections while chained: substantially more than a single
  // takeover.
  EXPECT_GT(changes_after - changes_before, 4u);
}

}  // namespace
}  // namespace opx
