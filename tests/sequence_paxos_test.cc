// Unit and scenario tests for Sequence Paxos + BLE through the OmniPaxos
// composition, using the lockstep in-memory cluster.
#include <gtest/gtest.h>

#include "src/omnipaxos/omni_paxos.h"
#include "src/rsm/lockstep_cluster.h"

namespace opx {
namespace {

using omni::Entry;
using omni::kNullBallot;
using rsm::OmniCluster;

// Checks SC2 pairwise for all live servers: one decided log must be a prefix
// of the other.
void ExpectDecidedPrefixConsistency(OmniCluster& cluster) {
  for (NodeId a = 1; a <= cluster.size(); ++a) {
    for (NodeId b = a + 1; b <= cluster.size(); ++b) {
      if (cluster.IsCrashed(a) || cluster.IsCrashed(b)) {
        continue;
      }
      const auto& sa = cluster.storage(a);
      const auto& sb = cluster.storage(b);
      const LogIndex common = std::min(sa.decided_idx(), sb.decided_idx());
      for (LogIndex i = 0; i < common; ++i) {
        ASSERT_EQ(sa.At(i), sb.At(i)) << "SC2 violated at index " << i << " between servers "
                                      << a << " and " << b;
      }
    }
  }
}

TEST(Election, ThreeServersElectOneLeader) {
  OmniCluster cluster(3);
  cluster.TickRounds(3);
  EXPECT_NE(cluster.CurrentLeader(), kNoNode);
  int leaders = 0;
  for (NodeId id = 1; id <= 3; ++id) {
    leaders += cluster.node(id).IsLeader() ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(Election, HighestPriorityWinsFirstElection) {
  OmniCluster cluster(3, /*preferred=*/2);
  cluster.TickRounds(3);
  EXPECT_EQ(cluster.CurrentLeader(), 2);
}

TEST(Election, FiveServersElectOneLeader) {
  OmniCluster cluster(5);
  cluster.TickRounds(3);
  EXPECT_NE(cluster.CurrentLeader(), kNoNode);
}

TEST(Election, SingleServerElectsItself) {
  OmniCluster cluster(1);
  cluster.TickRounds(2);
  EXPECT_EQ(cluster.CurrentLeader(), 1);
  EXPECT_TRUE(cluster.Append(1, 1));
  EXPECT_EQ(cluster.node(1).decided_idx(), 1u);
}

TEST(Election, LeaderCrashTriggersReelection) {
  OmniCluster cluster(3);
  cluster.TickRounds(3);
  const NodeId old_leader = cluster.CurrentLeader();
  ASSERT_NE(old_leader, kNoNode);
  cluster.Crash(old_leader);
  cluster.TickRounds(4);
  const NodeId new_leader = cluster.CurrentLeader();
  EXPECT_NE(new_leader, kNoNode);
  EXPECT_NE(new_leader, old_leader);
}

TEST(Election, BallotsMonotonicallyIncrease) {
  OmniCluster cluster(3);
  cluster.TickRounds(3);
  const NodeId first = cluster.CurrentLeader();
  const auto b1 = cluster.node(1).ble().leader();
  cluster.Crash(first);
  cluster.TickRounds(4);
  const NodeId second = cluster.CurrentLeader();
  ASSERT_NE(second, kNoNode);
  const auto b2 = cluster.node(second).ble().leader();
  EXPECT_GT(b2, b1);  // LE3
}

TEST(Replication, AppendDecidesOnAllServers) {
  OmniCluster cluster(3);
  cluster.TickRounds(3);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    EXPECT_TRUE(cluster.Append(leader, cmd));
  }
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_EQ(cluster.node(id).decided_idx(), 10u) << "server " << id;
  }
  ExpectDecidedPrefixConsistency(cluster);
}

TEST(Replication, FollowerForwardsProposalsToLeader) {
  OmniCluster cluster(3);
  cluster.TickRounds(3);
  const NodeId leader = cluster.CurrentLeader();
  NodeId follower = kNoNode;
  for (NodeId id = 1; id <= 3; ++id) {
    if (id != leader) {
      follower = id;
      break;
    }
  }
  EXPECT_TRUE(cluster.Append(follower, 42));
  // The forwarded proposal needs an extra settle round after the leader
  // appends it.
  cluster.Collect();
  cluster.DeliverAll();
  EXPECT_EQ(cluster.node(leader).decided_idx(), 1u);
  EXPECT_EQ(cluster.storage(leader).At(0).cmd_id, 42u);
}

TEST(Replication, MinorityPartitionDoesNotDecide) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  // Cut the leader off from both followers: it keeps its role until BLE
  // reacts, but nothing new can be decided.
  cluster.Isolate(1);
  cluster.Append(1, 7);
  EXPECT_EQ(cluster.node(1).decided_idx(), 0u);
}

TEST(Replication, MajorityDecidesDespiteOneDisconnectedFollower) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  cluster.SetLink(1, 3, false);
  for (uint64_t cmd = 1; cmd <= 5; ++cmd) {
    EXPECT_TRUE(cluster.Append(1, cmd));
  }
  EXPECT_EQ(cluster.node(1).decided_idx(), 5u);
  EXPECT_EQ(cluster.node(2).decided_idx(), 5u);
  EXPECT_EQ(cluster.node(3).decided_idx(), 0u);
  // Heal: the straggler catches up via the reconnect → PrepareReq path.
  cluster.SetLink(1, 3, true);
  cluster.DeliverAll();
  EXPECT_EQ(cluster.node(3).decided_idx(), 5u);
  ExpectDecidedPrefixConsistency(cluster);
}

TEST(Replication, NewLeaderAdoptsDecidedEntries) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  for (uint64_t cmd = 1; cmd <= 3; ++cmd) {
    cluster.Append(1, cmd);
  }
  cluster.Crash(1);
  cluster.TickRounds(4);
  const NodeId new_leader = cluster.CurrentLeader();
  ASSERT_NE(new_leader, kNoNode);
  EXPECT_GE(cluster.node(new_leader).decided_idx(), 3u);
  cluster.Append(new_leader, 4);
  EXPECT_EQ(cluster.node(new_leader).decided_idx(), 4u);
  ExpectDecidedPrefixConsistency(cluster);
}

TEST(Replication, UnchosenEntriesAreOverwritten) {
  // Fig. 3a: entries accepted only by a minority in an old round are
  // overwritten by the new leader's log.
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  cluster.Append(1, 1);
  // Leader 1 gets cut off from everyone, then accepts entries alone.
  cluster.Isolate(1);
  cluster.Append(1, 100);
  cluster.Append(1, 101);
  EXPECT_EQ(cluster.storage(1).log_len(), 3u);
  EXPECT_EQ(cluster.node(1).decided_idx(), 1u);
  // The rest elect a new leader and decide different entries.
  cluster.TickRounds(4);
  const NodeId new_leader = cluster.CurrentLeader();
  ASSERT_NE(new_leader, kNoNode);
  ASSERT_NE(new_leader, 1);
  cluster.Append(new_leader, 200);
  EXPECT_EQ(cluster.node(new_leader).decided_idx(), 2u);
  // Heal: server 1 must drop its unchosen tail and adopt the new log.
  cluster.HealAll();
  cluster.DeliverAll();
  cluster.TickRounds(2);
  EXPECT_EQ(cluster.storage(1).At(1).cmd_id, 200u);
  ExpectDecidedPrefixConsistency(cluster);
}

TEST(Recovery, RestartedServerCatchesUp) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  cluster.Append(1, 1);
  cluster.Crash(3);
  cluster.Append(1, 2);
  cluster.Append(1, 3);
  cluster.Restart(3);
  cluster.DeliverAll();
  EXPECT_EQ(cluster.node(3).decided_idx(), 3u);
  ExpectDecidedPrefixConsistency(cluster);
}

TEST(Recovery, RecoveringServerIgnoresNonPrepareMessages) {
  omni::Storage storage;
  omni::SequencePaxosConfig cfg;
  cfg.pid = 1;
  cfg.peers = {2, 3};
  omni::SequencePaxos sp(cfg, &storage, /*recovered=*/true);
  EXPECT_EQ(sp.phase(), omni::Phase::kRecover);
  // An AcceptDecide in recover state must be dropped.
  omni::AcceptDecide ad;
  ad.n = omni::Ballot{1, 0, 2};
  ad.start_idx = 0;
  ad.entries = {Entry::Command(9, 8)};
  sp.Handle(2, ad);
  EXPECT_EQ(storage.log_len(), 0u);
}

TEST(StopSign, DecidedStopSignStopsConfiguration) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  cluster.Append(1, 1);
  omni::StopSign ss;
  ss.next_config = 1;
  ss.next_nodes = {3, 4, 5};
  EXPECT_TRUE(cluster.node(1).ProposeReconfiguration(ss));
  cluster.Collect();
  cluster.DeliverAll();
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_TRUE(cluster.node(id).IsStopped()) << "server " << id;
    ASSERT_TRUE(cluster.node(id).DecidedStopSign().has_value());
    EXPECT_EQ(cluster.node(id).DecidedStopSign()->next_config, 1u);
  }
  // No entries can be appended after the stop-sign (§6).
  EXPECT_FALSE(cluster.Append(1, 99));
  EXPECT_FALSE(cluster.node(1).ProposeReconfiguration(ss));
}

TEST(StopSign, SecondReconfigurationProposalRejected) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  omni::StopSign ss;
  ss.next_config = 1;
  ss.next_nodes = {1, 2, 3};
  EXPECT_TRUE(cluster.node(1).ProposeReconfiguration(ss));
  EXPECT_FALSE(cluster.node(1).ProposeReconfiguration(ss));
}

}  // namespace
}  // namespace opx
