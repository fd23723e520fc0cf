// Raft baseline tests: elections, log matching, commit safety, PreVote,
// CheckQuorum, and leader-based membership change.
#include <gtest/gtest.h>

#include "src/raft/raft.h"
#include "tests/lockstep_harness.h"

namespace opx {
namespace {

using testing::RaftCluster;

raft::RaftConfig WithOptions(bool pre_vote, bool check_quorum) {
  raft::RaftConfig cfg;
  cfg.pre_vote = pre_vote;
  cfg.check_quorum = check_quorum;
  return cfg;
}

TEST(RaftElection, ThreeServersElectOneLeader) {
  RaftCluster cluster(3);
  cluster.TickRounds(30);
  EXPECT_NE(cluster.CurrentLeader(), kNoNode);
}

TEST(RaftElection, FiveServersElectOneLeader) {
  RaftCluster cluster(5);
  cluster.TickRounds(30);
  EXPECT_NE(cluster.CurrentLeader(), kNoNode);
}

TEST(RaftElection, LeaderCrashTriggersReelection) {
  RaftCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId old_leader = cluster.CurrentLeader();
  ASSERT_NE(old_leader, kNoNode);
  cluster.Crash(old_leader);
  cluster.TickRounds(40);
  const NodeId new_leader = cluster.CurrentLeader();
  EXPECT_NE(new_leader, kNoNode);
  EXPECT_NE(new_leader, old_leader);
}

TEST(RaftElection, PreVoteDoesNotDisturbTermsWhenPartitioned) {
  RaftCluster cluster(3, WithOptions(/*pre_vote=*/true, /*check_quorum=*/false));
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  const uint64_t term_before = cluster.node(leader).term();
  // Isolate a follower; with PreVote its term must not grow while cut off.
  NodeId follower = leader == 1 ? 2 : 1;
  cluster.Isolate(follower);
  cluster.TickRounds(50);
  EXPECT_EQ(cluster.node(follower).term(), term_before);
  // Rejoin: no leadership disruption.
  cluster.HealAll();
  cluster.TickRounds(10);
  EXPECT_EQ(cluster.CurrentLeader(), leader);
  EXPECT_EQ(cluster.node(leader).term(), term_before);
}

TEST(RaftElection, WithoutPreVoteRejoiningServerDisruptsLeader) {
  RaftCluster cluster(3, WithOptions(/*pre_vote=*/false, /*check_quorum=*/false));
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  const uint64_t term_before = cluster.node(leader).term();
  NodeId follower = leader == 1 ? 2 : 1;
  cluster.Isolate(follower);
  cluster.TickRounds(50);
  EXPECT_GT(cluster.node(follower).term(), term_before);  // kept incrementing
  cluster.HealAll();
  cluster.TickRounds(20);
  // The cluster recovers, but at a higher term (the disruption PreVote
  // prevents).
  const NodeId new_leader = cluster.CurrentLeader();
  ASSERT_NE(new_leader, kNoNode);
  EXPECT_GT(cluster.node(new_leader).term(), term_before);
}

TEST(RaftElection, CheckQuorumLeaderStepsDownWhenIsolated) {
  RaftCluster cluster(3, WithOptions(/*pre_vote=*/false, /*check_quorum=*/true));
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  cluster.Isolate(leader);
  cluster.TickRounds(30);
  EXPECT_FALSE(cluster.node(leader).IsLeader());
}

TEST(RaftElection, WithoutCheckQuorumIsolatedLeaderKeepsRole) {
  RaftCluster cluster(3, WithOptions(/*pre_vote=*/false, /*check_quorum=*/false));
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  cluster.Isolate(leader);
  cluster.TickRounds(30);
  EXPECT_TRUE(cluster.node(leader).IsLeader());
}

TEST(RaftReplication, AppendCommitsOnAllServers) {
  RaftCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    EXPECT_TRUE(cluster.Append(leader, cmd));
  }
  cluster.TickRounds(2);  // commit index propagates with heartbeats
  for (NodeId id = 1; id <= 3; ++id) {
    // +1 for the leader's no-op entry.
    EXPECT_EQ(cluster.node(id).commit_idx(), 11u) << "server " << id;
  }
}

TEST(RaftReplication, FollowerRejectsAppend) {
  RaftCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  NodeId follower = leader == 1 ? 2 : 1;
  EXPECT_FALSE(cluster.node(follower).Append(raft::Entry::Command(1, 8)));
}

TEST(RaftReplication, DivergentFollowerLogIsRepaired) {
  RaftCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  cluster.Append(leader, 1);
  // Partition the leader alone with uncommitted appends.
  cluster.Isolate(leader);
  cluster.node(leader).Append(raft::Entry::Command(100, 8));
  cluster.node(leader).Append(raft::Entry::Command(101, 8));
  cluster.Collect();
  cluster.DeliverAll();
  // Other two elect a fresh leader and commit different entries.
  cluster.TickRounds(40);
  const NodeId new_leader = cluster.CurrentLeader();
  ASSERT_NE(new_leader, kNoNode);
  ASSERT_NE(new_leader, leader);
  cluster.Append(new_leader, 200);
  // Heal; the old leader's conflicting suffix is overwritten.
  cluster.HealAll();
  cluster.TickRounds(10);
  const auto& old_log = cluster.node(leader).log();
  const auto& new_log = cluster.node(new_leader).log();
  ASSERT_EQ(old_log.size(), new_log.size());
  for (size_t i = 0; i < new_log.size(); ++i) {
    EXPECT_EQ(old_log[i], new_log[i]) << "index " << i;
  }
}

TEST(RaftReplication, CommitRequiresMajority) {
  RaftCluster cluster(5);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  const LogIndex committed_before = cluster.node(leader).commit_idx();
  // Cut the leader off from all but one follower: 2 < majority(5)=3.
  NodeId kept = kNoNode;
  for (NodeId id = 1; id <= 5 && kept == kNoNode; ++id) {
    if (id != leader) {
      kept = id;
    }
  }
  for (NodeId id = 1; id <= 5; ++id) {
    if (id != leader && id != kept) {
      cluster.SetLink(leader, id, false);
    }
  }
  cluster.Append(leader, 77);
  EXPECT_EQ(cluster.node(leader).commit_idx(), committed_before);
}

TEST(RaftMembership, ReplaceOneServer) {
  RaftCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  for (uint64_t cmd = 1; cmd <= 20; ++cmd) {
    cluster.Append(leader, cmd);
  }
  const NodeId fresh = cluster.AddFreshServer();
  // Replace a follower (not the leader) with the fresh server.
  NodeId removed = kNoNode;
  for (NodeId id = 1; id <= 3; ++id) {
    if (id != leader) {
      removed = id;
      break;
    }
  }
  std::vector<NodeId> next;
  for (NodeId id = 1; id <= 3; ++id) {
    if (id != removed) {
      next.push_back(id);
    }
  }
  next.push_back(fresh);
  ASSERT_TRUE(cluster.node(leader).ProposeMembership(next));
  cluster.Collect();
  cluster.DeliverAll();
  cluster.TickRounds(3);
  // Change committed at the leader; the removed server is retired by the
  // operator (it no longer receives heartbeats and would otherwise disrupt
  // the cluster with term bumps — authentic Raft behaviour, cf. §7.3).
  ASSERT_TRUE(cluster.node(leader).CommittedMembership().has_value());
  EXPECT_EQ(*cluster.node(leader).CommittedMembership(), next);
  cluster.Crash(removed);
  cluster.TickRounds(40);
  const NodeId steady_leader = cluster.CurrentLeader();
  ASSERT_NE(steady_leader, kNoNode);
  // The fresh server caught up with the full log and learned the membership.
  EXPECT_EQ(cluster.node(fresh).log_len(), cluster.node(steady_leader).log_len());
  EXPECT_EQ(cluster.node(fresh).voters(), next);
  // The new configuration still replicates.
  cluster.Append(steady_leader, 99);
  cluster.TickRounds(2);
  EXPECT_EQ(cluster.node(fresh).commit_idx(), cluster.node(steady_leader).commit_idx());
}

TEST(RaftMembership, LeaderStepsDownWhenReplaced) {
  RaftCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  const NodeId fresh = cluster.AddFreshServer();
  std::vector<NodeId> next;
  for (NodeId id = 1; id <= 3; ++id) {
    if (id != leader) {
      next.push_back(id);
    }
  }
  next.push_back(fresh);
  ASSERT_TRUE(cluster.node(leader).ProposeMembership(next));
  cluster.Collect();
  cluster.DeliverAll();
  cluster.TickRounds(5);
  EXPECT_FALSE(cluster.node(leader).IsLeader());
  // The remaining voters elect a leader among themselves.
  cluster.TickRounds(40);
  const NodeId new_leader = cluster.CurrentLeader();
  EXPECT_NE(new_leader, kNoNode);
  EXPECT_NE(new_leader, leader);
}

TEST(RaftMembership, OnlyOneChangeInFlight) {
  RaftCluster cluster(3);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  EXPECT_TRUE(cluster.node(leader).ProposeMembership({1, 2, 3}));
  EXPECT_FALSE(cluster.node(leader).ProposeMembership({1, 2, 3}));
}

}  // namespace
}  // namespace opx
