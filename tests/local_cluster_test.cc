// Tests for LocalCluster, the public in-process entry point used by library
// consumers and the examples — including the apply callback that drives user
// state machines, and the half-duplex behaviour discussed in §8.
#include <gtest/gtest.h>

#include <vector>

#include "src/kvstore/kv_store.h"
#include "src/rsm/adapters.h"
#include "src/rsm/cluster_sim.h"
#include "src/rsm/local_cluster.h"

namespace opx {
namespace {

using rsm::LocalCluster;

TEST(LocalCluster, ElectLeaderReturnsLeader) {
  LocalCluster cluster(3);
  const NodeId leader = cluster.ElectLeader();
  ASSERT_NE(leader, kNoNode);
  EXPECT_TRUE(cluster.node(leader).IsLeader());
}

TEST(LocalCluster, PriorityNodeWinsFirstElection) {
  LocalCluster cluster(5, /*preferred_leader=*/4);
  EXPECT_EQ(cluster.ElectLeader(), 4);
}

TEST(LocalCluster, ApplyCallbackSeesDecidedEntriesInOrder) {
  LocalCluster cluster(3);
  std::vector<std::vector<uint64_t>> applied(4);
  cluster.set_apply([&](NodeId server, LogIndex, const omni::Entry& e) {
    applied[static_cast<size_t>(server)].push_back(e.cmd_id);
  });
  const NodeId leader = cluster.ElectLeader();
  for (uint64_t cmd = 1; cmd <= 5; ++cmd) {
    cluster.Append(leader, cmd);
  }
  const std::vector<uint64_t> expected{1, 2, 3, 4, 5};
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_EQ(applied[static_cast<size_t>(id)], expected) << "server " << id;
  }
}

TEST(LocalCluster, FollowerAppendForwardsToLeader) {
  LocalCluster cluster(3, 1);
  ASSERT_EQ(cluster.ElectLeader(), 1);
  EXPECT_TRUE(cluster.Append(2, 77));
  cluster.Step();
  cluster.Step();
  EXPECT_EQ(cluster.node(1).decided_idx(), 1u);
}

TEST(LocalCluster, RestartReplaysDecidedEntries) {
  LocalCluster cluster(3, 1);
  std::vector<uint64_t> replayed;
  cluster.set_apply([&](NodeId server, LogIndex, const omni::Entry& e) {
    if (server == 3) {
      replayed.push_back(e.cmd_id);
    }
  });
  ASSERT_EQ(cluster.ElectLeader(), 1);
  cluster.Append(1, 1);
  cluster.Append(1, 2);
  cluster.Crash(3);
  cluster.Append(1, 3);
  cluster.Restart(3);
  cluster.Tick();
  // Server 3 re-applies from scratch after recovery: 1,2 (before crash),
  // then 1,2,3 again on replay.
  const std::vector<uint64_t> expected{1, 2, 1, 2, 3};
  EXPECT_EQ(replayed, expected);
}

TEST(LocalCluster, KvStateMachineConvergesAcrossFaults) {
  LocalCluster cluster(5, 1);
  kv::CommandLog commands;
  std::vector<kv::KvStore> stores(6);
  cluster.set_apply([&](NodeId server, LogIndex, const omni::Entry& e) {
    if (e.cmd_id != 0 && !e.IsStopSign()) {
      stores[static_cast<size_t>(server)].Apply(commands.Lookup(e.cmd_id));
    }
  });
  NodeId leader = cluster.ElectLeader();
  auto put = [&](const std::string& key, int64_t value) {
    kv::Command c;
    c.type = kv::OpType::kPut;
    c.key = key;
    c.value = value;
    cluster.Append(leader, commands.Register(c));
  };
  put("a", 1);
  put("b", 2);
  cluster.Crash(leader);
  leader = cluster.ElectLeader();
  ASSERT_NE(leader, kNoNode);
  put("c", 3);
  put("a", 10);
  cluster.TickRounds(2);
  uint64_t digest = 0;
  for (NodeId id = 1; id <= 5; ++id) {
    if (cluster.IsCrashed(id)) {
      continue;
    }
    if (digest == 0) {
      digest = stores[static_cast<size_t>(id)].Digest();
    } else {
      EXPECT_EQ(stores[static_cast<size_t>(id)].Digest(), digest) << "server " << id;
    }
  }
}

// --- Half-duplex partial connectivity (§8). --------------------------------
//
// The leader must be quorum-connected over FULL-duplex links: BLE's heartbeat
// request/response pattern requires both directions, so a leader whose
// outbound links fail is detected (its replies never arrive) and replaced,
// even though it can still hear everyone.

TEST(HalfDuplex, LeaderWithOutboundOnlyFailureIsReplaced) {
  rsm::ClusterParams params;
  params.num_servers = 5;
  params.election_timeout = Millis(50);
  params.concurrent_proposals = 100;
  params.proposal_rate = 10'000;
  params.preferred_leader = 1;
  rsm::ClusterSim<rsm::OmniNode> sim(params);
  sim.RunUntil(Seconds(2));
  ASSERT_EQ(sim.CurrentLeader(), 1);
  const uint64_t before = sim.client().completed();
  // Half-duplex fault: server 1 can still receive, but nothing it sends gets
  // out (e.g., an asymmetric firewall rule).
  for (NodeId other = 2; other <= 5; ++other) {
    sim.network().SetLinkOneWay(1, other, false);
  }
  sim.RunUntil(Seconds(6));
  const NodeId new_leader = sim.CurrentLeader();
  EXPECT_NE(new_leader, 1);
  EXPECT_NE(new_leader, kNoNode);
  EXPECT_GT(sim.client().completed(), before);  // progress resumed
}

TEST(HalfDuplex, FollowerWithInboundOnlyFailureDoesNotDisrupt) {
  rsm::ClusterParams params;
  params.num_servers = 5;
  params.election_timeout = Millis(50);
  params.concurrent_proposals = 100;
  params.proposal_rate = 10'000;
  params.preferred_leader = 1;
  rsm::ClusterSim<rsm::OmniNode> sim(params);
  sim.RunUntil(Seconds(2));
  ASSERT_EQ(sim.CurrentLeader(), 1);
  // Server 5 stops hearing anyone (inbound cut), but its sends still arrive.
  // It is no longer QC (no heartbeat replies reach it), cannot elect or be a
  // candidate problemmaker, and the rest keep a stable leader.
  for (NodeId other = 1; other <= 4; ++other) {
    sim.network().SetLinkOneWay(other, 5, false);
  }
  const uint64_t before = sim.client().completed();
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(sim.CurrentLeader(), 1);
  EXPECT_GT(sim.client().completed(), before);
}

}  // namespace
}  // namespace opx
