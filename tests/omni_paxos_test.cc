// Tests for the OmniPaxos composition layer (BLE → SequencePaxos wiring,
// reconfiguration proposal rules, trim pass-through) and for determinism of
// the whole simulation stack.
#include <gtest/gtest.h>

#include "src/omnipaxos/omni_paxos.h"
#include "src/rsm/experiments.h"
#include "src/rsm/lockstep_cluster.h"

namespace opx {
namespace {

using omni::Ballot;
using omni::Entry;
using omni::OmniConfig;
using omni::OmniPaxos;
using omni::Storage;
using rsm::OmniCluster;

OmniConfig Config3(NodeId pid, uint32_t priority = 0) {
  OmniConfig cfg;
  cfg.pid = pid;
  for (NodeId p = 1; p <= 3; ++p) {
    if (p != pid) {
      cfg.peers.push_back(p);
    }
  }
  cfg.ble_priority = priority;
  return cfg;
}

TEST(OmniPaxosUnit, LeaderEventFlowsFromBleToPaxos) {
  Storage storage;
  OmniPaxos node(Config3(1, 1), &storage);
  // Drive BLE to elect ourselves: two ticks with majority replies.
  node.TickElection();
  (void)node.TakeOutgoing();
  node.Handle(2, omni::BleMessage(omni::HeartbeatReply{1, Ballot{0, 0, 2}, true}));
  node.TickElection();
  // SequencePaxos must now be preparing (Prepare messages to peers).
  int prepares = 0;
  for (const omni::OmniOut& out : node.TakeOutgoing()) {
    if (const auto* paxos = std::get_if<omni::PaxosMessage>(&out.body)) {
      prepares += std::holds_alternative<omni::Prepare>(*paxos) ? 1 : 0;
    }
  }
  EXPECT_EQ(prepares, 2);
}

TEST(OmniPaxosUnit, ReconfigurationRejectedBeforeAndAfterStop) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  omni::StopSign ss;
  ss.next_config = 1;
  ss.next_nodes = {1, 2, 4};
  EXPECT_TRUE(cluster.node(1).ProposeReconfiguration(ss));
  // Second proposal while one is in flight: rejected.
  EXPECT_FALSE(cluster.node(1).ProposeReconfiguration(ss));
  cluster.Collect();
  cluster.DeliverAll();
  ASSERT_TRUE(cluster.node(1).IsStopped());
  // And after the stop-sign decided: still rejected, also at followers.
  EXPECT_FALSE(cluster.node(1).ProposeReconfiguration(ss));
  EXPECT_FALSE(cluster.node(2).Append(Entry::Command(5, 8)));
}

TEST(OmniPaxosUnit, UnproposedEntriesRecoverableAfterStop) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  // Queue proposals at a follower that cannot flush them (leader unknown to
  // it yet? it knows — use a follower whose forward will be rejected because
  // the config stops first).
  omni::StopSign ss;
  ss.next_config = 1;
  ss.next_nodes = {1, 2, 3};
  ASSERT_TRUE(cluster.node(1).ProposeReconfiguration(ss));
  cluster.Collect();
  cluster.DeliverAll();
  ASSERT_TRUE(cluster.node(2).IsStopped());
  // Appends at the stopped configuration are rejected; anything still queued
  // can be drained for re-proposal in the next configuration.
  EXPECT_FALSE(cluster.node(2).Append(Entry::Command(77, 8)));
  const auto unproposed = cluster.node(2).TakeUnproposed();
  EXPECT_TRUE(unproposed.empty());  // nothing was silently dropped
}

TEST(OmniPaxosUnit, TrimForwardsToStorage) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  for (uint64_t cmd = 1; cmd <= 5; ++cmd) {
    cluster.Append(1, cmd);
  }
  cluster.node(1).Trim(5);
  EXPECT_EQ(cluster.storage(1).compacted_idx(), 5u);
  EXPECT_EQ(cluster.node(1).log_len(), 5u);
}

TEST(OmniPaxosUnit, DecidedStopSignExposesNextConfig) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  omni::StopSign ss;
  ss.next_config = 7;
  ss.next_nodes = {2, 3, 9};
  ASSERT_TRUE(cluster.node(1).ProposeReconfiguration(ss));
  cluster.Collect();
  cluster.DeliverAll();
  for (NodeId id = 1; id <= 3; ++id) {
    const auto decided = cluster.node(id).DecidedStopSign();
    ASSERT_TRUE(decided.has_value()) << "server " << id;
    EXPECT_EQ(decided->next_config, 7u);
    EXPECT_EQ(decided->next_nodes, (std::vector<NodeId>{2, 3, 9}));
  }
}

// ---------------------------------------------------------------------------
// Determinism: the whole simulation stack replays identically from a seed.
// ---------------------------------------------------------------------------

TEST(Determinism, SameSeedSameResult) {
  rsm::NormalConfig cfg;
  cfg.warmup = Seconds(1);
  cfg.duration = Seconds(3);
  cfg.seed = 1234;
  const auto a = rsm::RunNormal<rsm::OmniNode>(cfg);
  const auto b = rsm::RunNormal<rsm::OmniNode>(cfg);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.election_io_share, b.election_io_share);
}

TEST(Determinism, SameSeedSamePartitionOutcome) {
  rsm::PartitionConfig cfg;
  cfg.scenario = rsm::Scenario::kQuorumLoss;
  cfg.partition_duration = Seconds(5);
  cfg.post_heal = Seconds(2);
  cfg.warmup = Seconds(1);
  cfg.seed = 77;
  const auto a = rsm::RunPartition<rsm::RaftNode>(cfg);
  const auto b = rsm::RunPartition<rsm::RaftNode>(cfg);
  EXPECT_EQ(a.downtime, b.downtime);
  EXPECT_EQ(a.decided_during, b.decided_during);
  EXPECT_EQ(a.epoch_increments, b.epoch_increments);
}

TEST(Determinism, DifferentSeedsDifferentTimings) {
  rsm::PartitionConfig cfg;
  cfg.scenario = rsm::Scenario::kQuorumLoss;
  cfg.partition_duration = Seconds(5);
  cfg.post_heal = Seconds(2);
  cfg.warmup = Seconds(1);
  cfg.seed = 1;
  const auto a = rsm::RunPartition<rsm::RaftNode>(cfg);
  cfg.seed = 2;
  const auto b = rsm::RunPartition<rsm::RaftNode>(cfg);
  // Raft's randomized timers make exact equality across seeds vanishingly
  // unlikely; both still recover.
  EXPECT_TRUE(a.recovered);
  EXPECT_TRUE(b.recovered);
  EXPECT_NE(a.downtime, b.downtime);
}

}  // namespace
}  // namespace opx
