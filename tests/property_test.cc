// Property-based tests (parameterized seed sweeps): a randomized adversary
// injects partial partitions, crashes, and recoveries while clients propose;
// afterwards the cluster heals and the Sequence Consensus properties SC1–SC3
// (and their Raft/Multi-Paxos analogues) must hold on every server.
#include <gtest/gtest.h>

#include <set>

#include "src/multipaxos/multipaxos.h"
#include "src/raft/raft.h"
#include "src/rsm/lockstep_cluster.h"
#include "src/util/quorum.h"
#include "src/util/rng.h"
#include "tests/lockstep_harness.h"

namespace opx {
namespace {

constexpr int kServers = 5;
constexpr int kRounds = 120;

// ---------------------------------------------------------------------------
// Omni-Paxos: SC1–SC3 under a randomized adversary.
// ---------------------------------------------------------------------------

class OmniChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OmniChaosTest, SequenceConsensusHolds) {
  Rng rng(GetParam());
  rsm::OmniCluster cluster(kServers);
  cluster.TickRounds(3);

  std::set<uint64_t> proposed;
  uint64_t next_cmd = 1;
  int crashed_count = 0;

  for (int round = 0; round < kRounds; ++round) {
    // Random adversary action.
    switch (rng.NextBounded(10)) {
      case 0: {  // cut a random link
        const NodeId a = static_cast<NodeId>(rng.NextInRange(1, kServers));
        const NodeId b = static_cast<NodeId>(rng.NextInRange(1, kServers));
        if (a != b) {
          cluster.SetLink(a, b, false);
        }
        break;
      }
      case 1: {  // heal a random link
        const NodeId a = static_cast<NodeId>(rng.NextInRange(1, kServers));
        const NodeId b = static_cast<NodeId>(rng.NextInRange(1, kServers));
        if (a != b) {
          cluster.SetLink(a, b, true);
        }
        break;
      }
      case 2: {  // crash one server (at most a minority at a time)
        const NodeId victim = static_cast<NodeId>(rng.NextInRange(1, kServers));
        if (!cluster.IsCrashed(victim) && crashed_count < static_cast<int>(util::MaxMinorityOf(kServers))) {
          cluster.Crash(victim);
          ++crashed_count;
        }
        break;
      }
      case 3: {  // restart a crashed server
        for (NodeId id = 1; id <= kServers; ++id) {
          if (cluster.IsCrashed(id)) {
            cluster.Restart(id);
            --crashed_count;
            break;
          }
        }
        break;
      }
      default:
        break;
    }
    // Propose a few commands at random live servers (dropped proposals are
    // fine; SC1 only requires decided ⊆ proposed).
    for (int p = 0; p < 3; ++p) {
      const NodeId at = static_cast<NodeId>(rng.NextInRange(1, kServers));
      if (!cluster.IsCrashed(at)) {
        const uint64_t cmd = next_cmd++;
        proposed.insert(cmd);
        cluster.node(at).Append(omni::Entry::Command(cmd, 8));
      }
    }
    cluster.Tick();

    // SC2 continuously: decided prefixes agree across all live servers.
    for (NodeId a = 1; a <= kServers; ++a) {
      for (NodeId b = a + 1; b <= kServers; ++b) {
        if (cluster.IsCrashed(a) || cluster.IsCrashed(b)) {
          continue;
        }
        const auto& sa = cluster.storage(a);
        const auto& sb = cluster.storage(b);
        const LogIndex common = std::min(sa.decided_idx(), sb.decided_idx());
        for (LogIndex i = 0; i < common; ++i) {
          ASSERT_EQ(sa.At(i), sb.At(i))
              << "SC2 violated at idx " << i << " (servers " << a << "," << b
              << ", seed " << GetParam() << ", round " << round << ")";
        }
      }
    }
  }

  // Heal and converge.
  for (NodeId id = 1; id <= kServers; ++id) {
    if (cluster.IsCrashed(id)) {
      cluster.Restart(id);
    }
  }
  cluster.HealAll();
  cluster.TickRounds(8);

  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode) << "seed " << GetParam();
  // Progress after chaos: a fresh command decides everywhere.
  const uint64_t probe = next_cmd++;
  proposed.insert(probe);
  ASSERT_TRUE(cluster.Append(leader, probe));
  cluster.TickRounds(2);

  const LogIndex decided = cluster.node(leader).decided_idx();
  ASSERT_GT(decided, 0u);
  for (NodeId id = 1; id <= kServers; ++id) {
    // All servers fully converge after healing.
    ASSERT_EQ(cluster.node(id).decided_idx(), decided) << "server " << id;
    for (LogIndex i = 0; i < decided; ++i) {
      const omni::Entry& e = cluster.storage(id).At(i);
      // SC1: only proposed commands are decided.
      ASSERT_TRUE(proposed.count(e.cmd_id) > 0)
          << "SC1 violated: unknown cmd " << e.cmd_id << " (seed " << GetParam() << ")";
      // And identical logs (SC2 at full length).
      ASSERT_EQ(e, cluster.storage(leader).At(i));
    }
  }
  // The probe decided exactly once at the tail region; count duplicates of it.
  int probe_count = 0;
  for (LogIndex i = 0; i < decided; ++i) {
    probe_count += cluster.storage(leader).At(i).cmd_id == probe ? 1 : 0;
  }
  EXPECT_EQ(probe_count, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OmniChaosTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

// ---------------------------------------------------------------------------
// Omni-Paxos: decided entries are never lost (SC3 across leader changes).
// ---------------------------------------------------------------------------

class OmniDurabilityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OmniDurabilityTest, DecidedEntriesSurviveLeaderChurn) {
  Rng rng(GetParam());
  rsm::OmniCluster cluster(kServers);
  cluster.TickRounds(3);

  std::vector<uint64_t> decided_snapshot;
  uint64_t next_cmd = 1;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const NodeId leader = cluster.CurrentLeader();
    ASSERT_NE(leader, kNoNode);
    for (int i = 0; i < 5; ++i) {
      cluster.Append(leader, next_cmd++);
    }
    // Snapshot the decided log at the leader.
    decided_snapshot.clear();
    for (LogIndex i = 0; i < cluster.node(leader).decided_idx(); ++i) {
      decided_snapshot.push_back(cluster.storage(leader).At(i).cmd_id);
    }
    // Depose the leader: crash or isolate, randomly.
    if (rng.NextBool(0.5)) {
      cluster.Crash(leader);
      cluster.TickRounds(4);
      cluster.Restart(leader);
    } else {
      cluster.Isolate(leader);
      cluster.TickRounds(4);
      cluster.HealAll();
    }
    cluster.TickRounds(4);
    // SC3: everything decided before is still there, in order.
    const NodeId new_leader = cluster.CurrentLeader();
    ASSERT_NE(new_leader, kNoNode);
    ASSERT_GE(cluster.node(new_leader).decided_idx(), decided_snapshot.size());
    for (size_t i = 0; i < decided_snapshot.size(); ++i) {
      ASSERT_EQ(cluster.storage(new_leader).At(i).cmd_id, decided_snapshot[i])
          << "decided entry lost after churn (seed " << GetParam() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OmniDurabilityTest, ::testing::Range<uint64_t>(100, 108));

// ---------------------------------------------------------------------------
// Raft: Log Matching + State Machine Safety under the same adversary.
// ---------------------------------------------------------------------------

class RaftChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RaftChaosTest, CommittedLogsAgree) {
  Rng rng(GetParam());
  raft::RaftConfig base;
  base.seed = GetParam();
  testing::RaftCluster cluster(kServers, base);
  cluster.TickRounds(30);

  uint64_t next_cmd = 1;
  for (int round = 0; round < kRounds; ++round) {
    switch (rng.NextBounded(8)) {
      case 0: {
        const NodeId a = static_cast<NodeId>(rng.NextInRange(1, kServers));
        const NodeId b = static_cast<NodeId>(rng.NextInRange(1, kServers));
        if (a != b) {
          cluster.SetLink(a, b, false);
        }
        break;
      }
      case 1:
        cluster.HealAll();
        break;
      default:
        break;
    }
    const NodeId leader = cluster.CurrentLeader();
    if (leader != kNoNode) {
      cluster.node(leader).Append(raft::Entry::Command(next_cmd++, 8));
    }
    cluster.Tick();

    for (NodeId a = 1; a <= kServers; ++a) {
      for (NodeId b = a + 1; b <= kServers; ++b) {
        const auto& la = cluster.node(a).log();
        const auto& lb = cluster.node(b).log();
        const LogIndex common =
            std::min(cluster.node(a).commit_idx(), cluster.node(b).commit_idx());
        for (LogIndex i = 0; i < common; ++i) {
          ASSERT_EQ(la[i], lb[i]) << "committed divergence at " << i << " (seed "
                                  << GetParam() << ", round " << round << ")";
        }
      }
    }
  }
  cluster.HealAll();
  cluster.TickRounds(40);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  cluster.Append(leader, next_cmd++);
  cluster.TickRounds(3);
  EXPECT_GT(cluster.node(leader).commit_idx(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaftChaosTest, ::testing::Range<uint64_t>(300, 310));

// ---------------------------------------------------------------------------
// Multi-Paxos: chosen-slot agreement under link chaos.
// ---------------------------------------------------------------------------

class MpxChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MpxChaosTest, ChosenSlotsAgree) {
  Rng rng(GetParam());
  testing::MpxCluster cluster(kServers, /*seed_base=*/GetParam() * 100);
  cluster.TickRounds(30);

  uint64_t next_cmd = 1;
  for (int round = 0; round < kRounds; ++round) {
    switch (rng.NextBounded(8)) {
      case 0: {
        const NodeId a = static_cast<NodeId>(rng.NextInRange(1, kServers));
        const NodeId b = static_cast<NodeId>(rng.NextInRange(1, kServers));
        if (a != b) {
          cluster.SetLink(a, b, false);
        }
        break;
      }
      case 1:
        cluster.HealAll();
        break;
      default:
        break;
    }
    for (NodeId id = 1; id <= kServers; ++id) {
      if (cluster.node(id).IsLeader()) {
        cluster.node(id).Append(mpx::Entry::Command(next_cmd++, 8));
        break;
      }
    }
    cluster.Tick();

    for (NodeId a = 1; a <= kServers; ++a) {
      for (NodeId b = a + 1; b <= kServers; ++b) {
        const uint64_t common =
            std::min(cluster.node(a).decided_idx(), cluster.node(b).decided_idx());
        for (uint64_t i = 0; i < common; ++i) {
          ASSERT_EQ(cluster.node(a).log()[i], cluster.node(b).log()[i])
              << "chosen divergence at slot " << i << " (seed " << GetParam() << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MpxChaosTest, ::testing::Range<uint64_t>(400, 408));

}  // namespace
}  // namespace opx
