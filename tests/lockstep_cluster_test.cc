// Tests for the lockstep engine itself (src/rsm/lockstep_cluster.h): its
// delivery order, pinned per protocol, and what a restart keeps.
#include <gtest/gtest.h>

#include <type_traits>

#include "src/rsm/lockstep_cluster.h"
#include "tests/lockstep_harness.h"

namespace opx {
namespace {

// Elect, append, isolate the leader and heal; Omni-Paxos then crashes a
// server that is neither the leader nor the preferred one, appends, and
// restarts it; finally server 1 is cut off from 2 and 3 and healed.
template <typename Cluster>
uint64_t ScriptedRun(Cluster& c) {
  c.TickRounds(30);
  const NodeId leader = c.CurrentLeader();
  if (leader == kNoNode) {
    ADD_FAILURE() << "no leader after 30 ticks";
    return 0;
  }
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    c.Append(leader, cmd);
  }
  c.Isolate(leader);
  c.TickRounds(40);
  c.HealAll();
  c.TickRounds(10);
  if constexpr (std::is_same_v<Cluster, rsm::OmniCluster>) {
    const NodeId now_leading = c.CurrentLeader();
    const NodeId victim = now_leading == 2 ? 3 : 2;
    c.Crash(victim);
    for (uint64_t cmd = 11; cmd <= 15; ++cmd) {
      c.Append(now_leading, cmd);
    }
    c.TickRounds(5);
    c.Restart(victim);
  }
  c.SetLink(1, 2, false);
  c.SetLink(1, 3, false);
  c.TickRounds(20);
  c.HealAll();
  c.DeliverAll();
  c.TickRounds(10);
  return c.EventHash();
}

// The constants are those of the per-protocol harnesses this engine replaced,
// run on the same script: the merge moved no message.
TEST(Determinism, LockstepFingerprintLock) {
  rsm::OmniCluster omni(3, /*preferred=*/1, /*trim_watermark=*/4);
  EXPECT_EQ(ScriptedRun(omni), 0xdfc1eac11861dde3ull);

  testing::RaftCluster raft(3);
  ScriptedRun(raft);
  raft.AddFreshServer();
  raft.TickRounds(5);
  EXPECT_EQ(raft.EventHash(), 0xf834a3e873c53728ull);

  testing::MpxCluster mpx(3);
  EXPECT_EQ(ScriptedRun(mpx), 0x6ef277f496ab6095ull);

  testing::VrCluster vr(3);
  EXPECT_EQ(ScriptedRun(vr), 0x06555f3c9c162562ull);
}

TEST(LockstepCluster, RestartedPreferredServerKeepsItsPriority) {
  rsm::OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  cluster.Crash(1);
  cluster.TickRounds(5);
  cluster.Restart(1);
  cluster.DeliverAll();
  EXPECT_EQ(cluster.node(1).ble().current_ballot().priority, rsm::kPreferredPriority);
  EXPECT_EQ(cluster.node(2).ble().current_ballot().priority, 0u);
}

}  // namespace
}  // namespace opx
