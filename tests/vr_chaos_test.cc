// Seeded chaos sweep for the VR baseline (view-change election over Sequence
// Paxos): decided prefixes must agree on every round of every seed, and the
// cluster must recover once fully healed.
#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "src/vr/vr_replica.h"
#include "tests/lockstep_harness.h"

namespace opx {
namespace {

constexpr int kServers = 5;

class VrChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VrChaosTest, DecidedPrefixesAgree) {
  Rng rng(GetParam());
  testing::VrCluster cluster(kServers, /*seed_base=*/GetParam() * 10);
  cluster.TickRounds(5);

  uint64_t next_cmd = 1;
  for (int round = 0; round < 100; ++round) {
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
        cluster.node(id).Append(omni::Entry::Command(next_cmd++, 8));
        break;
      }
    }
    cluster.Tick();
    for (NodeId a = 1; a <= kServers; ++a) {
      for (NodeId b = a + 1; b <= kServers; ++b) {
        const LogIndex common = std::min(cluster.node(a).decided_idx(),
                                         cluster.node(b).decided_idx());
        for (LogIndex i = 0; i < common; ++i) {
          ASSERT_EQ(cluster.storage(a).At(i), cluster.storage(b).At(i))
              << "divergence at " << i << " (seed " << GetParam() << ", round "
              << round << ")";
        }
      }
    }
  }
  cluster.HealAll();
  cluster.TickRounds(30);
  NodeId leader = kNoNode;
  for (NodeId id = 1; id <= kServers; ++id) {
    if (cluster.node(id).IsLeader()) {
      leader = id;
    }
  }
  ASSERT_NE(leader, kNoNode) << "seed " << GetParam();
  const LogIndex before = cluster.node(leader).decided_idx();
  cluster.Append(leader, next_cmd++);
  EXPECT_GT(cluster.node(leader).decided_idx(), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VrChaosTest, ::testing::Range<uint64_t>(600, 608));

}  // namespace
}  // namespace opx
