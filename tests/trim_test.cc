// Tests for log compaction (Trim) and snapshot-based synchronization: storage
// semantics, leader-side snapshot AcceptSync, follower-side snapshot Promise,
// and end-to-end convergence with trims mixed into normal operation.
#include <gtest/gtest.h>

#include "src/omnipaxos/omni_paxos.h"
#include "src/rsm/lockstep_cluster.h"

namespace opx {
namespace {

using omni::Entry;
using omni::Storage;
using rsm::OmniCluster;

TEST(Trim, StorageDropsPrefixAndKeepsIndexing) {
  Storage storage;
  for (uint64_t i = 1; i <= 10; ++i) {
    storage.Append(Entry::Command(i, 8));
  }
  storage.set_decided_idx(7);
  storage.Trim(5);
  EXPECT_EQ(storage.compacted_idx(), 5u);
  EXPECT_EQ(storage.log_len(), 10u);  // logical length unchanged
  EXPECT_EQ(storage.At(5).cmd_id, 6u);
  EXPECT_EQ(storage.At(9).cmd_id, 10u);
  EXPECT_DEATH(storage.At(4), "compacted");
}

TEST(Trim, OnlyDecidedPrefixMayBeTrimmed) {
  Storage storage;
  storage.Append(Entry::Command(1, 8));
  storage.Append(Entry::Command(2, 8));
  storage.set_decided_idx(1);
  EXPECT_DEATH(storage.Trim(2), "decided");
  storage.Trim(1);
  EXPECT_EQ(storage.compacted_idx(), 1u);
}

TEST(Trim, TrimIsIdempotentAndMonotonic) {
  Storage storage;
  for (uint64_t i = 1; i <= 5; ++i) {
    storage.Append(Entry::Command(i, 8));
  }
  storage.set_decided_idx(5);
  storage.Trim(3);
  storage.Trim(2);  // below the boundary: no-op
  EXPECT_EQ(storage.compacted_idx(), 3u);
  storage.Trim(5);
  EXPECT_EQ(storage.compacted_idx(), 5u);
  EXPECT_TRUE(storage.log().empty());
  EXPECT_EQ(storage.log_len(), 5u);
}

TEST(Trim, SuffixAndTruncateRespectCompaction) {
  Storage storage;
  for (uint64_t i = 1; i <= 6; ++i) {
    storage.Append(Entry::Command(i, 8));
  }
  storage.set_decided_idx(4);
  storage.Trim(4);
  const auto suffix = storage.Suffix(5);
  ASSERT_EQ(suffix.size(), 1u);
  EXPECT_EQ(suffix[0].cmd_id, 6u);
  storage.TruncateAndAppend(5, {Entry::Command(100, 8)});
  EXPECT_EQ(storage.At(5).cmd_id, 100u);
  EXPECT_EQ(storage.log_len(), 6u);
}

TEST(Trim, ResetToSnapshotInstallsBoundary) {
  Storage storage;
  storage.Append(Entry::Command(1, 8));
  storage.set_decided_idx(1);
  storage.ResetToSnapshot(omni::Ballot{1, 0, 1}, 10,
                          {Entry::Command(11, 8), Entry::Command(12, 8)});
  EXPECT_EQ(storage.compacted_idx(), 10u);
  EXPECT_EQ(storage.decided_idx(), 10u);
  EXPECT_EQ(storage.log_len(), 12u);
  EXPECT_EQ(storage.At(10).cmd_id, 11u);
}

// --- Protocol-level snapshot synchronization. -------------------------------

TEST(TrimSync, TrimmedLeaderSnapshotsLaggingFollower) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  // Follower 3 misses entries 1..10.
  cluster.SetLink(1, 3, false);
  cluster.SetLink(2, 3, false);
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    cluster.Append(1, cmd);
  }
  ASSERT_EQ(cluster.node(1).decided_idx(), 10u);
  // Everyone still connected trims away the replicated prefix.
  cluster.node(1).Trim(10);
  cluster.node(2).Trim(10);
  // Follower 3 reconnects: the leader cannot ship entries below its
  // compaction boundary, so it sends a snapshot AcceptSync.
  cluster.SetLink(1, 3, true);
  cluster.SetLink(2, 3, true);
  cluster.DeliverAll();
  cluster.TickRounds(2);
  EXPECT_EQ(cluster.storage(3).compacted_idx(), 10u);
  EXPECT_EQ(cluster.node(3).decided_idx(), 10u);
  // Replication continues normally past the snapshot.
  cluster.Append(1, 11);
  EXPECT_EQ(cluster.node(3).decided_idx(), 11u);
  EXPECT_EQ(cluster.storage(3).At(10).cmd_id, 11u);
}

TEST(TrimSync, TrimmedFollowerPromisesWithSnapshot) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    cluster.Append(1, cmd);
  }
  // Followers trim; then the leader crashes and a trimmed follower must bring
  // the next leader up to date via a snapshot-bearing Promise.
  cluster.node(2).Trim(10);
  cluster.node(3).Trim(10);
  cluster.Crash(1);
  cluster.TickRounds(4);
  const NodeId new_leader = cluster.CurrentLeader();
  ASSERT_NE(new_leader, kNoNode);
  EXPECT_EQ(cluster.node(new_leader).decided_idx(), 10u);
  cluster.Append(new_leader, 11);
  EXPECT_EQ(cluster.node(new_leader).decided_idx(), 11u);
  // The restarted old leader re-syncs (via snapshot, since peers trimmed).
  cluster.Restart(1);
  cluster.DeliverAll();
  cluster.TickRounds(2);
  EXPECT_EQ(cluster.node(1).decided_idx(), 11u);
}

TEST(TrimSync, MixedTrimsDoNotBreakConvergence) {
  OmniCluster cluster(5, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  uint64_t next_cmd = 1;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 5; ++i) {
      cluster.Append(1, next_cmd++);
    }
    // Different servers trim to different boundaries.
    for (NodeId id = 1; id <= 5; ++id) {
      const LogIndex decided = cluster.node(id).decided_idx();
      if (decided > static_cast<LogIndex>(id)) {
        cluster.node(id).Trim(decided - static_cast<LogIndex>(id));
      }
    }
  }
  const LogIndex decided = cluster.node(1).decided_idx();
  EXPECT_EQ(decided, 50u);
  for (NodeId id = 2; id <= 5; ++id) {
    EXPECT_EQ(cluster.node(id).decided_idx(), decided) << "server " << id;
  }
  // Tail entries (above every compaction point) agree.
  for (LogIndex i = decided - 1; i >= decided - 1; --i) {
    for (NodeId id = 2; id <= 5; ++id) {
      EXPECT_EQ(cluster.storage(id).At(i), cluster.storage(1).At(i));
    }
    break;
  }
}

TEST(TrimSync, DurableTrimSurvivesThroughSnapshotResync) {
  // Trim + crash + recover: a recovering trimmed server rejoins via the
  // standard PrepareReq path and serves from its compaction boundary.
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  for (uint64_t cmd = 1; cmd <= 6; ++cmd) {
    cluster.Append(1, cmd);
  }
  cluster.node(3).Trim(6);
  cluster.Crash(3);
  cluster.Append(1, 7);
  cluster.Restart(3);
  cluster.DeliverAll();
  cluster.TickRounds(2);
  EXPECT_EQ(cluster.node(3).decided_idx(), 7u);
  EXPECT_EQ(cluster.storage(3).At(6).cmd_id, 7u);
}

// --- Leader-driven auto-trim (trim_watermark > 0) ------------------------

TEST(AutoTrim, DisabledByDefault) {
  OmniCluster cluster(3, /*preferred=*/1);  // trim_watermark = 0
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  for (uint64_t cmd = 1; cmd <= 50; ++cmd) {
    cluster.Append(1, cmd);
  }
  cluster.TickRounds(3);
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_EQ(cluster.storage(id).compacted_idx(), 0u);
  }
}

TEST(AutoTrim, LeaderTrimsReplicatedPrefixOnTick) {
  OmniCluster cluster(3, /*preferred=*/1, /*trim_watermark=*/4);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    cluster.Append(1, cmd);
  }
  ASSERT_EQ(cluster.node(1).decided_idx(), 10u);
  EXPECT_EQ(cluster.storage(1).compacted_idx(), 0u);  // trims only on ticks
  cluster.Tick();
  // All peers accepted 10, so the leader trims the whole decided prefix; the
  // followers are below the 3x-watermark backstop and keep theirs.
  EXPECT_EQ(cluster.storage(1).compacted_idx(), 10u);
  EXPECT_EQ(cluster.storage(1).log_len(), 10u);  // logical length unchanged
  EXPECT_EQ(cluster.storage(2).compacted_idx(), 0u);
  // Replication continues normally past the local compaction boundary.
  cluster.Append(1, 11);
  EXPECT_EQ(cluster.node(2).decided_idx(), 11u);
  EXPECT_EQ(cluster.storage(1).At(10).cmd_id, 11u);
  // Hysteresis: less than a watermark of new progress does not re-trim.
  cluster.Tick();
  EXPECT_EQ(cluster.storage(1).compacted_idx(), 10u);
}

TEST(AutoTrim, StragglerFloorBoundsRetainedSuffixAndResyncsViaSnapshot) {
  OmniCluster cluster(3, /*preferred=*/1, /*trim_watermark=*/4);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  // Node 3 goes dark with accepted index 0.
  cluster.SetLink(1, 3, false);
  cluster.SetLink(2, 3, false);
  for (uint64_t cmd = 1; cmd <= 20; ++cmd) {
    cluster.Append(1, cmd);
  }
  ASSERT_EQ(cluster.node(1).decided_idx(), 20u);
  cluster.Tick();
  // The straggler floor (decided - 3*wm = 8) keeps the leader from retaining
  // an unbounded suffix for node 3; follower 2 applies the 3*wm backstop.
  EXPECT_EQ(cluster.storage(1).compacted_idx(), 8u);
  EXPECT_EQ(cluster.storage(2).compacted_idx(), 12u);
  EXPECT_EQ(cluster.storage(3).compacted_idx(), 0u);
  // Node 3 reconnects below the leader's boundary: snapshot resync. The
  // snapshot AcceptSync boundary is the leader's *decided* index, so the
  // straggler comes back fully compacted.
  cluster.SetLink(1, 3, true);
  cluster.SetLink(2, 3, true);
  cluster.DeliverAll();
  EXPECT_EQ(cluster.node(3).decided_idx(), 20u);
  EXPECT_EQ(cluster.storage(3).compacted_idx(), 20u);
  // With the straggler caught up the floor advances to the full prefix.
  cluster.TickRounds(2);
  EXPECT_EQ(cluster.storage(1).compacted_idx(), 20u);
  EXPECT_EQ(cluster.storage(3).compacted_idx(), 20u);
  // Safety: everything still decided and addressable above the boundaries.
  cluster.Append(1, 21);
  EXPECT_EQ(cluster.node(3).decided_idx(), 21u);
  EXPECT_EQ(cluster.storage(3).At(20).cmd_id, 21u);
}

// --- Leader-lease local reads --------------------------------------------

TEST(LeaseRead, LeaderServesUntilIsolationExpiresLease) {
  OmniCluster cluster(3, /*preferred=*/1);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  EXPECT_TRUE(cluster.node(1).CanServeLocalReads());
  EXPECT_FALSE(cluster.node(2).CanServeLocalReads());  // followers never serve
  EXPECT_FALSE(cluster.node(3).CanServeLocalReads());
  cluster.Isolate(1);
  // The lease covers lease_rounds (= 1) heartbeat rounds past the last
  // majority round; two silent ticks are guaranteed to exhaust it. The old
  // leader still *claims* leadership — it just must refuse local reads.
  cluster.TickRounds(2);
  EXPECT_TRUE(cluster.node(1).IsLeader());
  EXPECT_FALSE(cluster.node(1).CanServeLocalReads());
  // The connected majority elects a replacement that can serve.
  cluster.TickRounds(4);
  const NodeId replacement = cluster.CurrentLeader();
  ASSERT_NE(replacement, kNoNode);
  EXPECT_NE(replacement, 1);
  EXPECT_TRUE(cluster.node(replacement).CanServeLocalReads());
  EXPECT_FALSE(cluster.node(1).CanServeLocalReads());
  // After healing, exactly one node serves local reads.
  cluster.HealAll();
  cluster.TickRounds(3);
  int serving = 0;
  for (NodeId id = 1; id <= 3; ++id) {
    if (cluster.node(id).CanServeLocalReads()) {
      ++serving;
    }
  }
  EXPECT_EQ(serving, 1);
}

}  // namespace
}  // namespace opx
