// Trace-oracle conformance tests (DESIGN.md §12): temporal properties checked
// against obs traces for all four protocols, under the lockstep harnesses,
// the discrete-event ClusterSim, and replayed chaos-corpus artifacts.
//
// The oracles live in tests/trace_oracle_harness.h; this file drives them:
//   - Sequence Paxos never sends <AcceptDecide> before its Promise quorum;
//   - at most one node claims leadership per epoch key, per protocol;
//   - Raft PreVote+CheckQuorum never disturbs a live leader under the
//     partial partition of scenario 3.1 (leader<->follower link cut);
//   - a leader re-emerges within the paper's ~4-timeout bound after a fault,
//     and the stuck-link corpus mutant *fails* that bound loudly;
//   - attaching a sink to a chaos replay reproduces the recorded fingerprint
//     bit-for-bit (tracing never perturbs the schedule).
//
// Every test skips when the tree is built with OPX_OBS=OFF: the recording
// macros compile to nothing, so there is no trace to check.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "src/multipaxos/multipaxos.h"
#include "src/obs/trace.h"
#include "src/obs/trace_view.h"
#include "src/rsm/chaos.h"
#include "src/rsm/cluster_sim.h"
#include "src/rsm/lockstep_cluster.h"
#include "src/rsm/omni_reconfig_sim.h"
#include "src/vr/vr_replica.h"
#include "tests/lockstep_harness.h"
#include "tests/trace_oracle_harness.h"

namespace opx {
namespace {

using obs::EventKind;
using obs::ObsSink;
using obs::TraceView;
using rsm::OmniCluster;
using testing::ElectionWithin;
using testing::LeaderUndisturbedAfter;
using testing::NoAcceptBeforePromiseQuorum;
using testing::PropertyResult;
using testing::RaftCluster;
using testing::SingleLeaderPerEpoch;

#if defined(OPX_OBS_ENABLED)
#define OPX_REQUIRE_OBS() \
  do {                    \
  } while (false)
#else
#define OPX_REQUIRE_OBS() GTEST_SKIP() << "built with OPX_OBS=OFF; no trace to check"
#endif

// --- Omni-Paxos under the lockstep harness ----------------------------------

TEST(TraceOracleOmni, AcceptDecideRequiresPromiseQuorum) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  OmniCluster cluster(3, /*preferred=*/1, /*trim_watermark=*/0, &sink);
  cluster.TickRounds(10);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  for (uint64_t cmd = 1; cmd <= 20; ++cmd) {
    ASSERT_TRUE(cluster.Append(leader, cmd));
  }
  ASSERT_GT(sink.size(), 0u);
  ASSERT_EQ(sink.dropped(), 0u);  // complete trace: the oracle is fully sensitive

  const TraceView trace = TraceView::FromSink(sink);
  EXPECT_GT(trace.Filter(EventKind::kSpAcceptDecideSent).size(), 0u);
  const PropertyResult order = NoAcceptBeforePromiseQuorum(trace);
  EXPECT_TRUE(order.ok) << order.detail;
  const PropertyResult single = SingleLeaderPerEpoch(trace, testing::OmniLeaderKinds());
  EXPECT_TRUE(single.ok) << single.detail;
}

TEST(TraceOracleOmni, ReElectionAfterLeaderIsolationWithinBound) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  OmniCluster cluster(5, /*preferred=*/1, /*trim_watermark=*/0, &sink);
  cluster.TickRounds(10);
  ASSERT_EQ(cluster.CurrentLeader(), 1);

  const Time cut = 10;  // lockstep time = tick count
  cluster.Isolate(1);
  cluster.TickRounds(30);
  EXPECT_NE(cluster.CurrentLeader(), kNoNode);
  EXPECT_NE(cluster.CurrentLeader(), 1);

  const TraceView trace = TraceView::FromSink(sink);
  // BLE detects the silent leader within one timeout (a few ticks) and the
  // ballot-bump/elect round completes within the paper's ~4-timeout bound.
  // The lockstep election timeout is ~3 heartbeat ticks.
  const PropertyResult within =
      ElectionWithin(trace, cut, /*bound=*/4 * 3, testing::OmniLeaderKinds());
  EXPECT_TRUE(within.ok) << within.detail;
  const PropertyResult single = SingleLeaderPerEpoch(trace, testing::OmniLeaderKinds());
  EXPECT_TRUE(single.ok) << single.detail;
  const PropertyResult order = NoAcceptBeforePromiseQuorum(trace);
  EXPECT_TRUE(order.ok) << order.detail;
}

// --- Raft (plain, and PreVote+CheckQuorum) ----------------------------------

TEST(TraceOracleRaft, TermHasAtMostOneLeaderAcrossCrashTakeover) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  raft::RaftConfig base;
  base.obs = &sink;
  RaftCluster cluster(3, base);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);
  for (uint64_t cmd = 1; cmd <= 10; ++cmd) {
    ASSERT_TRUE(cluster.Append(leader, cmd));
  }

  const Time crash = 30;
  cluster.Crash(leader);
  cluster.TickRounds(40);
  const NodeId new_leader = cluster.CurrentLeader();
  ASSERT_NE(new_leader, kNoNode);
  ASSERT_NE(new_leader, leader);

  const TraceView trace = TraceView::FromSink(sink);
  const PropertyResult single = SingleLeaderPerEpoch(trace, testing::RaftLeaderKinds());
  EXPECT_TRUE(single.ok) << single.detail;
  // Takeover within randomized [election_ticks, 2*election_ticks) plus the
  // vote round — well inside 4 nominal timeouts (4 * 5 ticks).
  const PropertyResult within =
      ElectionWithin(trace, crash, /*bound=*/4 * base.election_ticks,
                     testing::RaftLeaderKinds());
  EXPECT_TRUE(within.ok) << within.detail;
  EXPECT_GT(trace.Filter(EventKind::kRaftCommit).size(), 0u);
}

// Scenario 3.1: the leader loses its link to ONE follower while keeping a
// quorum. Plain Raft lets the deaf follower bump terms and depose the leader;
// with PreVote+CheckQuorum the pre-vote is denied (live-leader lease) and the
// leader is never disturbed. The trace must show zero step-downs and zero
// rival leader claims after the cut.
TEST(TraceOracleRaftPvCq, LiveLeaderUndisturbedByPartialPartition) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  raft::RaftConfig base;
  base.pre_vote = true;
  base.check_quorum = true;
  base.obs = &sink;
  RaftCluster cluster(3, base);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);

  const NodeId follower = leader == 1 ? 2 : 1;
  const Time cut = 30;
  cluster.SetLink(leader, follower, false);
  cluster.TickRounds(100);
  EXPECT_EQ(cluster.CurrentLeader(), leader);

  const TraceView trace = TraceView::FromSink(sink);
  const PropertyResult undisturbed = LeaderUndisturbedAfter(
      trace, cut, leader, testing::RaftLeaderKinds(), {EventKind::kRaftStepDown});
  EXPECT_TRUE(undisturbed.ok) << undisturbed.detail;
  const PropertyResult single = SingleLeaderPerEpoch(trace, testing::RaftLeaderKinds());
  EXPECT_TRUE(single.ok) << single.detail;
}

// Contrast: plain Raft in the same topology IS disturbed (the deaf follower's
// term bump deposes the leader) — the oracle must catch the step-down. This
// pins the property's sensitivity: if LeaderUndisturbedAfter ever goes blind,
// this test fails first.
TEST(TraceOracleRaftPlain, PartialPartitionDisturbsLeaderWithoutPvCq) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  raft::RaftConfig base;
  base.obs = &sink;
  RaftCluster cluster(3, base);
  cluster.TickRounds(30);
  const NodeId leader = cluster.CurrentLeader();
  ASSERT_NE(leader, kNoNode);

  const NodeId follower = leader == 1 ? 2 : 1;
  const Time cut = 30;
  cluster.SetLink(leader, follower, false);
  cluster.TickRounds(100);

  const TraceView trace = TraceView::FromSink(sink);
  const PropertyResult undisturbed = LeaderUndisturbedAfter(
      trace, cut, leader, testing::RaftLeaderKinds(), {EventKind::kRaftStepDown});
  EXPECT_FALSE(undisturbed.ok)
      << "plain Raft should have been disturbed by the deaf follower";
}

// --- Multi-Paxos ------------------------------------------------------------

TEST(TraceOracleMpx, BallotHasAtMostOneLeaderAcrossTakeover) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  testing::MpxCluster cluster(3, /*seed_base=*/100, &sink);
  cluster.TickRounds(30);

  NodeId leader = kNoNode;
  for (NodeId id = 1; id <= 3; ++id) {
    if (cluster.node(id).IsLeader()) {
      leader = id;
    }
  }
  ASSERT_NE(leader, kNoNode);
  const Time crash = 30;
  cluster.Crash(leader);
  cluster.TickRounds(40);

  const TraceView trace = TraceView::FromSink(sink);
  EXPECT_GT(trace.Filter(EventKind::kMpxLeader).size(), 1u);
  const PropertyResult single = SingleLeaderPerEpoch(trace, testing::MpxLeaderKinds());
  EXPECT_TRUE(single.ok) << single.detail;
  const PropertyResult within = ElectionWithin(
      trace, crash, /*bound=*/40, testing::MpxLeaderKinds());
  EXPECT_TRUE(within.ok) << within.detail;
}

// --- VR ---------------------------------------------------------------------

TEST(TraceOracleVr, ViewHasAtMostOneLeaderAcrossViewChange) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  testing::VrCluster cluster(3, /*seed_base=*/300, &sink);
  cluster.TickRounds(3);
  ASSERT_TRUE(cluster.node(1).IsLeader());

  cluster.Crash(1);  // view 1's primary is node 2 (round-robin)
  cluster.TickRounds(30);
  ASSERT_TRUE(cluster.node(2).IsLeader());

  const TraceView trace = TraceView::FromSink(sink);
  EXPECT_GT(trace.Filter(EventKind::kVrViewChangeStart).size(), 0u);
  EXPECT_GT(trace.Filter(EventKind::kVrLeader, 2).size(), 0u);
  const PropertyResult single = SingleLeaderPerEpoch(trace, testing::VrLeaderKinds());
  EXPECT_TRUE(single.ok) << single.detail;
}

// --- ClusterSim: the ns-resolution 4-timeout recovery bound -----------------

TEST(TraceOracleCluster, OmniElectsWithinFourTimeoutsOfLeaderIsolation) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  rsm::ClusterParams params;
  params.num_servers = 5;
  params.election_timeout = Millis(50);
  params.concurrent_proposals = 100;
  params.proposal_rate = 20'000;
  params.preferred_leader = 1;
  params.obs = &sink;
  rsm::ClusterSim<rsm::OmniNode> sim(params);
  sim.RunUntil(Seconds(2));
  ASSERT_EQ(sim.CurrentLeader(), 1);

  const Time cut = sim.simulator().Now();
  sim.network().Isolate(1);
  sim.RunUntil(cut + Seconds(2));
  EXPECT_NE(sim.CurrentLeader(), kNoNode);
  EXPECT_NE(sim.CurrentLeader(), 1);

  const TraceView trace = TraceView::FromSink(sink);
  // Fault detection plus one ballot round: the paper's ~4-timeout bound.
  const PropertyResult within = ElectionWithin(trace, cut, 4 * params.election_timeout,
                                               testing::OmniLeaderKinds());
  EXPECT_TRUE(within.ok) << within.detail;
  // Link events from the isolation must be in the trace, stamped with sim time.
  EXPECT_GE(trace.Filter(EventKind::kLinkDown).size(), 4u);
  const PropertyResult order = NoAcceptBeforePromiseQuorum(trace);
  EXPECT_TRUE(order.ok) << order.detail;
}

// --- Compaction + lease reads: snapshot-safety and read-your-writes ---------

TEST(TraceOracleOmni, AutoTrimAndSnapshotResyncUpholdSnapshotSafety) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  OmniCluster cluster(3, /*preferred=*/1, /*trim_watermark=*/4, &sink);
  cluster.TickRounds(3);
  ASSERT_EQ(cluster.CurrentLeader(), 1);
  // A straggler that reconnects below the leader's compaction boundary
  // exercises every event the oracle constrains: decides, auto-trims on both
  // leader and followers, and a snapshot install.
  cluster.SetLink(1, 3, false);
  cluster.SetLink(2, 3, false);
  for (uint64_t cmd = 1; cmd <= 20; ++cmd) {
    cluster.Append(1, cmd);
    if (cmd % 5 == 0) {
      cluster.Tick();
    }
  }
  cluster.SetLink(1, 3, true);
  cluster.SetLink(2, 3, true);
  cluster.DeliverAll();
  cluster.TickRounds(3);
  ASSERT_EQ(sink.dropped(), 0u);

  const TraceView trace = TraceView::FromSink(sink);
  EXPECT_GT(trace.Filter(EventKind::kSpTrim).size(), 0u);
  EXPECT_GT(trace.Filter(EventKind::kSpSnapshotInstall).size(), 0u);
  const PropertyResult snap = testing::SnapshotSafety(trace);
  EXPECT_TRUE(snap.ok) << snap.detail;
  const PropertyResult order = NoAcceptBeforePromiseQuorum(trace);
  EXPECT_TRUE(order.ok) << order.detail;
}

TEST(TraceOracleCluster, LeaseReadsUnderCompactionUpholdReadYourWrites) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  rsm::ClusterParams params;
  params.num_servers = 3;
  params.election_timeout = Millis(50);
  params.concurrent_proposals = 50;
  params.proposal_rate = 20'000;
  params.preferred_leader = 1;
  params.read_fraction = 0.3;
  params.trim_watermark = 64;
  params.obs = &sink;
  rsm::ClusterSim<rsm::OmniNode> sim(params);
  sim.RunUntil(Seconds(3));

  // The client mixed lease reads into the write stream and every served read
  // observed its own writes.
  EXPECT_GT(sim.client().reads_completed(), 0u);
  EXPECT_EQ(sim.client().ryw_violations(), 0u);
  const obs::Counter* served = sink.metrics().FindCounter("cluster/lease_reads");
  ASSERT_NE(served, nullptr);
  EXPECT_GT(served->value(), 0u);

  const TraceView trace = TraceView::FromSink(sink);
  EXPECT_GT(trace.Filter(EventKind::kSpTrim).size(), 0u);
  EXPECT_GT(trace.Filter(EventKind::kLeaseRead).size(), 0u);
  const PropertyResult snap = testing::SnapshotSafety(trace);
  EXPECT_TRUE(snap.ok) << snap.detail;
  const PropertyResult ryw = testing::ReadYourWrites(trace);
  EXPECT_TRUE(ryw.ok) << ryw.detail;
}

// --- Reconfiguration: stop-sign before migration, migration completes -------

TEST(TraceOracleReconfig, StopSignPrecedesMigrationSegments) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  rsm::ReconfigParams p;
  p.replace_count = 1;
  p.preload_entries = 50'000;
  p.concurrent_proposals = 500;
  p.warmup = Seconds(5);
  p.run_after = Seconds(25);
  p.egress_bytes_per_sec = 4e6;
  p.migration_chunk = 10'000;
  p.obs = &sink;
  rsm::OmniReconfigSim sim(p);
  const rsm::ReconfigResult r = sim.Run();
  ASSERT_GT(r.migration_done_at, 0);

  const TraceView trace = TraceView::FromSink(sink);
  const TraceView stop = trace.Filter(EventKind::kReconfigStopSign);
  const TraceView segments = trace.Filter(EventKind::kMigSegment);
  const TraceView done = trace.Filter(EventKind::kMigDone);
  ASSERT_GT(stop.size(), 0u);
  ASSERT_GT(segments.size(), 0u);
  ASSERT_GT(done.size(), 0u);
  // No segment lands before the first stop-sign decide, and the migration
  // completes after its last segment.
  EXPECT_LE(stop[0].at, segments[0].at);
  EXPECT_LE(segments[segments.size() - 1].at, done[done.size() - 1].at);
  // The per-segment metric agrees with the trace.
  const obs::Counter* seg_entries =
      sink.metrics().FindCounter("migration/segment_entries");
  ASSERT_NE(seg_entries, nullptr);
  EXPECT_GT(seg_entries->value(), 0u);
}

// --- Chaos-corpus replays, one per protocol family --------------------------

std::string CorpusDir() { return std::string(OPX_SOURCE_DIR) + "/tests/chaos_corpus"; }

rsm::ChaosArtifact LoadArtifact(const std::string& name) {
  const std::string path = CorpusDir() + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing corpus artifact " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::optional<rsm::ChaosArtifact> art = rsm::ChaosArtifact::Parse(buf.str());
  EXPECT_TRUE(art.has_value()) << "malformed corpus artifact " << path;
  return *art;
}

// Replays `name` with a sink attached; asserts the fingerprint still matches
// (tracing never perturbs the schedule) and returns the trace.
TraceView ReplayTraced(const std::string& name, ObsSink* sink) {
  rsm::ChaosArtifact art = LoadArtifact(name);
  art.config.obs = sink;
  const rsm::ChaosReplayResult r = rsm::ReplayChaosArtifact(art);
  EXPECT_EQ(r.outcome.violated, art.violated) << r.outcome.detail;
  EXPECT_TRUE(r.matches) << "tracing perturbed the replay of " << name
                         << ": recorded " << art.fingerprint << ", got "
                         << r.outcome.fingerprint;
  EXPECT_GT(sink->size(), 0u);
  return TraceView::FromSink(*sink);
}

TEST(TraceOracleCorpus, OmniReplayUpholdsOracles) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  const TraceView trace = ReplayTraced("chaos-omni-seed104.chaos", &sink);
  const PropertyResult order = NoAcceptBeforePromiseQuorum(trace);
  EXPECT_TRUE(order.ok) << order.detail;
  const PropertyResult single = SingleLeaderPerEpoch(trace, testing::OmniLeaderKinds());
  EXPECT_TRUE(single.ok) << single.detail;
  // Vacuously true on a trim-free artifact, but keeps the oracle running
  // over every corpus replay.
  const PropertyResult snap = testing::SnapshotSafety(trace);
  EXPECT_TRUE(snap.ok) << snap.detail;
  const PropertyResult ryw = testing::ReadYourWrites(trace);
  EXPECT_TRUE(ryw.ok) << ryw.detail;
}

TEST(TraceOracleCorpus, OmniTrimCrashReplayUpholdsSnapshotAndReadOracles) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  const TraceView trace =
      ReplayTraced("chaos-omni-trim-crash-seed4247.chaos", &sink);
  // The schedule trims (explicit faults + watermark-8 auto-trim), crashes
  // servers into trimmed-log recoveries, and serves lease reads throughout —
  // both new oracles must hold over the whole interleaving.
  EXPECT_GT(trace.Filter(EventKind::kSpTrim).size(), 0u);
  EXPECT_GT(trace.Filter(EventKind::kLeaseRead).size(), 0u);
  const PropertyResult snap = testing::SnapshotSafety(trace);
  EXPECT_TRUE(snap.ok) << snap.detail;
  const PropertyResult ryw = testing::ReadYourWrites(trace);
  EXPECT_TRUE(ryw.ok) << ryw.detail;
  const PropertyResult order = NoAcceptBeforePromiseQuorum(trace);
  EXPECT_TRUE(order.ok) << order.detail;
}

TEST(TraceOracleCorpus, RaftReplayUpholdsOracles) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  const TraceView trace = ReplayTraced("chaos-raft-seed300.chaos", &sink);
  const PropertyResult single = SingleLeaderPerEpoch(trace, testing::RaftLeaderKinds());
  EXPECT_TRUE(single.ok) << single.detail;
}

TEST(TraceOracleCorpus, MultiPaxosReplayUpholdsOracles) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  const TraceView trace = ReplayTraced("chaos-multipaxos-seed800.chaos", &sink);
  const PropertyResult single = SingleLeaderPerEpoch(trace, testing::MpxLeaderKinds());
  EXPECT_TRUE(single.ok) << single.detail;
}

TEST(TraceOracleCorpus, VrReplayUpholdsOracles) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  const TraceView trace = ReplayTraced("chaos-vr-seed500.chaos", &sink);
  const PropertyResult single = SingleLeaderPerEpoch(trace, testing::VrLeaderKinds());
  EXPECT_TRUE(single.ok) << single.detail;
}

// The stuck-link mutant denies every node a quorum after the horizon forever,
// so the 4-timeout recovery oracle must FAIL — loudly, with a counterexample
// naming the window. (The initial election before the horizon still passes.)
TEST(TraceOracleCorpus, StuckLinkMutantFlunksElectionBound) {
  OPX_REQUIRE_OBS();
  ObsSink sink;
  rsm::ChaosArtifact art = LoadArtifact("chaos-omni-mutant-stuck-link.chaos");
  art.config.obs = &sink;
  const rsm::ChaosReplayResult r = rsm::ReplayChaosArtifact(art);
  EXPECT_EQ(r.outcome.violated, art.violated) << r.outcome.detail;
  EXPECT_TRUE(r.matches);

  const TraceView trace = TraceView::FromSink(sink);
  const Time horizon = art.config.plan.horizon;
  // Positive control: the cluster was deciding right up to the horizon (the
  // ring retains the tail of the run, so early leader events are gone but
  // pre-cut decides are not).
  const TraceView decides = trace.Filter(EventKind::kSpDecide);
  ASSERT_FALSE(decides.empty());
  EXPECT_LE(decides[0].at, horizon);
  // The bound after the (never-happening) heal must be violated.
  const PropertyResult after = ElectionWithin(
      trace, horizon, 4 * art.config.election_timeout, testing::OmniLeaderKinds());
  EXPECT_FALSE(after.ok)
      << "stuck-link mutant unexpectedly satisfied the recovery bound";
  EXPECT_FALSE(after.detail.empty());
}

}  // namespace
}  // namespace opx
