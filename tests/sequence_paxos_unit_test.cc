// Message-level unit tests for SequencePaxos: drive a single instance with
// hand-crafted messages and assert exact protocol reactions (promise rules,
// adoption, stale-round filtering, duplicate/gap handling, recovery gating).
#include <gtest/gtest.h>

#include "src/omnipaxos/sequence_paxos.h"

namespace opx {
namespace {

using omni::AcceptDecide;
using omni::Accepted;
using omni::AcceptSync;
using omni::Ballot;
using omni::Decide;
using omni::Entry;
using omni::PaxosMessage;
using omni::PaxosOut;
using omni::Prepare;
using omni::PrepareReq;
using omni::Promise;
using omni::SequencePaxos;
using omni::SequencePaxosConfig;
using omni::Storage;

SequencePaxosConfig Config3(NodeId pid) {
  SequencePaxosConfig cfg;
  cfg.pid = pid;
  for (NodeId p = 1; p <= 3; ++p) {
    if (p != pid) {
      cfg.peers.push_back(p);
    }
  }
  return cfg;
}

template <typename T>
std::vector<T> TakeOfType(SequencePaxos& sp, NodeId* to = nullptr) {
  std::vector<T> found;
  for (PaxosOut& out : sp.TakeOutgoing()) {
    if (auto* m = std::get_if<T>(&out.body)) {
      if (to != nullptr) {
        *to = out.to;
      }
      found.push_back(std::move(*m));
    }
  }
  return found;
}

// Elects `sp` (pid 1) as leader of round n with a promise from server 2.
Ballot MakeLeader(SequencePaxos& sp, uint64_t n = 1) {
  const Ballot b{n, 0, 1};
  sp.HandleLeader(b);
  (void)sp.TakeOutgoing();
  Promise pr;
  pr.n = b;
  sp.Handle(2, pr);
  (void)sp.TakeOutgoing();
  EXPECT_TRUE(sp.IsLeader());
  return b;
}

TEST(SpUnit, BecomeLeaderBroadcastsPrepare) {
  Storage storage;
  SequencePaxos sp(Config3(1), &storage);
  sp.HandleLeader(Ballot{1, 0, 1});
  const auto prepares = TakeOfType<Prepare>(sp);
  EXPECT_EQ(prepares.size(), 2u);  // one per peer
}

TEST(SpUnit, LeaderEventForPeerDoesNotPrepare) {
  Storage storage;
  SequencePaxos sp(Config3(1), &storage);
  sp.HandleLeader(Ballot{1, 0, 2});  // someone else elected
  EXPECT_TRUE(sp.TakeOutgoing().empty());
  EXPECT_FALSE(sp.IsLeader());
  EXPECT_EQ(sp.leader_hint(), 2);
}

TEST(SpUnit, StaleLeaderEventIgnored) {
  Storage storage;
  SequencePaxos sp(Config3(1), &storage);
  MakeLeader(sp, 5);
  sp.HandleLeader(Ballot{3, 0, 1});  // lower than current
  EXPECT_TRUE(sp.IsLeader());
  EXPECT_TRUE(sp.TakeOutgoing().empty());
}

TEST(SpUnit, FollowerPromisesOnlyHigherRounds) {
  Storage storage;
  SequencePaxos sp(Config3(2), &storage);
  sp.Handle(1, Prepare{Ballot{5, 0, 1}, Ballot{}, 0, 0});
  EXPECT_EQ(TakeOfType<Promise>(sp).size(), 1u);
  // A lower-round Prepare is silently ignored — no NACK gossip (§2c).
  sp.Handle(3, Prepare{Ballot{2, 0, 3}, Ballot{}, 0, 0});
  EXPECT_TRUE(sp.TakeOutgoing().empty());
}

TEST(SpUnit, PromiseCarriesSuffixWhenFollowerMoreUpdated) {
  Storage storage;
  storage.Append(Entry::Command(1, 8));
  storage.Append(Entry::Command(2, 8));
  storage.set_accepted_round(Ballot{3, 0, 3});
  storage.set_promised_round(Ballot{3, 0, 3});
  storage.set_decided_idx(1);
  SequencePaxos sp(Config3(2), &storage);
  // New leader with lower accepted round and decided_idx 0.
  sp.Handle(1, Prepare{Ballot{5, 0, 1}, Ballot{1, 0, 1}, 0, 0});
  const auto promises = TakeOfType<Promise>(sp);
  ASSERT_EQ(promises.size(), 1u);
  // Suffix from the leader's decided index (0): the full log.
  EXPECT_EQ(promises[0].suffix.size(), 2u);
  EXPECT_EQ(promises[0].acc_rnd, (Ballot{3, 0, 3}));
}

TEST(SpUnit, PromiseEmptyWhenLeaderMoreUpdated) {
  Storage storage;
  SequencePaxos sp(Config3(2), &storage);
  sp.Handle(1, Prepare{Ballot{5, 0, 1}, Ballot{4, 0, 1}, 10, 8});
  const auto promises = TakeOfType<Promise>(sp);
  ASSERT_EQ(promises.size(), 1u);
  EXPECT_TRUE(promises[0].suffix.empty());
}

TEST(SpUnit, LeaderAdoptsMostUpdatedPromise) {
  Storage storage;
  SequencePaxos sp(Config3(1), &storage);
  sp.HandleLeader(Ballot{5, 0, 1});
  (void)sp.TakeOutgoing();
  // Server 2 promises with a more updated log (higher acc_rnd + suffix).
  Promise pr;
  pr.n = Ballot{5, 0, 1};
  pr.acc_rnd = Ballot{4, 0, 2};
  pr.log_idx = 3;
  pr.decided_idx = 2;
  pr.suffix = {Entry::Command(10, 8), Entry::Command(11, 8), Entry::Command(12, 8)};
  sp.Handle(2, pr);
  EXPECT_TRUE(sp.IsLeader());
  EXPECT_EQ(sp.log_len(), 3u);
  EXPECT_EQ(sp.storage().At(0).cmd_id, 10u);
  // Max decided among promises is adopted.
  EXPECT_EQ(sp.decided_idx(), 2u);
  // The promised follower receives an AcceptSync.
  NodeId to = kNoNode;
  const auto syncs = TakeOfType<AcceptSync>(sp, &to);
  ASSERT_EQ(syncs.size(), 1u);
  EXPECT_EQ(to, 2);
}

TEST(SpUnit, LatePromiseGetsAcceptSync) {
  Storage storage;
  SequencePaxos sp(Config3(1), &storage);
  const Ballot b = MakeLeader(sp);
  sp.Append(Entry::Command(1, 8));
  (void)sp.TakeOutgoing();
  // Server 3 promises late (straggler, §4.1.2).
  Promise late;
  late.n = b;
  sp.Handle(3, late);
  NodeId to = kNoNode;
  const auto syncs = TakeOfType<AcceptSync>(sp, &to);
  ASSERT_EQ(syncs.size(), 1u);
  EXPECT_EQ(to, 3);
  EXPECT_EQ(syncs[0].suffix.size(), 1u);
}

TEST(SpUnit, AcceptDecideDuplicateIsIdempotent) {
  Storage storage;
  SequencePaxos sp(Config3(2), &storage);
  sp.Handle(1, Prepare{Ballot{1, 0, 1}, Ballot{}, 0, 0});
  (void)sp.TakeOutgoing();
  AcceptSync sync;
  sync.n = Ballot{1, 0, 1};
  sp.Handle(1, sync);
  (void)sp.TakeOutgoing();
  AcceptDecide ad;
  ad.n = Ballot{1, 0, 1};
  ad.start_idx = 0;
  ad.entries = {Entry::Command(1, 8), Entry::Command(2, 8)};
  sp.Handle(1, ad);
  (void)sp.TakeOutgoing();
  EXPECT_EQ(sp.log_len(), 2u);
  sp.Handle(1, ad);  // duplicate resend
  (void)sp.TakeOutgoing();
  EXPECT_EQ(sp.log_len(), 2u);
  // Overlapping resend: only the unseen tail is appended.
  ad.entries = {Entry::Command(1, 8), Entry::Command(2, 8), Entry::Command(3, 8)};
  sp.Handle(1, ad);
  (void)sp.TakeOutgoing();
  EXPECT_EQ(sp.log_len(), 3u);
  EXPECT_EQ(sp.storage().At(2).cmd_id, 3u);
}

TEST(SpUnit, AcceptDecideWithGapTriggersResync) {
  Storage storage;
  SequencePaxos sp(Config3(2), &storage);
  sp.Handle(1, Prepare{Ballot{1, 0, 1}, Ballot{}, 0, 0});
  (void)sp.TakeOutgoing();
  AcceptSync sync;
  sync.n = Ballot{1, 0, 1};
  sp.Handle(1, sync);
  (void)sp.TakeOutgoing();
  AcceptDecide gap;
  gap.n = Ballot{1, 0, 1};
  gap.start_idx = 5;  // entries 0..4 were lost to a link cut
  gap.entries = {Entry::Command(6, 8)};
  sp.Handle(1, gap);
  EXPECT_EQ(sp.log_len(), 0u);  // nothing appended past a gap
  const auto reqs = TakeOfType<PrepareReq>(sp);
  EXPECT_EQ(reqs.size(), 1u);  // asks the leader to resynchronize
}

TEST(SpUnit, StaleRoundMessagesIgnored) {
  Storage storage;
  SequencePaxos sp(Config3(2), &storage);
  sp.Handle(1, Prepare{Ballot{5, 0, 1}, Ballot{}, 0, 0});
  (void)sp.TakeOutgoing();
  AcceptSync sync;
  sync.n = Ballot{5, 0, 1};
  sp.Handle(1, sync);
  (void)sp.TakeOutgoing();
  // Old leader's traffic at a lower round: all dropped.
  AcceptDecide stale;
  stale.n = Ballot{3, 0, 3};
  stale.start_idx = 0;
  stale.entries = {Entry::Command(99, 8)};
  sp.Handle(3, stale);
  sp.Handle(3, Decide{Ballot{3, 0, 3}, 1});
  (void)sp.TakeOutgoing();
  EXPECT_EQ(sp.log_len(), 0u);
  EXPECT_EQ(sp.decided_idx(), 0u);
}

TEST(SpUnit, DecideClampedToLogLength) {
  Storage storage;
  SequencePaxos sp(Config3(2), &storage);
  sp.Handle(1, Prepare{Ballot{1, 0, 1}, Ballot{}, 0, 0});
  (void)sp.TakeOutgoing();
  AcceptSync sync;
  sync.n = Ballot{1, 0, 1};
  sync.suffix = {Entry::Command(1, 8)};
  sp.Handle(1, sync);
  (void)sp.TakeOutgoing();
  sp.Handle(1, Decide{Ballot{1, 0, 1}, 100});  // beyond our log
  EXPECT_EQ(sp.decided_idx(), 1u);
}

TEST(SpUnit, PrepareReqOnlyAnsweredByLeader) {
  Storage storage;
  SequencePaxos sp(Config3(1), &storage);
  sp.Handle(3, PrepareReq{});
  EXPECT_TRUE(sp.TakeOutgoing().empty());  // not leader: silent
  MakeLeader(sp);
  sp.Handle(3, PrepareReq{});
  EXPECT_EQ(TakeOfType<Prepare>(sp).size(), 1u);
}

TEST(SpUnit, BatchLimitThrottlesProposals) {
  Storage storage;
  SequencePaxosConfig cfg = Config3(1);
  cfg.batch_limit = 2;
  SequencePaxos sp(cfg, &storage);
  MakeLeader(sp);
  for (uint64_t cmd = 1; cmd <= 5; ++cmd) {
    sp.Append(Entry::Command(cmd, 8));
  }
  (void)sp.TakeOutgoing();
  EXPECT_EQ(sp.log_len(), 2u);  // one flush, batch_limit entries
  (void)sp.TakeOutgoing();
  EXPECT_EQ(sp.log_len(), 4u);
  (void)sp.TakeOutgoing();
  EXPECT_EQ(sp.log_len(), 5u);
}

TEST(SpUnit, TakeUnproposedDrainsQueue) {
  Storage storage;
  SequencePaxos sp(Config3(2), &storage);  // follower with unknown leader
  sp.Append(Entry::Command(1, 8));
  sp.Append(Entry::Command(2, 8));
  (void)sp.TakeOutgoing();  // no leader known: stays queued
  const auto unproposed = sp.TakeUnproposed();
  EXPECT_EQ(unproposed.size(), 2u);
  EXPECT_TRUE(sp.TakeUnproposed().empty());
}

TEST(SpUnit, FollowerForwardsProposalsOnceLeaderKnown) {
  Storage storage;
  SequencePaxos sp(Config3(2), &storage);
  sp.HandleLeader(Ballot{1, 0, 1});  // learn the leader from BLE
  sp.Append(Entry::Command(7, 8));
  NodeId to = kNoNode;
  const auto forwards = TakeOfType<omni::ProposalForward>(sp, &to);
  ASSERT_EQ(forwards.size(), 1u);
  EXPECT_EQ(to, 1);
  EXPECT_EQ(forwards[0].entries[0].cmd_id, 7u);
}

TEST(SpUnit, RecoverIgnoresEverythingButPrepare) {
  Storage storage;
  storage.Append(Entry::Command(1, 8));
  storage.set_decided_idx(1);
  SequencePaxos sp(Config3(2), &storage, /*recovered=*/true);
  const auto reqs = TakeOfType<PrepareReq>(sp);
  EXPECT_EQ(reqs.size(), 2u);  // PrepareReq to all peers
  AcceptDecide ad;
  ad.n = Ballot{1, 0, 1};
  ad.start_idx = 1;
  ad.entries = {Entry::Command(2, 8)};
  sp.Handle(1, ad);
  EXPECT_EQ(sp.log_len(), 1u);  // dropped while recovering
  // A Prepare re-enters the protocol.
  sp.Handle(1, Prepare{Ballot{2, 0, 1}, Ballot{}, 0, 0});
  EXPECT_EQ(TakeOfType<Promise>(sp).size(), 1u);
  EXPECT_EQ(sp.phase(), omni::Phase::kPrepare);
}

TEST(SpUnit, ReconnectedFollowerAsksLeaderToResync) {
  Storage storage;
  SequencePaxos sp(Config3(2), &storage);
  sp.HandleLeader(Ballot{1, 0, 1});
  (void)sp.TakeOutgoing();
  sp.Reconnected(1);  // session to the leader came back
  EXPECT_EQ(TakeOfType<PrepareReq>(sp).size(), 1u);
  sp.Reconnected(3);  // another follower: nothing to do
  EXPECT_TRUE(sp.TakeOutgoing().empty());
}

TEST(SpUnit, ReconnectedLeaderReSyncsThePeer) {
  Storage storage;
  SequencePaxos sp(Config3(1), &storage);
  MakeLeader(sp);
  sp.Reconnected(3);
  EXPECT_EQ(TakeOfType<Prepare>(sp).size(), 1u);
}

// --- The leader counts itself only once durable ----------------------------

// Storage whose "unsynced mutations" flag the test sets, standing in for a
// WAL between a mutation and its group commit.
struct PendingStorage : Storage {
  bool pending = false;
  bool HasPending() const override { return pending; }
};

// Makes `sp` (pid 1) leader with both followers promised, then proposes one
// entry while the storage reports it pending; returns the round.
Ballot ProposeWhilePending(SequencePaxos& sp, PendingStorage& storage) {
  const Ballot b = MakeLeader(sp);
  Promise late;
  late.n = b;
  sp.Handle(3, late);
  (void)sp.TakeOutgoing();
  storage.pending = true;
  sp.Append(Entry::Command(7, 8));
  NodeId to = kNoNode;
  EXPECT_EQ(TakeOfType<AcceptDecide>(sp, &to).size(), 2u);  // sent before the commit
  return b;
}

TEST(SpUnit, PendingLeaderNeedsOnDurableToDecideWithOneFollower) {
  PendingStorage storage;
  SequencePaxos sp(Config3(1), &storage);
  const Ballot b = ProposeWhilePending(sp, storage);
  sp.Handle(2, Accepted{b, 1});
  EXPECT_EQ(sp.decided_idx(), 0u) << "one follower plus a leader that is not durable";
  sp.OnDurable();  // the commit has not landed yet: still nothing
  EXPECT_EQ(sp.decided_idx(), 0u);

  storage.pending = false;
  sp.OnDurable();
  EXPECT_EQ(sp.decided_idx(), 1u);
  const auto decides = TakeOfType<Decide>(sp);
  ASSERT_EQ(decides.size(), 2u);
  EXPECT_EQ(decides[0].decided_idx, 1u);
}

TEST(SpUnit, TwoFollowersDecideWithoutThePendingLeader) {
  PendingStorage storage;
  SequencePaxos sp(Config3(1), &storage);
  const Ballot b = ProposeWhilePending(sp, storage);
  sp.Handle(2, Accepted{b, 1});
  sp.Handle(3, Accepted{b, 1});
  EXPECT_EQ(sp.decided_idx(), 1u) << "two durable followers are a majority";
}

TEST(SpUnit, PendingLeaderCountsItsAdoptedLogOnlyOnceDurable) {
  PendingStorage storage;
  storage.pending = true;
  SequencePaxos sp(Config3(1), &storage);
  const Ballot b{5, 0, 1};
  sp.HandleLeader(b);
  (void)sp.TakeOutgoing();
  Promise pr;
  pr.n = b;
  pr.acc_rnd = Ballot{4, 0, 2};
  pr.log_idx = 2;
  pr.suffix = {Entry::Command(10, 8), Entry::Command(11, 8)};
  sp.Handle(2, pr);  // adopts server 2's log in round b
  ASSERT_TRUE(sp.IsLeader());
  ASSERT_EQ(sp.log_len(), 2u);
  ASSERT_EQ(TakeOfType<AcceptSync>(sp).size(), 1u);
  sp.Handle(2, Accepted{b, 2});
  EXPECT_EQ(sp.decided_idx(), 0u) << "the adoption in round b is not durable on the leader";
  storage.pending = false;
  sp.OnDurable();
  EXPECT_EQ(sp.decided_idx(), 2u);
}

TEST(SpUnit, PendingSingleServerDecidesOnlyAfterOnDurable) {
  PendingStorage storage;
  storage.pending = true;
  SequencePaxosConfig cfg;
  cfg.pid = 1;
  SequencePaxos sp(cfg, &storage);
  sp.HandleLeader(Ballot{1, 0, 1});  // its own promise is a majority
  ASSERT_TRUE(sp.IsLeader());
  sp.Append(Entry::Command(7, 8));
  (void)sp.TakeOutgoing();
  EXPECT_EQ(sp.log_len(), 1u);
  EXPECT_EQ(sp.decided_idx(), 0u);
  storage.pending = false;
  sp.OnDurable();
  EXPECT_EQ(sp.decided_idx(), 1u);
}

}  // namespace
}  // namespace opx
