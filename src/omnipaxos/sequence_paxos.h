// Sequence Paxos — the log replication component of Omni-Paxos (§4).
//
// A pure, pull-based state machine: the owner delivers inputs through
// HandleLeader() / Handle() / Append() / Reconnected() and collects outputs
// with TakeOutgoing(). No timers, threads, or wall-clock reads; leader changes
// come exclusively from Ballot Leader Election through HandleLeader().
//
// The protocol replicates a gap-free log satisfying the Sequence Consensus
// properties SC1–SC3. A round has a Prepare phase (log synchronization: the
// possibly-lagging new leader adopts the most updated log among a majority)
// and an Accept phase (FIFO pipelined replication). Recovery and link-session
// drops re-enter synchronization via <PrepareReq> (§4.1.3).
#ifndef SRC_OMNIPAXOS_SEQUENCE_PAXOS_H_
#define SRC_OMNIPAXOS_SEQUENCE_PAXOS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/obs/trace.h"
#include "src/omnipaxos/ballot.h"
#include "src/omnipaxos/entry.h"
#include "src/omnipaxos/messages.h"
#include "src/omnipaxos/storage.h"
#include "src/util/quorum.h"
#include "src/util/types.h"

namespace opx::omni {

enum class Role { kFollower, kLeader };

enum class Phase {
  kNone,     // follower, not yet promised in any round
  kPrepare,  // leader: collecting promises; follower: promised, awaiting AcceptSync
  kAccept,   // steady-state replication
  kRecover,  // after a crash, until a Prepare or leader event arrives (§4.1.3)
};

struct SequencePaxosConfig {
  NodeId pid = kNoNode;
  std::vector<NodeId> peers;  // all other servers of this configuration
  ConfigId config_id = 0;
  // Leader-side cap on entries moved from the proposal queue into the log per
  // TakeOutgoing() flush; models finite leader processing capacity. 0 = none.
  size_t batch_limit = 0;
  // Compaction watermark in entries; 0 disables automatic trimming. When the
  // trimmable prefix (what every tracked server has accepted, on a leader; the
  // decided prefix minus a resync tail, on a follower) grows past the
  // watermark, MaybeAutoTrim() compacts it. Peers that fall more than three
  // watermarks behind stop holding the floor and catch up via snapshot.
  size_t trim_watermark = 0;
  // Optional trace/metrics sink (DESIGN.md §12); nullptr records nothing.
  obs::ObsSink* obs = nullptr;
};

class SequencePaxos {
 public:
  // `storage` must outlive this instance. `recovered` restarts a server from
  // persistent state after a crash: it enters the Recover phase and solicits
  // the current leader with <PrepareReq> (§4.1.3).
  SequencePaxos(SequencePaxosConfig config, Storage* storage, bool recovered = false);

  SequencePaxos(const SequencePaxos&) = delete;
  SequencePaxos& operator=(const SequencePaxos&) = delete;

  // --- Inputs -------------------------------------------------------------

  // Leader event from BLE: ballot `b` is elected. If b.pid is this server and
  // b exceeds the promised round, this server starts the Prepare phase.
  void HandleLeader(const Ballot& b);

  // Delivers one protocol message from `from`.
  void Handle(NodeId from, PaxosMessage msg);

  // The link to `peer` was re-established after a session drop.
  void Reconnected(NodeId peer);

  // Client proposal submitted at this server. Leaders queue it for
  // replication; followers forward it to the leader on the next flush.
  // Returns false (rejecting the proposal) if this configuration is stopped.
  bool Append(Entry entry);

  // The storage's pending mutations became durable (a group commit). A
  // leader counts its own acceptance of its log toward a majority only from
  // here on, which may decide entries. No-op while the storage still reports
  // pending mutations; in-memory storage never does, so its owners never
  // need to call this.
  void OnDurable();

  // --- Outputs ------------------------------------------------------------

  // Flushes queued proposals into the log (leader) and returns all pending
  // outgoing messages. Call after every Handle()/Append() batch.
  std::vector<PaxosOut> TakeOutgoing();

  // --- Observers ----------------------------------------------------------

  NodeId pid() const { return config_.pid; }
  Role role() const { return role_; }
  Phase phase() const { return phase_; }
  bool IsLeader() const { return role_ == Role::kLeader && phase_ == Phase::kAccept; }

  // Highest leader ballot this server has seen (from BLE or Prepare).
  const Ballot& leader_ballot() const { return leader_ballot_; }
  NodeId leader_hint() const { return leader_ballot_.pid; }

  const Storage& storage() const { return *storage_; }
  LogIndex decided_idx() const { return storage_->decided_idx(); }
  LogIndex log_len() const { return storage_->log_len(); }

  // True once a stop-sign has been decided: this configuration is final and
  // rejects further proposals (§6).
  bool IsStopped() const;
  std::optional<StopSign> DecidedStopSign() const;

  // Proposals still queued (not yet in the log); drained by the service layer
  // when a configuration stops so they can be re-proposed in the next one.
  std::vector<Entry> TakeUnproposed();

  // Compacts the local log below `idx` (must be within the decided prefix).
  // Synchronization with peers that still need the trimmed range falls back
  // to snapshot transfer automatically.
  void Trim(LogIndex idx);

  // Applies the trim_watermark policy (no-op when the watermark is 0): the
  // owner calls this on its periodic tick. See SequencePaxosConfig.
  void MaybeAutoTrim();

 private:
  struct PromiseMeta {
    Ballot acc_rnd;
    LogIndex log_idx = 0;
    LogIndex decided_idx = 0;
    LogIndex snapshot_up_to = 0;
    EntrySegment suffix;  // shared with the Promise message, never copied
  };

  size_t ClusterSize() const { return config_.peers.size() + 1; }
  size_t Majority() const { return util::MajorityOf(ClusterSize()); }

  void BecomeLeader(const Ballot& b);
  void HandlePrepare(NodeId from, const Prepare& p);
  void HandlePromise(NodeId from, Promise pr);
  void HandleAcceptSync(NodeId from, const AcceptSync& as);
  void HandleAcceptDecide(NodeId from, const AcceptDecide& ad);
  void HandleAccepted(NodeId from, const Accepted& a);
  void HandleDecide(NodeId from, const Decide& d);
  void HandlePrepareReq(NodeId from);
  void HandleForward(ProposalForward pf);

  void CompletePreparePhase();
  void SendAcceptSyncTo(NodeId follower, const PromiseMeta& meta);
  void RecordSnapshotInstall(NodeId from, const Ballot& round, LogIndex up_to,
                             size_t suffix_len);
  void UpdateDecidedAsLeader();
  void FlushProposals();
  void FlushAccepts();
  void Emit(NodeId to, PaxosMessage msg);

  // True if the log already carries a stop-sign (accepted, not necessarily
  // decided): no further entries may be appended behind it.
  bool LogIsStopped() const;

  SequencePaxosConfig config_;
  Storage* storage_;

  Role role_ = Role::kFollower;
  Phase phase_ = Phase::kNone;
  Ballot leader_ballot_;  // max ballot seen from BLE or <Prepare>

  // --- Leader-only state (valid while role_ == kLeader, round n_) ---------
  Ballot n_;
  std::map<NodeId, PromiseMeta> promises_;  // includes self
  Ballot adoption_acc_rnd_;                 // acc_rnd of the adopted max log
  LogIndex adoption_base_len_ = 0;          // its length at adoption time
  // Last accepted index per server; the leader's own entry only ever covers
  // what its storage holds durably (OnDurable).
  std::map<NodeId, LogIndex> las_;
  std::map<NodeId, LogIndex> next_send_;    // next log index to ship per follower

  std::vector<Entry> proposal_queue_;  // client proposals awaiting the log
  bool decided_dirty_ = false;         // decided advanced since last flush
  std::vector<PaxosOut> pending_out_;
};

}  // namespace opx::omni

#endif  // SRC_OMNIPAXOS_SEQUENCE_PAXOS_H_
