// Uniform adapters wrapping each protocol behind one node API so the
// simulation harness (ClusterSim) and the benchmarks drive all protocols
// identically:
//
//   Tick()                 — one protocol timer period (see TickPeriod below)
//   Handle(from, Message)  — deliver a protocol message
//   Reconnected(peer)      — link-session restored (no-op where unused)
//   TakeOutgoing()         — drain {to, Message} sends
//   Propose(cmd, bytes)    — client command; false if this server can't accept
//   PollDecided(out)       — newly decided client command ids, in log order
//   IsLeader()/LeaderHint()/Epoch()
//
// TickPeriod maps the experiment's election-timeout parameter T onto each
// protocol's internal tick: Omni-Paxos heartbeat rounds run once per T; Raft
// ticks are heartbeats with election_ticks=5 (timeout randomized [T, 2T));
// Multi-Paxos and VR ping every T/3 with a missed budget of 3 (randomized to
// 6). All protocols thus suspect a dead leader after ~T..2T, matching §7.2.
#ifndef SRC_RSM_ADAPTERS_H_
#define SRC_RSM_ADAPTERS_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/multipaxos/multipaxos.h"
#include "src/omnipaxos/durable_storage.h"
#include "src/omnipaxos/omni_paxos.h"
#include "src/raft/raft.h"
#include "src/rsm/node_options.h"
#include "src/util/check.h"
#include "src/util/time.h"
#include "src/util/types.h"
#include "src/vr/vr_replica.h"

namespace opx::rsm {

// ---------------------------------------------------------------------------
// Omni-Paxos.
// ---------------------------------------------------------------------------

// In-memory stand-in for a WAL recovery: copies another storage's durable
// fields through the protected RestoreForRecovery hook, exactly as
// DurableStorage::Recover replays a journal into a fresh Storage.
struct RecoveredStorage : omni::Storage {
  void Restore(const omni::Storage& durable) {
    RestoreForRecovery(durable.promised_round(), durable.accepted_round(),
                       durable.compacted_idx(), durable.Suffix(durable.compacted_idx()),
                       durable.decided_idx());
  }
};

class OmniNode {
 public:
  using Message = omni::OmniMessage;

  OmniNode(NodeId id, std::vector<NodeId> peers, const NodeOptions& opts)
      : wal_env_(opts.wal_env), wal_dir_(opts.wal_dir), wal_options_(opts.wal_options) {
    cfg_.pid = id;
    cfg_.peers = std::move(peers);
    cfg_.ble_priority = opts.ble_priority;
    cfg_.batch_limit = opts.batch_limit;
    cfg_.trim_watermark = opts.trim_watermark;
    cfg_.obs = opts.obs;
    if (wal_env_ != nullptr) {
      OPX_CHECK(!wal_dir_.empty()) << "wal_env set without wal_dir";
      auto journal = omni::DurableStorage::Create(wal_env_, wal_dir_, wal_options_);
      durable_ = journal.get();
      storage_ = std::move(journal);
    } else {
      storage_ = std::make_unique<omni::Storage>();
    }
    node_ = std::make_unique<omni::OmniPaxos>(cfg_, storage_.get());
  }

  // Fail-recovery (§4.1.3): the storage stands in for the durable log — it
  // survives the protocol instance, and the rebuilt node resumes from its
  // persisted promise/decided state with recovered=true (renounced candidacy
  // + <PrepareReq> to every peer).
  static constexpr bool kSupportsRestart = true;
  void Restart(const NodeOptions&) {
    if (durable_ != nullptr) {
      RestartFromWal();
      return;
    }
    // Rebuild the storage through the same RestoreForRecovery entry point
    // DurableStorage::Recover uses, rather than silently reusing the live
    // object: every simulated crash then exercises the real recovery-path
    // invariants — in particular recovering a *trimmed* log, where decided
    // exceeds the physical suffix and must be bounded by the logical length.
    auto fresh = std::make_unique<RecoveredStorage>();
    fresh->Restore(*storage_);
    node_.reset();  // the old instance must not outlive its storage
    storage_ = std::move(fresh);
    node_ = std::make_unique<omni::OmniPaxos>(cfg_, storage_.get(), /*recovered=*/true);
    polled_ = std::max(polled_, storage_->compacted_idx());
  }

  // Log compaction: only the decided prefix may go (snapshot catch-up covers
  // lagging peers). The chaos layer injects trim faults only where this is on.
  static constexpr bool kSupportsTrim = true;
  void Trim(LogIndex idx) {
    node_->Trim(std::min(idx, node_->decided_idx()));
    polled_ = std::max(polled_, storage_->compacted_idx());
  }

  // Leader-lease local reads (DESIGN.md §15): true while linearizable reads
  // may be served from the local decided prefix.
  bool CanServeLocalReads() const { return node_->CanServeLocalReads(); }
  LogIndex ReadDecided() const { return node_->decided_idx(); }

  void Tick() { node_->TickElection(); }
  void Handle(NodeId from, Message m) { node_->Handle(from, std::move(m)); }
  void Reconnected(NodeId peer) { node_->Reconnected(peer); }

  std::vector<std::pair<NodeId, Message>> TakeOutgoing() {
    std::vector<std::pair<NodeId, Message>> out;
    for (omni::OmniOut& o : node_->TakeOutgoing()) {
      out.emplace_back(o.to, std::move(o.body));
    }
    // Persist-before-send: the harness drains outgoing messages once after
    // every event and commits here, so nothing leaves the node before the
    // mutations behind it are on disk. It runs after the drain because
    // draining journals too: the leader's FlushProposals appends the batch
    // its <AcceptDecide> carries. The leader then counts its own acceptance
    // (OnDurable), which may journal a decide; that is committed too, so a
    // restart never meets unsynced state and the run keeps the memory-backed
    // EventHash.
    if (durable_ != nullptr) {
      Commit();
      node_->OnDurable();
      if (durable_->HasPending()) {
        Commit();
      }
    }
    return out;
  }

  bool Propose(uint64_t cmd, uint32_t bytes) {
    if (!node_->IsLeader()) {
      return false;
    }
    return node_->Append(omni::Entry::Command(cmd, bytes));
  }

  void PollDecided(std::vector<uint64_t>* out) {
    const LogIndex decided = node_->decided_idx();
    polled_ = std::max(polled_, storage_->compacted_idx());
    for (; polled_ < decided; ++polled_) {
      const omni::Entry& e = storage_->At(polled_);
      if (!e.IsStopSign() && e.cmd_id != 0) {
        out->push_back(e.cmd_id);
      }
    }
  }

  bool IsLeader() const { return node_->IsLeader(); }
  NodeId LeaderHint() const { return node_->leader_hint(); }
  uint64_t Epoch() const { return node_->ble().leader().n; }
  static bool IsElectionMessage(const Message& m) {
    return std::holds_alternative<omni::BleMessage>(m);
  }
  static Time TickPeriod(Time election_timeout) { return election_timeout; }

  audit::AuditView Audit() const { return node_->Audit(); }

  omni::OmniPaxos& impl() { return *node_; }

 private:
  void Commit() {
    OPX_CHECK(durable_->Sync()) << "WAL group commit failed: " << durable_->wal_error();
  }

  // A real crash-recovery: every simulated restart goes through the same
  // DurableStorage::Recover path a production omni_node uses, with the
  // journal's unsynced tail deliberately mangled first (the crash happened
  // mid-append, as far as recovery can tell). The recovered state must
  // fingerprint-identically to the pre-crash storage — every mutation was
  // group-committed at the TakeOutgoing boundary, including a decide the
  // leader's OnDurable journaled after the first commit, so a WAL-backed
  // chaos run replays to the same EventHash as a memory-backed one. (The
  // TCP server is looser: it lets AcceptDecide, Decide and client frames out
  // before its commit, so a real crash may lose a decide record that was
  // already reported; DESIGN.md §17 says why that is safe.)
  void RestartFromWal() {
    OPX_CHECK(!durable_->HasPending())
        << "crash with unsynced mutations: a message escaped before its commit";
    const uint64_t fingerprint = omni::StorageFingerprint(*storage_);
    const std::string active =
        wal_dir_ + "/" + wal::SegmentFileName(durable_->wal().active_seq());
    const uint64_t logical_end = durable_->wal().active_size();
    node_.reset();  // the old instance must not outlive its storage
    durable_ = nullptr;
    storage_.reset();  // closes the journal's files

    // Deterministic torn tail: junk bytes (derived from the state
    // fingerprint, so reruns of a seed are identical) at the logical end,
    // where the interrupted commit would have landed, in place of the zero
    // padding. Recovery must identify them as a torn record and cut them.
    auto tail =
        wal_env_->TruncateFile(active, logical_end) ? wal_env_->OpenAppend(active) : nullptr;
    if (tail != nullptr) {
      uint8_t junk[8];
      const size_t n = 1 + static_cast<size_t>(fingerprint % 7);
      for (size_t i = 0; i < n; ++i) {
        junk[i] = static_cast<uint8_t>(fingerprint >> (8 * (i % 8)));
      }
      tail->Append(junk, n);
    }

    std::string error;
    auto recovered = omni::DurableStorage::Recover(wal_env_, wal_dir_, wal_options_, &error);
    OPX_CHECK(recovered != nullptr) << "WAL recovery refused: " << error;
    OPX_CHECK_EQ(omni::StorageFingerprint(*recovered), fingerprint)
        << "recovered state diverges from the group-committed state";
    durable_ = recovered.get();
    storage_ = std::move(recovered);
    node_ = std::make_unique<omni::OmniPaxos>(cfg_, storage_.get(), /*recovered=*/true);
    polled_ = std::max(polled_, storage_->compacted_idx());
  }

  omni::OmniConfig cfg_;
  wal::Env* wal_env_ = nullptr;
  std::string wal_dir_;
  wal::WalOptions wal_options_;
  omni::DurableStorage* durable_ = nullptr;  // storage_ downcast when WAL-backed
  std::unique_ptr<omni::Storage> storage_;
  std::unique_ptr<omni::OmniPaxos> node_;
  LogIndex polled_ = 0;
};

// ---------------------------------------------------------------------------
// Raft (plain, and PV+CQ via options).
// ---------------------------------------------------------------------------

template <bool kPreVote, bool kCheckQuorum>
class RaftNodeT {
 public:
  using Message = raft::RaftMessage;

  RaftNodeT(NodeId id, std::vector<NodeId> peers, const NodeOptions& opts) {
    raft::RaftConfig cfg;
    cfg.pid = id;
    cfg.voters = std::move(peers);
    cfg.voters.push_back(id);
    cfg.pre_vote = kPreVote;
    cfg.check_quorum = kCheckQuorum;
    cfg.election_ticks = 5;
    cfg.seed = opts.seed;
    cfg.fast_first_election = opts.ble_priority > 0;
    cfg.batch_limit = opts.batch_limit;
    cfg.obs = opts.obs;
    node_ = std::make_unique<raft::Raft>(cfg);
  }

  void Tick() { node_->Tick(); }
  void Handle(NodeId from, Message m) { node_->Handle(from, std::move(m)); }
  void Reconnected(NodeId) {}  // Raft recovers via AppendEntries consistency checks

  // This Raft keeps term/vote/log in memory only; a restart would forget its
  // vote and could double-vote, so the chaos layer never crash-faults it.
  static constexpr bool kSupportsRestart = false;
  void Restart(const NodeOptions&) { OPX_CHECK(false) << "raft adapter has no restart path"; }

  // No snapshot/InstallSnapshot path: followers backfill from the full log,
  // so compaction would strand them. The chaos layer gates trim faults on this.
  static constexpr bool kSupportsTrim = false;
  void Trim(LogIndex) { OPX_CHECK(false) << "raft adapter has no compaction path"; }
  bool CanServeLocalReads() const { return false; }
  LogIndex ReadDecided() const { return node_->commit_idx(); }

  std::vector<std::pair<NodeId, Message>> TakeOutgoing() {
    std::vector<std::pair<NodeId, Message>> out;
    for (raft::RaftOut& o : node_->TakeOutgoing()) {
      out.emplace_back(o.to, std::move(o.body));
    }
    return out;
  }

  bool Propose(uint64_t cmd, uint32_t bytes) {
    return node_->Append(raft::Entry::Command(cmd, bytes));
  }

  void PollDecided(std::vector<uint64_t>* out) {
    const LogIndex commit = node_->commit_idx();
    for (; polled_ < commit; ++polled_) {
      const raft::LogEntry& e = node_->log()[polled_];
      if (!e.data.IsStopSign() && e.data.cmd_id != 0) {
        out->push_back(e.data.cmd_id);
      }
    }
  }

  bool IsLeader() const { return node_->IsLeader(); }
  NodeId LeaderHint() const { return node_->leader_hint(); }
  uint64_t Epoch() const { return node_->term(); }
  static bool IsElectionMessage(const Message& m) {
    return std::holds_alternative<raft::RequestVote>(m) ||
           std::holds_alternative<raft::RequestVoteReply>(m);
  }
  // Raft ticks 5x per election timeout (heartbeat interval).
  static Time TickPeriod(Time election_timeout) { return election_timeout / 5; }

  audit::AuditView Audit() const { return node_->Audit(); }

  raft::Raft& impl() { return *node_; }

 private:
  std::unique_ptr<raft::Raft> node_;
  LogIndex polled_ = 0;
};

using RaftNode = RaftNodeT<false, false>;
using RaftPvCqNode = RaftNodeT<true, true>;

// ---------------------------------------------------------------------------
// Multi-Paxos.
// ---------------------------------------------------------------------------

class MultiPaxosNode {
 public:
  using Message = mpx::MpxMessage;

  MultiPaxosNode(NodeId id, std::vector<NodeId> peers, const NodeOptions& opts) {
    mpx::MpxConfig cfg;
    cfg.pid = id;
    cfg.peers = std::move(peers);
    cfg.ping_timeout_ticks = 3;
    cfg.seed = opts.seed;
    cfg.fast_first_takeover = opts.ble_priority > 0;
    cfg.obs = opts.obs;
    node_ = std::make_unique<mpx::MultiPaxos>(cfg);
  }

  void Tick() { node_->Tick(); }
  void Handle(NodeId from, Message m) { node_->Handle(from, std::move(m)); }
  void Reconnected(NodeId peer) { node_->Reconnected(peer); }

  // Promised/accepted rounds live in the MultiPaxos object, not a storage
  // backend, so there is no state to restart from.
  static constexpr bool kSupportsRestart = false;
  void Restart(const NodeOptions&) { OPX_CHECK(false) << "multipaxos adapter has no restart path"; }
  static constexpr bool kSupportsTrim = false;
  void Trim(LogIndex) { OPX_CHECK(false) << "multipaxos adapter has no compaction path"; }
  bool CanServeLocalReads() const { return false; }
  LogIndex ReadDecided() const { return node_->decided_idx(); }

  std::vector<std::pair<NodeId, Message>> TakeOutgoing() {
    std::vector<std::pair<NodeId, Message>> out;
    for (mpx::MpxOut& o : node_->TakeOutgoing()) {
      out.emplace_back(o.to, std::move(o.body));
    }
    return out;
  }

  bool Propose(uint64_t cmd, uint32_t bytes) {
    return node_->Append(mpx::Entry::Command(cmd, bytes));
  }

  void PollDecided(std::vector<uint64_t>* out) {
    const uint64_t decided = node_->decided_idx();
    for (; polled_ < decided; ++polled_) {
      const mpx::Entry& e = node_->log()[polled_];
      if (e.cmd_id != 0) {
        out->push_back(e.cmd_id);
      }
    }
  }

  bool IsLeader() const { return node_->IsLeader(); }
  NodeId LeaderHint() const { return node_->leader_hint(); }
  uint64_t Epoch() const { return node_->promised().n; }
  static bool IsElectionMessage(const Message& m) {
    return std::holds_alternative<mpx::P1a>(m) || std::holds_alternative<mpx::P1b>(m) ||
           std::holds_alternative<mpx::Ping>(m) || std::holds_alternative<mpx::Pong>(m);
  }
  static Time TickPeriod(Time election_timeout) { return election_timeout / 3; }

  audit::AuditView Audit() const { return node_->Audit(); }

  mpx::MultiPaxos& impl() { return *node_; }

 private:
  std::unique_ptr<mpx::MultiPaxos> node_;
  uint64_t polled_ = 0;
};

// ---------------------------------------------------------------------------
// VR (leader election) over Sequence Paxos.
// ---------------------------------------------------------------------------

class VrNode {
 public:
  using Message = vr::VrWire;

  VrNode(NodeId id, std::vector<NodeId> peers, const NodeOptions& opts) {
    vr::VrReplicaConfig cfg;
    cfg.pid = id;
    cfg.peers = std::move(peers);
    cfg.timeout_ticks = 3;
    cfg.seed = opts.seed;
    cfg.obs = opts.obs;
    storage_ = std::make_unique<omni::Storage>();
    node_ = std::make_unique<vr::VrReplica>(cfg, storage_.get());
  }

  void Tick() { node_->Tick(); }
  void Handle(NodeId from, Message m) { node_->Handle(from, std::move(m)); }
  void Reconnected(NodeId peer) { node_->Reconnected(peer); }

  // VrReplica persists its log in omni::Storage but keeps view/election state
  // in memory with no recovered-rejoin protocol, so crash faults are omitted.
  static constexpr bool kSupportsRestart = false;
  void Restart(const NodeOptions&) { OPX_CHECK(false) << "vr adapter has no restart path"; }
  static constexpr bool kSupportsTrim = false;
  void Trim(LogIndex) { OPX_CHECK(false) << "vr adapter has no compaction path"; }
  bool CanServeLocalReads() const { return false; }
  LogIndex ReadDecided() const { return node_->decided_idx(); }

  std::vector<std::pair<NodeId, Message>> TakeOutgoing() {
    std::vector<std::pair<NodeId, Message>> out;
    for (vr::VrReplicaOut& o : node_->TakeOutgoing()) {
      out.emplace_back(o.to, std::move(o.body));
    }
    return out;
  }

  bool Propose(uint64_t cmd, uint32_t bytes) {
    if (!node_->IsLeader()) {
      return false;
    }
    return node_->Append(omni::Entry::Command(cmd, bytes));
  }

  void PollDecided(std::vector<uint64_t>* out) {
    const LogIndex decided = node_->decided_idx();
    for (; polled_ < decided; ++polled_) {
      const omni::Entry& e = storage_->At(polled_);
      if (!e.IsStopSign() && e.cmd_id != 0) {
        out->push_back(e.cmd_id);
      }
    }
  }

  bool IsLeader() const { return node_->IsLeader(); }
  NodeId LeaderHint() const { return node_->leader_hint(); }
  uint64_t Epoch() const { return node_->election().view(); }
  static bool IsElectionMessage(const Message& m) {
    return std::holds_alternative<vr::VrMessage>(m);
  }
  static Time TickPeriod(Time election_timeout) { return election_timeout / 3; }

  audit::AuditView Audit() const { return node_->Audit(); }

  vr::VrReplica& impl() { return *node_; }

 private:
  std::unique_ptr<omni::Storage> storage_;
  std::unique_ptr<vr::VrReplica> node_;
  LogIndex polled_ = 0;
};

}  // namespace opx::rsm

#endif  // SRC_RSM_ADAPTERS_H_
