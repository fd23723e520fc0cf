#include "src/omnipaxos/sequence_paxos.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/util/check.h"
#include "src/util/log_index.h"
#include "src/util/logging.h"

namespace opx::omni {

SequencePaxos::SequencePaxos(SequencePaxosConfig config, Storage* storage, bool recovered)
    : config_(std::move(config)), storage_(storage) {
  OPX_CHECK_NE(config_.pid, kNoNode);
  OPX_CHECK(storage_ != nullptr);
  for (NodeId peer : config_.peers) {
    OPX_CHECK_NE(peer, config_.pid);
  }
  if (recovered) {
    phase_ = Phase::kRecover;
    // The current leader (if any) answers with <Prepare>, which re-runs log
    // synchronization for this server (Fig. 3b ⑩–⑪).
    for (NodeId peer : config_.peers) {
      Emit(peer, PrepareReq{});
    }
    OPX_TRACE(config_.obs, obs::EventKind::kSpPrepareReq, config_.pid, kNoNode, 0, 0,
              /*aux=*/1);  // 1 = crash recovery (§4.1.3)
  }
}

// ---------------------------------------------------------------------------
// Leader events (from BLE).
// ---------------------------------------------------------------------------

void SequencePaxos::HandleLeader(const Ballot& b) {
  if (b <= leader_ballot_) {
    return;
  }
  leader_ballot_ = b;
  if (b.pid == config_.pid && b > storage_->promised_round()) {
    BecomeLeader(b);
  } else if (b.pid != config_.pid && role_ == Role::kLeader) {
    // A higher ballot was elected elsewhere; revert to follower (§4.1).
    role_ = Role::kFollower;
    phase_ = Phase::kNone;
  }
}

void SequencePaxos::BecomeLeader(const Ballot& b) {
  role_ = Role::kLeader;
  phase_ = Phase::kPrepare;
  n_ = b;
  storage_->set_promised_round(b);
  promises_.clear();
  las_.clear();
  next_send_.clear();

  // Self-promise with the current local state.
  PromiseMeta self;
  self.acc_rnd = storage_->accepted_round();
  self.log_idx = storage_->log_len();
  self.decided_idx = storage_->decided_idx();
  promises_[config_.pid] = std::move(self);

  const Prepare prep{n_, storage_->accepted_round(), storage_->log_len(),
                     storage_->decided_idx()};
  for (NodeId peer : config_.peers) {
    Emit(peer, prep);
  }
  OPX_TRACE(config_.obs, obs::EventKind::kSpPrepareSent, config_.pid, kNoNode,
            ObsBallotKey(n_), storage_->log_len());
  if (promises_.size() >= Majority()) {  // single-server configuration
    CompletePreparePhase();
  }
}

// ---------------------------------------------------------------------------
// Message dispatch.
// ---------------------------------------------------------------------------

void SequencePaxos::Handle(NodeId from, PaxosMessage msg) {
  // A recovering server only reacts to <Prepare> (and leader events), both of
  // which lead to a log synchronization (§4.1.3).
  if (phase_ == Phase::kRecover && !std::holds_alternative<Prepare>(msg)) {
    return;
  }
  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Prepare>) {
          HandlePrepare(from, m);
        } else if constexpr (std::is_same_v<T, Promise>) {
          HandlePromise(from, std::move(m));
        } else if constexpr (std::is_same_v<T, AcceptSync>) {
          HandleAcceptSync(from, m);
        } else if constexpr (std::is_same_v<T, AcceptDecide>) {
          HandleAcceptDecide(from, m);
        } else if constexpr (std::is_same_v<T, Accepted>) {
          HandleAccepted(from, m);
        } else if constexpr (std::is_same_v<T, Decide>) {
          HandleDecide(from, m);
        } else if constexpr (std::is_same_v<T, PrepareReq>) {
          HandlePrepareReq(from);
        } else if constexpr (std::is_same_v<T, ProposalForward>) {
          HandleForward(std::move(m));
        }
      },
      std::move(msg));
}

// ---------------------------------------------------------------------------
// Prepare phase — log synchronization (§4.1.1).
// ---------------------------------------------------------------------------

void SequencePaxos::HandlePrepare(NodeId from, const Prepare& p) {
  if (p.n < storage_->promised_round()) {
    // Obsolete round. Deliberately no NACK: gossiping newer rounds back is
    // exactly the livelock mechanism §2c identifies in other protocols.
    return;
  }
  storage_->set_promised_round(p.n);
  if (p.n > leader_ballot_) {
    leader_ballot_ = p.n;
  }
  if (role_ == Role::kLeader && p.n > n_) {
    role_ = Role::kFollower;
  }
  if (role_ == Role::kLeader && p.n == n_) {
    return;  // our own round echoed back; nothing to do
  }
  phase_ = Phase::kPrepare;

  // Send the leader the entries it is missing (Fig. 3b ③): our log is more
  // updated iff our accepted round is higher, or equal with a longer log.
  Promise promise;
  promise.n = p.n;
  promise.acc_rnd = storage_->accepted_round();
  promise.log_idx = storage_->log_len();
  promise.decided_idx = storage_->decided_idx();
  if (storage_->accepted_round() > p.acc_rnd) {
    // Everything past the leader's decided prefix (always safe: the decided
    // prefix is chosen, hence contained in our more-updated log). If we
    // compacted below that point, the suffix starts at our compaction
    // boundary and a snapshot covers the rest (only decided entries are ever
    // trimmed, so the summarized prefix is chosen).
    LogIndex suffix_from = p.decided_idx;
    if (suffix_from < storage_->compacted_idx()) {
      suffix_from = storage_->compacted_idx();
      promise.snapshot_up_to = suffix_from;
    }
    promise.suffix = storage_->SharedSuffix(suffix_from);
  } else if (storage_->accepted_round() == p.acc_rnd && storage_->log_len() > p.log_idx) {
    // Same round ⇒ same leader ⇒ our log extends the leader's (FIFO). We may
    // still have compacted past the candidate's log end (snapshot install or
    // backstop trim while it was down): only decided entries are ever
    // summarized, so ship the boundary and the tail behind it.
    LogIndex suffix_from = p.log_idx;
    if (suffix_from < storage_->compacted_idx()) {
      suffix_from = storage_->compacted_idx();
      promise.snapshot_up_to = suffix_from;
    }
    promise.suffix = storage_->SharedSuffix(suffix_from);
  }
  Emit(from, std::move(promise));
  OPX_TRACE(config_.obs, obs::EventKind::kSpPromiseSent, config_.pid, from,
            ObsBallotKey(p.n), storage_->log_len());
}

void SequencePaxos::HandlePromise(NodeId from, Promise pr) {
  if (role_ != Role::kLeader || pr.n != n_) {
    return;
  }
  PromiseMeta meta;
  meta.acc_rnd = pr.acc_rnd;
  meta.log_idx = pr.log_idx;
  meta.decided_idx = pr.decided_idx;
  meta.snapshot_up_to = pr.snapshot_up_to;
  meta.suffix = std::move(pr.suffix);

  if (phase_ == Phase::kPrepare) {
    promises_[from] = std::move(meta);
    if (promises_.size() >= Majority()) {
      CompletePreparePhase();
    }
  } else if (phase_ == Phase::kAccept) {
    // Straggler outside the prepare majority (§4.1.2): synchronize it now.
    promises_[from] = meta;
    SendAcceptSyncTo(from, meta);
  }
}

void SequencePaxos::CompletePreparePhase() {
  OPX_CHECK(role_ == Role::kLeader && phase_ == Phase::kPrepare);
  OPX_TRACE(config_.obs, obs::EventKind::kSpPromiseQuorum, config_.pid, kNoNode,
            ObsBallotKey(n_), storage_->log_len(), promises_.size());

  // Adopt the most updated log among the majority: highest accepted round,
  // ties broken by log length (§4.1.1).
  const NodeId self = config_.pid;
  const PromiseMeta* max_meta = &promises_.at(self);
  NodeId max_pid = self;
  for (const auto& [pid, meta] : promises_) {
    if (std::tie(meta.acc_rnd, meta.log_idx) >
        std::tie(max_meta->acc_rnd, max_meta->log_idx)) {
      max_meta = &meta;
      max_pid = pid;
    }
  }
  adoption_acc_rnd_ = max_meta->acc_rnd;

  if (max_pid != self) {
    if (max_meta->acc_rnd > storage_->accepted_round()) {
      if (max_meta->snapshot_up_to > 0) {
        // The winner compacted below our decided index: install its snapshot
        // boundary and the suffix behind it (the summarized prefix is chosen).
        // The suffix was accepted under the winner's round; the install
        // carries it atomically before we raise to n_ below.
        storage_->ResetToSnapshot(max_meta->acc_rnd, max_meta->snapshot_up_to,
                                  max_meta->suffix);
        RecordSnapshotInstall(max_pid, max_meta->acc_rnd, max_meta->snapshot_up_to,
                              max_meta->suffix.size());
      } else {
        // The winner's suffix was taken from our decided index (Prepare
        // carried it); replace everything beyond our decided prefix.
        storage_->TruncateAndAppend(storage_->decided_idx(), max_meta->suffix);
      }
    } else if (max_meta->acc_rnd == storage_->accepted_round() &&
               max_meta->log_idx > storage_->log_len()) {
      if (max_meta->snapshot_up_to > 0) {
        // Same round, but the winner compacted past our log end: appending
        // its suffix directly would leave a gap, so install the boundary.
        storage_->ResetToSnapshot(max_meta->acc_rnd, max_meta->snapshot_up_to,
                                  max_meta->suffix);
        RecordSnapshotInstall(max_pid, max_meta->acc_rnd, max_meta->snapshot_up_to,
                              max_meta->suffix.size());
      } else {
        // Same round: the winner extends our log; its suffix starts at our
        // Prepare-time log length, which is unchanged (leaders do not accept
        // entries during their own Prepare phase).
        storage_->AppendAll(max_meta->suffix);
      }
    }
  }
  adoption_base_len_ = storage_->log_len();
  storage_->set_accepted_round(n_);

  // Adopt the furthest decided index observed; all of it is chosen and the
  // adopted log contains every chosen entry.
  LogIndex max_decided = storage_->decided_idx();
  for (const auto& [pid, meta] : promises_) {
    max_decided = std::max(max_decided, meta.decided_idx);
  }
  OPX_CHECK_LE(max_decided, storage_->log_len());
  if (max_decided > storage_->decided_idx()) {
    storage_->set_decided_idx(max_decided);
    decided_dirty_ = true;
    OPX_TRACE(config_.obs, obs::EventKind::kSpDecide, config_.pid, kNoNode,
              ObsBallotKey(n_), max_decided);
  }

  phase_ = Phase::kAccept;
  // The adoption and the round raise are this leader's own acceptance; a
  // persistent backend counts it once the group commit lands (OnDurable).
  if (!storage_->HasPending()) {
    las_[self] = storage_->log_len();
  }

  for (const auto& [pid, meta] : promises_) {
    if (pid != self) {
      SendAcceptSyncTo(pid, meta);
    }
  }
  // Queued client proposals are appended by the next FlushProposals().
}

void SequencePaxos::SendAcceptSyncTo(NodeId follower, const PromiseMeta& meta) {
  OPX_CHECK(role_ == Role::kLeader && phase_ == Phase::kAccept);
  LogIndex sync_idx;
  if (meta.acc_rnd == n_) {
    // Re-promise within the current round (reconnect path): the follower's
    // round-n_ log is a prefix of ours, so only the missing tail is needed.
    sync_idx = meta.log_idx;
  } else if (meta.acc_rnd == adoption_acc_rnd_) {
    // Same round as the adopted log: logs are prefixes of one another. The
    // follower keeps min(its length, adopted length); any unchosen tail it
    // has beyond the adopted log is truncated and overwritten.
    sync_idx = std::min(meta.log_idx, adoption_base_len_);
  } else {
    // Different round: only the follower's decided prefix is guaranteed to
    // agree with the adopted log; overwrite the rest (Fig. 3a, server C).
    sync_idx = meta.decided_idx;
  }
  AcceptSync as;
  as.n = n_;
  if (sync_idx < storage_->compacted_idx()) {
    // We trimmed below the follower's sync point: ship a snapshot boundary at
    // our decided index plus the undecided tail (§ compaction).
    as.snapshot_up_to = storage_->decided_idx();
    sync_idx = as.snapshot_up_to;
  }
  as.sync_idx = sync_idx;
  as.suffix = storage_->SharedSuffix(sync_idx);
  as.decided_idx = storage_->decided_idx();
  next_send_[follower] = storage_->log_len();
  Emit(follower, std::move(as));
}

// ---------------------------------------------------------------------------
// Accept phase — replication (§4.1.2).
// ---------------------------------------------------------------------------

void SequencePaxos::HandleAcceptSync(NodeId from, const AcceptSync& as) {
  if (as.n != storage_->promised_round() || role_ != Role::kFollower ||
      phase_ != Phase::kPrepare) {
    return;
  }
  if (as.snapshot_up_to > 0) {
    // Round + boundary + suffix land as one atomic durable transition; a
    // crash can never expose the new log under the old accepted round.
    storage_->ResetToSnapshot(as.n, as.snapshot_up_to, as.suffix);
    RecordSnapshotInstall(from, as.n, as.snapshot_up_to, as.suffix.size());
  } else {
    storage_->set_accepted_round(as.n);
    storage_->TruncateAndAppend(as.sync_idx, as.suffix);
  }
  phase_ = Phase::kAccept;
  const LogIndex decided = std::min<LogIndex>(as.decided_idx, storage_->log_len());
  if (decided > storage_->decided_idx()) {
    storage_->set_decided_idx(decided);
    OPX_TRACE(config_.obs, obs::EventKind::kSpDecide, config_.pid, from,
              ObsBallotKey(as.n), decided);
  }
  Emit(from, Accepted{as.n, storage_->log_len()});
  OPX_TRACE(config_.obs, obs::EventKind::kSpAcceptSyncApplied, config_.pid, from,
            ObsBallotKey(as.n), storage_->log_len());
}

void SequencePaxos::HandleAcceptDecide(NodeId from, const AcceptDecide& ad) {
  if (ad.n != storage_->promised_round() || role_ != Role::kFollower ||
      phase_ != Phase::kAccept) {
    return;
  }
  const LogIndex len = storage_->log_len();
  if (ad.start_idx > len) {
    // Entries were lost to a link cut that raced the reconnect notification;
    // ask the leader for a fresh synchronization instead of creating a gap.
    Emit(from, PrepareReq{});
    OPX_TRACE(config_.obs, obs::EventKind::kSpPrepareReq, config_.pid, from,
              ObsBallotKey(ad.n), ad.start_idx, /*aux=*/2);  // 2 = log gap
    return;
  }
  if (ad.start_idx + ad.entries.size() <= len) {
    return;  // pure duplicate
  }
  const std::span<const Entry> entries = ad.entries;
  if (ad.start_idx < len) {
    // Overlapping resend: append only the unseen tail (a subspan, no copy).
    storage_->AppendAll(entries.subspan(len - ad.start_idx));
  } else {
    storage_->AppendAll(entries);
  }
  const LogIndex decided = std::min<LogIndex>(ad.decided_idx, storage_->log_len());
  if (decided > storage_->decided_idx()) {
    storage_->set_decided_idx(decided);
    OPX_TRACE(config_.obs, obs::EventKind::kSpDecide, config_.pid, from,
              ObsBallotKey(ad.n), decided);
  }
  if (!ad.entries.empty()) {
    Emit(from, Accepted{ad.n, storage_->log_len()});
  }
}

void SequencePaxos::HandleAccepted(NodeId from, const Accepted& a) {
  if (role_ != Role::kLeader || a.n != n_ || phase_ != Phase::kAccept) {
    return;
  }
  LogIndex& las = las_[from];
  las = std::max(las, a.log_idx);
  UpdateDecidedAsLeader();
}

void SequencePaxos::UpdateDecidedAsLeader() {
  // An index is chosen once a majority has accepted it (Fig. 3b ⑨). All
  // acknowledgements refer to round n_, so P2 is preserved.
  std::vector<LogIndex> acks;
  acks.reserve(las_.size());
  for (const auto& [pid, idx] : las_) {
    acks.push_back(idx);
  }
  if (acks.size() < Majority()) {
    return;
  }
  std::nth_element(acks.begin(), acks.begin() + static_cast<ptrdiff_t>(Majority() - 1),
                   acks.end(), std::greater<LogIndex>());
  const LogIndex chosen = acks[Majority() - 1];
  if (chosen > storage_->decided_idx()) {
    storage_->set_decided_idx(chosen);
    decided_dirty_ = true;
    OPX_TRACE(config_.obs, obs::EventKind::kSpDecide, config_.pid, kNoNode,
              ObsBallotKey(n_), chosen);
  }
}

void SequencePaxos::HandleDecide(NodeId from, const Decide& d) {
  if (d.n != storage_->promised_round() || role_ != Role::kFollower ||
      phase_ != Phase::kAccept) {
    return;
  }
  const LogIndex decided = std::min<LogIndex>(d.decided_idx, storage_->log_len());
  if (decided > storage_->decided_idx()) {
    storage_->set_decided_idx(decided);
    OPX_TRACE(config_.obs, obs::EventKind::kSpDecide, config_.pid, from,
              ObsBallotKey(d.n), decided);
  }
}

// ---------------------------------------------------------------------------
// Recovery, reconnects, proposals.
// ---------------------------------------------------------------------------

void SequencePaxos::HandlePrepareReq(NodeId from) {
  if (role_ == Role::kLeader) {
    // Pause accepts to this follower until it re-promises (AcceptSync re-adds
    // it); otherwise a stale next_send_ could ship entries past a gap.
    next_send_.erase(from);
    Emit(from, Prepare{n_, storage_->accepted_round(), storage_->log_len(),
                       storage_->decided_idx()});
  }
}

void SequencePaxos::HandleForward(ProposalForward pf) {
  for (Entry& e : pf.entries) {
    Append(std::move(e));  // drops if stopped; no re-forwarding loops
  }
}

void SequencePaxos::Reconnected(NodeId peer) {
  if (phase_ == Phase::kRecover) {
    Emit(peer, PrepareReq{});
    OPX_TRACE(config_.obs, obs::EventKind::kSpPrepareReq, config_.pid, peer, 0, 0,
              /*aux=*/3);  // 3 = reconnect while recovering
    return;
  }
  if (role_ == Role::kLeader) {
    // The peer may have missed accepts during the disconnect; re-run its
    // synchronization (§4.1.3 ⑫ mirror-side).
    next_send_.erase(peer);
    Emit(peer, Prepare{n_, storage_->accepted_round(), storage_->log_len(),
                       storage_->decided_idx()});
  } else if (peer == leader_ballot_.pid || leader_ballot_ == kNullBallot) {
    Emit(peer, PrepareReq{});
    OPX_TRACE(config_.obs, obs::EventKind::kSpPrepareReq, config_.pid, peer,
              ObsBallotKey(leader_ballot_), 0, /*aux=*/4);  // 4 = link reconnect
  }
}

bool SequencePaxos::Append(Entry entry) {
  if (IsStopped() || LogIsStopped()) {
    return false;
  }
  proposal_queue_.push_back(std::move(entry));
  return true;
}

std::vector<Entry> SequencePaxos::TakeUnproposed() {
  return std::exchange(proposal_queue_, {});
}

void SequencePaxos::RecordSnapshotInstall(NodeId from, const Ballot& round,
                                          LogIndex up_to, size_t suffix_len) {
  OPX_TRACE(config_.obs, obs::EventKind::kSpSnapshotInstall, config_.pid, from,
            ObsBallotKey(round), up_to, suffix_len);
#if defined(OPX_OBS_ENABLED)
  if (config_.obs != nullptr) {
    config_.obs->metrics().GetCounter("sp/snapshot_installs")->Inc();
  }
#endif
}

void SequencePaxos::Trim(LogIndex idx) {
  OPX_CHECK(!IsStopped()) << "a stopped configuration must not trim its stop-sign";
  const LogIndex before = storage_->compacted_idx();
  storage_->Trim(idx);
  if (storage_->compacted_idx() > before) {
    OPX_TRACE(config_.obs, obs::EventKind::kSpTrim, config_.pid, kNoNode,
              ObsBallotKey(storage_->accepted_round()), storage_->compacted_idx(),
              util::IndexBack(storage_->compacted_idx(), before));
#if defined(OPX_OBS_ENABLED)
    if (config_.obs != nullptr) {
      config_.obs->metrics().GetCounter("sp/trims")->Inc();
      config_.obs->metrics()
          .GetCounter("sp/trimmed_entries")
          ->Inc(util::IndexBack(storage_->compacted_idx(), before));
    }
#endif
  }
}

void SequencePaxos::MaybeAutoTrim() {
  const LogIndex wm = config_.trim_watermark;
  if (wm == 0 || IsStopped()) {
    return;
  }
  const LogIndex decided = storage_->decided_idx();
  const LogIndex compacted = storage_->compacted_idx();
  if (role_ == Role::kLeader && phase_ == Phase::kAccept) {
    // Trim what every tracked server has accepted. A straggler more than
    // three watermarks behind stops holding the floor: it is written off as
    // dead-or-partitioned and will re-sync via snapshot (SendAcceptSyncTo).
    const LogIndex straggler_floor = decided > 3 * wm ? decided - 3 * wm : 0;
    LogIndex floor = decided;
    for (NodeId p : config_.peers) {
      const auto it = las_.find(p);
      const LogIndex la = it == las_.end() ? 0 : it->second;
      floor = std::min(floor, std::max(la, straggler_floor));
    }
    if (floor >= compacted + wm) {
      Trim(floor);
    }
  } else if (decided >= compacted + 3 * wm) {
    // Follower backstop: bound memory independently of the leader, keeping a
    // two-watermark decided tail so most leader changes resync without a
    // snapshot transfer.
    Trim(decided - 2 * wm);
  }
}

// ---------------------------------------------------------------------------
// Flushing.
// ---------------------------------------------------------------------------

void SequencePaxos::FlushProposals() {
  if (proposal_queue_.empty()) {
    return;
  }
  if (role_ != Role::kLeader) {
    // Forward to the (believed) leader; the client retries on silence.
    const NodeId leader = leader_ballot_.pid;
    if (leader != kNoNode && leader != config_.pid) {
      ProposalForward fwd;
      fwd.entries = std::exchange(proposal_queue_, {});
      Emit(leader, std::move(fwd));
    }
    return;
  }
  if (phase_ != Phase::kAccept) {
    return;  // keep buffering until the Prepare phase completes
  }
  if (LogIsStopped()) {
    return;  // a stop-sign ends the log: nothing more joins it
  }
  const size_t limit = config_.batch_limit == 0
                           ? proposal_queue_.size()
                           : std::min(config_.batch_limit, proposal_queue_.size());
  size_t taken = 0;
  while (taken < limit) {
    if (proposal_queue_[taken++].IsStopSign()) {
      break;
    }
  }
  // One storage call per flushed batch: a durable backend journals it as a
  // single record.
  storage_->AppendAll(std::span<const Entry>(proposal_queue_.data(), taken));
  proposal_queue_.erase(proposal_queue_.begin(),
                        proposal_queue_.begin() + static_cast<ptrdiff_t>(taken));
  // The leader's acceptance of the batch counts toward a majority only once
  // it is durable. A persistent backend holds it pending until its group
  // commit, so the <AcceptDecide> below can reach the followers while the
  // leader's own fdatasync runs; OnDurable() counts it afterwards.
  if (taken > 0 && !storage_->HasPending()) {
    las_[config_.pid] = storage_->log_len();
    UpdateDecidedAsLeader();  // single-server configurations decide instantly
  }
}

void SequencePaxos::OnDurable() {
  if (role_ != Role::kLeader || phase_ != Phase::kAccept || storage_->HasPending()) {
    return;
  }
  LogIndex& self = las_[config_.pid];
  if (self < storage_->log_len()) {
    self = storage_->log_len();
    UpdateDecidedAsLeader();
  }
}

void SequencePaxos::FlushAccepts() {
  if (role_ != Role::kLeader || phase_ != Phase::kAccept) {
    return;
  }
  const LogIndex len = storage_->log_len();
  const LogIndex decided = storage_->decided_idx();
  // Prewarm the shared-suffix memo at the furthest-behind follower: every
  // per-follower body below is then an offset view into one snapshot (one
  // materialization per flush regardless of cluster size).
  LogIndex min_next = len;
  for (const auto& [pid, next] : next_send_) {
    min_next = std::min(min_next, next);
  }
  if (min_next < len) {
    (void)storage_->SharedSuffix(min_next);
  }
  for (auto& [pid, next] : next_send_) {
    if (next < len) {
      AcceptDecide ad;
      ad.n = n_;
      ad.start_idx = next;
      ad.entries = storage_->SharedSuffix(next);
      ad.decided_idx = decided;
      OPX_TRACE(config_.obs, obs::EventKind::kSpAcceptDecideSent, config_.pid, pid,
                ObsBallotKey(n_), next, len - next);
      next = len;
      Emit(pid, std::move(ad));
    } else if (decided_dirty_) {
      Emit(pid, Decide{n_, decided});
    }
  }
  decided_dirty_ = false;
}

std::vector<PaxosOut> SequencePaxos::TakeOutgoing() {
  FlushProposals();
  FlushAccepts();
  return std::exchange(pending_out_, {});
}

void SequencePaxos::Emit(NodeId to, PaxosMessage msg) {
  pending_out_.push_back(PaxosOut{to, std::move(msg)});
}

// ---------------------------------------------------------------------------
// Stop-sign observers (§6).
// ---------------------------------------------------------------------------

bool SequencePaxos::LogIsStopped() const {
  const LogIndex len = storage_->log_len();
  // Entries below the compaction boundary cannot be stop-signs: Trim()
  // rejects compaction of a stopped configuration.
  return len > storage_->compacted_idx() && storage_->At(len - 1).IsStopSign();
}

bool SequencePaxos::IsStopped() const {
  const LogIndex decided = storage_->decided_idx();
  return decided > storage_->compacted_idx() && storage_->At(decided - 1).IsStopSign();
}

std::optional<StopSign> SequencePaxos::DecidedStopSign() const {
  if (!IsStopped()) {
    return std::nullopt;
  }
  return *storage_->At(util::IndexBack(storage_->decided_idx(), 1)).stop_sign;
}

}  // namespace opx::omni
