// OmniPaxos — the complete replicated-log server of one configuration (§3).
//
// Composes SequencePaxos (log replication) with BallotLeaderElection and wires
// BLE leader events into the replication protocol. Reconfiguration is
// initiated by proposing a stop-sign entry; once the stop-sign is decided the
// configuration is final and the *service layer* (src/rsm/service_layer.h)
// migrates the log and starts the next configuration.
#ifndef SRC_OMNIPAXOS_OMNI_PAXOS_H_
#define SRC_OMNIPAXOS_OMNI_PAXOS_H_

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "src/audit/audit_view.h"
#include "src/omnipaxos/ble.h"
#include "src/omnipaxos/messages.h"
#include "src/omnipaxos/sequence_paxos.h"
#include "src/omnipaxos/storage.h"
#include "src/util/types.h"

namespace opx::omni {

using OmniMessage = std::variant<PaxosMessage, BleMessage>;

struct OmniOut {
  NodeId to = kNoNode;
  OmniMessage body;
};

inline uint64_t WireBytes(const OmniMessage& m) {
  return std::visit([](const auto& inner) { return WireBytes(inner); }, m);
}

struct OmniConfig {
  NodeId pid = kNoNode;
  std::vector<NodeId> peers;
  ConfigId config_id = 0;
  uint32_t ble_priority = 0;
  size_t batch_limit = 0;      // see SequencePaxosConfig::batch_limit
  size_t trim_watermark = 0;   // see SequencePaxosConfig::trim_watermark
  uint64_t lease_rounds = 1;   // see BleConfig::lease_rounds
  // Optional trace/metrics sink, forwarded to BLE and SequencePaxos
  // (DESIGN.md §12); nullptr records nothing.
  obs::ObsSink* obs = nullptr;
};

class OmniPaxos {
 public:
  // `storage` must outlive this instance; pass recovered=true when restarting
  // from persisted state after a crash.
  OmniPaxos(const OmniConfig& config, Storage* storage, bool recovered = false);

  // One election-timeout period elapsed (drives BLE heartbeat rounds).
  void TickElection();

  void Handle(NodeId from, OmniMessage msg);
  void Reconnected(NodeId peer);

  // Client proposal; returns false if this configuration is stopped.
  bool Append(Entry entry);

  // Proposes to end this configuration with the given stop-sign. Returns
  // false if a stop-sign is already in flight or decided.
  bool ProposeReconfiguration(StopSign ss);

  std::vector<OmniOut> TakeOutgoing();

  // Call right after the storage's group commit: the leader's own acceptance
  // counts toward a majority only once durable (SequencePaxos::OnDurable).
  // Owners of in-memory storage never need to call it.
  void OnDurable() { paxos_.OnDurable(); }

  // --- Observers ----------------------------------------------------------
  NodeId pid() const { return config_.pid; }
  ConfigId config_id() const { return config_.config_id; }
  bool IsLeader() const { return paxos_.IsLeader(); }
  NodeId leader_hint() const { return paxos_.leader_hint(); }
  // True while this server may serve linearizable reads from its local
  // decided prefix: it is the steady-state leader and holds the BLE
  // heartbeat-majority lease (DESIGN.md §15).
  bool CanServeLocalReads() const { return IsLeader() && ble_.HoldsLease(); }
  LogIndex decided_idx() const { return paxos_.decided_idx(); }
  LogIndex log_len() const { return paxos_.log_len(); }
  bool IsStopped() const { return paxos_.IsStopped(); }
  std::optional<StopSign> DecidedStopSign() const { return paxos_.DecidedStopSign(); }
  const Storage& storage() const { return paxos_.storage(); }

  // Read-only safety snapshot for the cross-replica auditor.
  audit::AuditView Audit() const;

  SequencePaxos& paxos() { return paxos_; }
  const SequencePaxos& paxos() const { return paxos_; }
  BallotLeaderElection& ble() { return ble_; }
  const BallotLeaderElection& ble() const { return ble_; }

  std::vector<Entry> TakeUnproposed() { return paxos_.TakeUnproposed(); }

  // Compacts the local log below `idx` (decided prefix only, §4.2 compaction;
  // mirrors the trim API of the reference implementation).
  void Trim(LogIndex idx) { paxos_.Trim(idx); }

 private:
  void DrainLeaderEvents();

  OmniConfig config_;
  SequencePaxos paxos_;
  BallotLeaderElection ble_;
  bool stop_sign_proposed_ = false;
};

}  // namespace opx::omni

#endif  // SRC_OMNIPAXOS_OMNI_PAXOS_H_
