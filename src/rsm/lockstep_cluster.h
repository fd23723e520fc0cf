// LockstepCluster — the one in-process cluster with manual message delivery,
// for all four protocols. Messages wait in a FIFO queue until the caller
// settles them, links are cut and healed by hand, and Tick() is one
// heartbeat period. Each server's omni::Storage survives Crash() and goes
// back to the factory on Restart() with recovered=true (§4.1.3). The safety
// auditor checks every live server after every event.
//
// A node needs Handle(from, Msg), TakeOutgoing() -> vector<{to, body}>,
// IsLeader(), Append(omni::Entry), a LeaderRank overload, and TickElection()
// or Tick(); Reconnected(peer) and Audit() are called when it has them.
// LocalCluster (local_cluster.h) wraps OmniCluster for library users.
#ifndef SRC_RSM_LOCKSTEP_CLUSTER_H_
#define SRC_RSM_LOCKSTEP_CLUSTER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/audit/auditor.h"
#include "src/multipaxos/multipaxos.h"
#include "src/obs/trace.h"
#include "src/omnipaxos/omni_paxos.h"
#include "src/raft/raft.h"
#include "src/util/check.h"
#include "src/util/types.h"
#include "src/util/unique_function.h"
#include "src/vr/vr_replica.h"

namespace opx::rsm {

// Each protocol's own order on leader claimants. A leader that lost
// connectivity keeps its role until it hears a higher round (LE2 allows
// this), so CurrentLeader() picks the greatest claimant.
inline omni::Ballot LeaderRank(const omni::OmniPaxos& n) { return n.paxos().leader_ballot(); }
inline uint64_t LeaderRank(const raft::Raft& n) { return n.term(); }
inline omni::Ballot LeaderRank(const mpx::MultiPaxos& n) { return n.ballot(); }
inline uint64_t LeaderRank(const vr::VrReplica& n) { return n.election().view() + 1; }

template <typename Node>
class LockstepCluster {
 public:
  using Message = decltype(std::declval<Node&>().TakeOutgoing().front().body);
  // Builds server `id` on `storage`, which the cluster owns; `recovered` is
  // true on Restart(). Protocols without persistent state ignore both.
  using Factory = util::UniqueFunction<std::unique_ptr<Node>(
      NodeId id, std::vector<NodeId> peers, omni::Storage* storage, bool recovered)>;

  LockstepCluster(int n, Factory factory) : n_(n), factory_(std::move(factory)) {
    OPX_CHECK_GT(n_, 0);
    storages_.resize(static_cast<size_t>(n_) + 1);
    nodes_.resize(static_cast<size_t>(n_) + 1);
    for (NodeId id = 1; id <= n_; ++id) {
      storages_[static_cast<size_t>(id)] = std::make_unique<omni::Storage>();
      nodes_[static_cast<size_t>(id)] = factory_(id, PeersOf(id), &storage(id), false);
    }
  }

  // A crashed server's node stays readable, frozen at the crash.
  Node& node(NodeId id) { return *nodes_[Checked(id)]; }
  omni::Storage& storage(NodeId id) { return *storages_[Checked(id)]; }
  const omni::Storage& storage(NodeId id) const { return *storages_[Checked(id)]; }
  int size() const { return n_; }

  // Stamps the tick count as the sink's virtual time, so trace oracles can
  // order events by tick. The factory wires the sink into the nodes.
  void AttachObs(obs::ObsSink* sink) {
    obs_ = sink;
    OPX_TRACE_NOW(obs_, ticks_);
  }

  // Healing a link between live servers calls Reconnected on both ends and
  // collects what they send; the caller settles it.
  void SetLink(NodeId a, NodeId b, bool up) {
    const std::pair<NodeId, NodeId> key = std::minmax(a, b);
    if (!up) {
      down_links_.insert(key);
    } else if (down_links_.erase(key) > 0 && !IsCrashed(a) && !IsCrashed(b)) {
      if constexpr (requires(Node& n, NodeId p) { n.Reconnected(p); }) {
        node(a).Reconnected(b);
        node(b).Reconnected(a);
        Collect();
        AuditNow("reconnect");
      }
    }
  }

  bool LinkUp(NodeId a, NodeId b) const { return down_links_.count(std::minmax(a, b)) == 0; }

  void Isolate(NodeId id) {
    for (NodeId other = 1; other <= n_; ++other) {
      if (other != id) {
        SetLink(id, other, false);
      }
    }
  }

  void HealAll() {
    for (NodeId a = 1; a <= n_; ++a) {
      for (NodeId b = a + 1; b <= n_; ++b) {
        SetLink(a, b, true);
      }
    }
  }

  // In-flight messages to and from a crashed server vanish.
  void Crash(NodeId id) {
    crashed_.insert(id);
    std::erase_if(queue_, [id](const Wire& w) { return w.from == id || w.to == id; });
  }

  // Rebuilds a crashed server from its storage and collects what it sends.
  void Restart(NodeId id) {
    OPX_CHECK(IsCrashed(id));
    crashed_.erase(id);
    nodes_[Checked(id)] = factory_(id, PeersOf(id), &storage(id), /*recovered=*/true);
    Collect();
  }

  bool IsCrashed(NodeId id) const { return crashed_.count(id) > 0; }

  // Adds server size()+1, built by the caller; no existing server has it as
  // a peer. Returns its id.
  NodeId AddServer(std::unique_ptr<Node> server) {
    storages_.push_back(std::make_unique<omni::Storage>());
    nodes_.push_back(std::move(server));
    return ++n_;
  }

  // One heartbeat period on all live servers, then full message settling.
  void Tick() {
    ++ticks_;
    OPX_TRACE_NOW(obs_, ticks_);
    for (NodeId id = 1; id <= n_; ++id) {
      if (IsCrashed(id)) {
        continue;
      }
      if constexpr (requires(Node& n) { n.TickElection(); }) {
        node(id).TickElection();
      } else {
        node(id).Tick();
      }
    }
    Collect();
    AuditNow("tick");
    DeliverAll();
  }

  void TickRounds(int rounds) {
    for (int i = 0; i < rounds; ++i) {
      Tick();
    }
  }

  // Delivers queued messages (and any they generate) until quiescent.
  void DeliverAll() {
    size_t guard = 0;
    while (!queue_.empty()) {
      OPX_CHECK_LT(++guard, 1'000'000u) << "message storm: protocol not quiescing";
      Wire w = std::move(queue_.front());
      queue_.pop_front();
      if (!LinkUp(w.from, w.to)) {
        continue;
      }
      event_hash_ = audit::HashMix(event_hash_, static_cast<uint64_t>(ticks_));
      event_hash_ = audit::HashMix(event_hash_, (static_cast<uint64_t>(w.from) << 32) |
                                                    static_cast<uint32_t>(w.to));
      event_hash_ = audit::HashMix(
          event_hash_, (static_cast<uint64_t>(w.body.index()) << 48) ^ WireBytes(w.body));
      node(w.to).Handle(w.from, std::move(w.body));
      Collect();
      AuditNow("deliver");
    }
  }

  // Moves every live server's outgoing messages into the queue.
  void Collect() {
    for (NodeId id = 1; id <= n_; ++id) {
      if (IsCrashed(id)) {
        continue;
      }
      for (auto& out : node(id).TakeOutgoing()) {
        if (out.to >= 1 && out.to <= n_ && LinkUp(id, out.to) && !IsCrashed(out.to)) {
          queue_.push_back(Wire{id, out.to, std::move(out.body)});
        }
      }
    }
  }

  // Proposes a command at `id` and settles. Returns false if `id` refused it.
  bool Append(NodeId id, uint64_t cmd_id, uint32_t payload_bytes = 8) {
    const bool ok = node(id).Append(omni::Entry::Command(cmd_id, payload_bytes));
    Collect();
    DeliverAll();
    return ok;
  }

  // The live leader claimant with the greatest LeaderRank, or kNoNode.
  NodeId CurrentLeader() {
    NodeId best = kNoNode;
    decltype(LeaderRank(std::declval<const Node&>())) best_rank{};
    for (NodeId id = 1; id <= n_; ++id) {
      if (!IsCrashed(id) && node(id).IsLeader() && LeaderRank(node(id)) > best_rank) {
        best = id;
        best_rank = LeaderRank(node(id));
      }
    }
    return best;
  }

  const audit::SafetyAuditor& auditor() const { return auditor_; }

  // Fingerprint of the delivery order: tick, endpoints, message kind and size.
  uint64_t EventHash() const { return event_hash_; }

 private:
  struct Wire {
    NodeId from;
    NodeId to;
    Message body;
  };

  std::vector<NodeId> PeersOf(NodeId id) const {
    std::vector<NodeId> peers;
    for (NodeId other = 1; other <= n_; ++other) {
      if (other != id) {
        peers.push_back(other);
      }
    }
    return peers;
  }

  // Compiles away for node types without an AuditView.
  void AuditNow(const char* label) {
    if constexpr (requires(const Node& n) { n.Audit(); }) {
      views_.clear();
      for (NodeId id = 1; id <= n_; ++id) {
        if (!IsCrashed(id)) {
          views_.push_back(node(id).Audit());
        }
      }
      audit::AuditContext ctx;
      ctx.now = ticks_;  // lockstep "time" is the tick count
      ctx.event_id = ++audit_events_;
      ctx.label = label;
      auditor_.Observe(views_, ctx);
    }
  }

  size_t Checked(NodeId id) const {
    OPX_CHECK(id >= 1 && id <= n_);
    return static_cast<size_t>(id);
  }

  int n_;
  Factory factory_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<omni::Storage>> storages_;
  std::deque<Wire> queue_;
  std::set<std::pair<NodeId, NodeId>> down_links_;
  std::set<NodeId> crashed_;

  audit::SafetyAuditor auditor_;
  std::vector<audit::AuditView> views_;
  uint64_t audit_events_ = 0;
  uint64_t event_hash_ = 0;
  int64_t ticks_ = 0;
  obs::ObsSink* obs_ = nullptr;
};

// BLE priority of the preferred server. Only its order against 0 matters.
inline constexpr uint32_t kPreferredPriority = 1;

// Omni-Paxos servers 1..n. `preferred` (kNoNode for none) keeps
// kPreferredPriority across restarts; `obs` is wired into every server.
class OmniCluster : public LockstepCluster<omni::OmniPaxos> {
 public:
  explicit OmniCluster(int n, NodeId preferred = kNoNode, size_t trim_watermark = 0,
                       obs::ObsSink* obs = nullptr)
      : LockstepCluster(n, [=](NodeId id, std::vector<NodeId> peers, omni::Storage* storage,
                               bool recovered) {
          omni::OmniConfig cfg;
          cfg.pid = id;
          cfg.peers = std::move(peers);
          cfg.ble_priority = id == preferred ? kPreferredPriority : 0;
          cfg.trim_watermark = trim_watermark;
          cfg.obs = obs;
          return std::make_unique<omni::OmniPaxos>(cfg, storage, recovered);
        }) {
    AttachObs(obs);
  }
};

}  // namespace opx::rsm

#endif  // SRC_RSM_LOCKSTEP_CLUSTER_H_
