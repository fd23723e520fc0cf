#include "src/net/omni_tcp_server.h"

#include <chrono>
#include <cstdio>
#include <utility>
#include <variant>

#include "src/net/client_wire.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace opx::net {
namespace {

// What may leave before this pass's group commit. The leader's proposal
// (AcceptDecide) and a decision (Decide) are not votes: the leader counts
// its own acceptance only once it is durable (OnDurable), and a decided
// index stands on a majority that already persisted it. Votes (Promise,
// Accepted) wait for the commit, and so, conservatively, does everything
// else: AcceptSync, Prepare, PrepareReq, ProposalForward and heartbeats.
bool SendsBeforeCommit(const omni::OmniMessage& msg) {
  const auto* paxos = std::get_if<omni::PaxosMessage>(&msg);
  return paxos != nullptr && (std::holds_alternative<omni::AcceptDecide>(*paxos) ||
                              std::holds_alternative<omni::Decide>(*paxos));
}

}  // namespace

OmniTcpServer::OmniTcpServer(ServerOptions options) : options_(std::move(options)) {
  OPX_CHECK_NE(options_.id, kNoNode);
}

OmniTcpServer::~OmniTcpServer() = default;

bool OmniTcpServer::Start() {
  bool recovered = false;
  if (options_.wal_dir.empty()) {
    storage_ = std::make_unique<omni::Storage>();
  } else {
    std::string error;
    auto from_disk = omni::DurableStorage::Recover(wal::PosixEnv(), options_.wal_dir,
                                                   options_.wal_options, &error);
    // Corruption is not "nothing to recover": re-creating over an unreadable
    // journal would silently discard acknowledged state.
    if (!error.empty()) {
      wal_error_ = "WAL in " + options_.wal_dir + " refused: " + error;
      return false;
    }
    if (from_disk != nullptr) {
      recovered = true;
      durable_ = from_disk.get();
      storage_ = std::move(from_disk);
      OPX_ILOG << "server " << options_.id << ": recovered WAL, log_len="
               << storage_->log_len() << " decided=" << storage_->decided_idx();
    } else {
      auto fresh = omni::DurableStorage::Create(wal::PosixEnv(), options_.wal_dir,
                                                options_.wal_options, &wal_error_);
      if (fresh == nullptr) {
        return false;
      }
      durable_ = fresh.get();
      storage_ = std::move(fresh);
    }
  }

  omni::OmniConfig cfg;
  cfg.pid = options_.id;
  for (const auto& [peer, endpoint] : options_.peers) {
    cfg.peers.push_back(peer);
  }
  cfg.ble_priority = options_.ble_priority;
  cfg.batch_limit = options_.batch_limit;
  cfg.trim_watermark = options_.trim_watermark;
  cfg.lease_rounds = options_.lease_rounds;
  cfg.obs = options_.obs;
  node_ = std::make_unique<omni::OmniPaxos>(cfg, storage_.get(), recovered);
  pushed_ = storage_->decided_idx();

  transport_ = std::make_unique<TcpTransport>(options_.id, options_.listen_port,
                                              options_.peers);
  transport_->set_message_handler(
      [this](NodeId from, omni::OmniMessage msg) { OnPeerMessage(from, std::move(msg)); });
  transport_->set_reconnect_handler([this](NodeId peer) {
    node_->Reconnected(peer);
    Pump();
  });
  transport_->set_client_frame_handler(
      [this](uint64_t client, const uint8_t* data, size_t len) {
        OnClientFrame(client, data, len);
      });
  if (options_.obs != nullptr) {
    transport_->WireObs(&options_.obs->metrics());
#if defined(OPX_OBS_ENABLED)
    lease_reads_ctr_ = options_.obs->metrics().GetCounter("srv/lease_reads");
#endif
  }
  if (!transport_->Start()) {
    return false;
  }
  // Election ticks ride a timerfd in the transport's epoll wait; missed
  // periods coalesce into one firing (the old loop's catch-up reset).
  tick_timer_ = transport_->loop().AddTimer(options_.election_timeout, [this] { Tick(); });
  return tick_timer_ >= 0;
}

void OmniTcpServer::Tick() {
  // Push already-decided entries to clients before the tick: TickElection
  // may auto-trim up to the decided index, and a trimmed entry can no
  // longer be read back for the 0x02 batch.
  Pump();
  node_->TickElection();
  Pump();
  round1_started_ = true;
}

void OmniTcpServer::StepOnce(int timeout_ms) {
  // The tick timerfd interrupts the wait, so the full timeout is available;
  // Poll() ends with a flush, and the trailing one covers this Pump.
  transport_->Poll(timeout_ms);
  // Heartbeat round 1 starts as soon as every peer can both hear our
  // requests and answer them, and the timer restarts, so round 1 lasts a
  // full period and a fresh cluster elects one period after its links come
  // up. With a peer down, the first tick starts round 1.
  if (!round1_started_ && transport_->AllLinksUp()) {
    const int restarted =
        transport_->loop().AddTimer(options_.election_timeout, [this] { Tick(); });
    if (restarted >= 0) {  // else the old timer, and its phase, stay
      transport_->loop().CancelTimer(tick_timer_);
      tick_timer_ = restarted;
    }
    Tick();
  }
  Pump();
  transport_->Flush();
  if (durable_ == nullptr) {
    return;
  }
  // One group commit per pass. The leader's <AcceptDecide> already left in
  // the flush above, so the followers' fdatasyncs run alongside this one;
  // the votes Dispatch held leave only after it (persist-before-vote,
  // DESIGN.md §17). A dead disk must halt the server rather than let it keep
  // voting from memory.
  OPX_CHECK(durable_->Sync()) << "server " << options_.id
                              << ": WAL group commit failed: " << durable_->wal_error();
  node_->OnDurable();
  held_to_.clear();
  Dispatch(std::exchange(held_, {}), /*hold_votes=*/false);
  // Decide and the client pushes for whatever OnDurable decided. The decide
  // record it journaled waits for the next pass's commit: a decided entry is
  // already durable on a majority, so no frame waits for that record.
  Pump();
  transport_->Flush();
}

void OmniTcpServer::Run(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    StepOnce(20);
  }
}

void OmniTcpServer::OnPeerMessage(NodeId from, omni::OmniMessage msg) {
  node_->Handle(from, std::move(msg));
  Pump();
}

void OmniTcpServer::OnClientFrame(uint64_t client, const uint8_t* data, size_t len) {
  if (len == 0) {
    return;
  }
  switch (data[0]) {
    case kAppendRequestTag: {
      AppendRequest req;
      if (!DecodeAppendRequest(data, len, &req)) {
        return;
      }
      if (node_->IsLeader()) {
        // No Pump here: appends admitted during this epoll pass flush
        // together in StepOnce's post-Poll Pump — request batching turns an
        // append burst into one <AcceptDecide> fan-out.
        node_->Append(omni::Entry::Command(req.cmd_id, req.payload_bytes));
      } else {
        const auto redirect = EncodeRedirect(node_->leader_hint());
        transport_->SendToClient(client, redirect.data(), redirect.size());
      }
      break;
    }
    case kReadRequestTag: {
      ReadRequest req;
      if (!DecodeReadRequest(data, len, &req)) {
        return;
      }
      ReadReply reply;
      reply.read_id = req.read_id;
      reply.decided = node_->decided_idx();
      reply.served = node_->CanServeLocalReads() && reply.decided >= req.watermark;
      reply.leader = node_->leader_hint();
      if (reply.served) {
        OPX_TRACE(options_.obs, obs::EventKind::kLeaseRead, options_.id, kNoNode, 0,
                  reply.decided, req.watermark);
#if defined(OPX_OBS_ENABLED)
        if (lease_reads_ctr_ != nullptr) {
          lease_reads_ctr_->Inc();
        }
#endif
      }
      const auto encoded = EncodeReadReply(reply);
      transport_->SendToClient(client, encoded.data(), encoded.size());
      break;
    }
    case kStatusRequestTag: {
      StatusReply status;
      status.leader = node_->leader_hint();
      status.decided = node_->decided_idx();
      status.log_len = node_->log_len();
      status.is_leader = node_->IsLeader();
      status.compacted = storage_->compacted_idx();
      const auto encoded = EncodeStatusReply(status);
      transport_->SendToClient(client, encoded.data(), encoded.size());
      break;
    }
    default:
      break;
  }
}

void OmniTcpServer::Pump() {
  Dispatch(node_->TakeOutgoing(), /*hold_votes=*/durable_ != nullptr);
  const LogIndex decided = node_->decided_idx();
  if (pushed_ < storage_->compacted_idx()) {
    pushed_ = storage_->compacted_idx();
  }
  if (pushed_ < decided && transport_->client_count() > 0) {
    std::vector<uint64_t> ids;
    for (LogIndex i = pushed_; i < decided; ++i) {
      const omni::Entry& e = storage_->At(i);
      if (!e.IsStopSign() && e.cmd_id != 0) {
        ids.push_back(e.cmd_id);
      }
    }
    // Encoded once; every client's queue shares the refcounted frame.
    const std::vector<uint8_t> batch = EncodeDecidedBatch(ids);
    transport_->SendToAllClients(transport_->EncodeClientFrame(batch.data(), batch.size()));
  }
  pushed_ = decided;
}

void OmniTcpServer::Dispatch(std::vector<omni::OmniOut> outs, bool hold_votes) {
  // Broadcast fan-outs (heartbeats, AcceptDecide with a SharedSuffix) arrive
  // from TakeOutgoing as per-peer copies of identical bytes: prove identity
  // with SameWireBody and share the one encoded frame instead of re-encoding.
  const omni::OmniMessage* prev = nullptr;
  for (omni::OmniOut& out : outs) {
    if (hold_votes && (!SendsBeforeCommit(out.body) || held_to_.contains(out.to))) {
      // Everything behind a held message to the same peer is held too, so
      // each peer still receives this server's messages in order.
      held_to_.insert(out.to);
      held_.push_back(std::move(out));
      continue;
    }
    if (prev == nullptr || !omni::SameWireBody(*prev, out.body) ||
        !transport_->SendRepeat(out.to)) {
      transport_->Send(out.to, out.body);
    }
    prev = &out.body;
  }
}

}  // namespace opx::net
