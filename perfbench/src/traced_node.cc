#include "perfbench/src/traced_node.h"

#include <cstdio>
#include <cstdlib>
#include <variant>

namespace perfbench {
namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint64_t CounterValue(const opx::obs::Metrics& m, const char* name) {
  const opx::obs::Counter* c = m.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

}  // namespace

class CountingEnv::File final : public opx::wal::AppendFile {
 public:
  File(std::unique_ptr<opx::wal::AppendFile> base, uint64_t* bytes)
      : base_(std::move(base)), bytes_(bytes) {}
  bool Append(const uint8_t* data, size_t len) override {
    *bytes_ += len;
    return base_->Append(data, len);
  }
  bool Sync() override { return base_->Sync(); }
  uint64_t size() const override { return base_->size(); }

 private:
  std::unique_ptr<opx::wal::AppendFile> base_;
  uint64_t* bytes_;
};

std::unique_ptr<opx::wal::AppendFile> CountingEnv::OpenAppend(const std::string& path) {
  std::unique_ptr<opx::wal::AppendFile> f = base_->OpenAppend(path);
  if (f == nullptr) {
    return nullptr;
  }
  return std::make_unique<File>(std::move(f), &bytes_);
}

TracedNode::TracedNode(opx::net::ServerOptions options) : options_(std::move(options)) {}

TracedNode::~TracedNode() = default;

bool TracedNode::Start() {
  if (options_.wal_dir.empty()) {
    storage_ = std::make_unique<opx::omni::Storage>();
  } else {
    auto fresh = opx::omni::DurableStorage::Create(&env_, options_.wal_dir,
                                                   options_.wal_options);
    durable_ = fresh.get();
    storage_ = std::move(fresh);
  }

  opx::omni::OmniConfig cfg;
  cfg.pid = options_.id;
  for (const auto& [peer, endpoint] : options_.peers) {
    cfg.peers.push_back(peer);
  }
  cfg.ble_priority = options_.ble_priority;
  cfg.batch_limit = options_.batch_limit;
  cfg.trim_watermark = options_.trim_watermark;
  cfg.lease_rounds = options_.lease_rounds;
  node_ = std::make_unique<opx::omni::OmniPaxos>(cfg, storage_.get(), false);
  pushed_ = storage_->decided_idx();

  transport_ = std::make_unique<opx::net::TcpTransport>(options_.id, options_.listen_port,
                                                        options_.peers);
  transport_->set_message_handler([this](opx::NodeId from, opx::omni::OmniMessage msg) {
    OnPeerMessage(from, std::move(msg));
  });
  transport_->set_reconnect_handler([this](opx::NodeId peer) {
    {
      Span s(spans_, kSpanHandle);
      node_->Reconnected(peer);
    }
    Pump();
  });
  transport_->set_client_frame_handler(
      [this](uint64_t client, const uint8_t* data, size_t len) {
        OnClientFrame(client, data, len);
      });
  transport_->set_client_closed_handler([this](uint64_t client) { clients_.erase(client); });
  if (durable_ != nullptr) {
    transport_->set_flush_hook([this] {
      spans_.Enter(kSpanSync);
      const bool ok = durable_->Sync();
      sync_ns_.Record(spans_.Exit());
      ++wal_syncs_;
      if (!ok) {
        std::fprintf(stderr, "node %d: WAL group commit failed: %s\n", options_.id,
                     durable_->wal_error().c_str());
        std::abort();
      }
    });
  }
  transport_->WireObs(&metrics_);
  if (!transport_->Start()) {
    return false;
  }
  tick_timer_ = transport_->loop().AddTimer(options_.election_timeout, [this] {
    Pump();
    {
      Span s(spans_, kSpanHandle);
      node_->TickElection();
    }
    Pump();
  });
  return tick_timer_ >= 0;
}

void TracedNode::StepOnce(int timeout_ms) {
  {
    Span s(spans_, kSpanWait);
    transport_->loop().Wait(timeout_ms);
  }
  {
    Span s(spans_, kSpanFlush);
    transport_->Flush();
  }
  Pump();
  {
    Span s(spans_, kSpanFlush);
    transport_->Flush();
  }
  ++passes_;
  const opx::NodeId leader = node_->leader_hint();
  if (leader != last_leader_) {
    if (last_leader_ != opx::kNoNode) {
      ++leader_changes_;
    }
    last_leader_ = leader;
  }
}

void TracedNode::Run(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    StepOnce(20);
    if (capture_wanted_.load(std::memory_order_acquire)) {
      ServeCapture();
    }
  }
}

void TracedNode::ServeCapture() {
  std::lock_guard<std::mutex> lock(mu_);
  if (capture_out_ != nullptr) {
    Fill(capture_out_);
    capture_out_ = nullptr;
  }
  capture_wanted_.store(false, std::memory_order_release);
  ++captures_done_;
  cv_.notify_all();
}

void TracedNode::Capture(NodeCapture* out) {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t target = captures_done_ + 1;
  capture_out_ = out;
  capture_wanted_.store(true, std::memory_order_release);
  cv_.wait(lock, [&] { return captures_done_ >= target; });
}

void TracedNode::Fill(NodeCapture* out) const {
  out->spans = spans_.totals();
  out->at_ns = NowNs();
  out->decided = node_->decided_idx();
  out->reads_served = reads_served_;
  out->passes = passes_;
  out->leader_changes = leader_changes_;
  out->is_leader = node_->IsLeader();
  out->accept_msgs = accept_msgs_;
  out->accept_entries = accept_entries_;
  out->wal_syncs = wal_syncs_;
  out->wal_bytes = env_.bytes_appended();
  out->wal_segment_seq = durable_ == nullptr ? 0 : durable_->wal().active_seq();
  out->net_bytes_out = CounterValue(metrics_, "net.bytes_out");
  out->net_frames_out = CounterValue(metrics_, "net.frames_out");
  out->net_frames_shared = CounterValue(metrics_, "net.frames_shared");
  out->net_writev = CounterValue(metrics_, "net.writev_calls");
  out->sync_ns = sync_ns_;
}

void TracedNode::OnPeerMessage(opx::NodeId from, opx::omni::OmniMessage msg) {
  {
    Span s(spans_, kSpanHandle);
    node_->Handle(from, std::move(msg));
  }
  Pump();
}

void TracedNode::OnClientFrame(uint64_t client, const uint8_t* data, size_t len) {
  Span span(spans_, kSpanClient);
  clients_.insert(client);
  if (len == 0) {
    return;
  }
  switch (data[0]) {
    case 0x01: {
      if (len < 1 + 8 + 4) {
        return;
      }
      uint64_t cmd_id = 0;
      uint32_t payload = 0;
      for (int i = 0; i < 8; ++i) {
        cmd_id |= static_cast<uint64_t>(data[1 + i]) << (8 * i);
      }
      for (int i = 0; i < 4; ++i) {
        payload |= static_cast<uint32_t>(data[9 + i]) << (8 * i);
      }
      if (node_->IsLeader()) {
        Span s(spans_, kSpanAppend);
        node_->Append(opx::omni::Entry::Command(cmd_id, payload));
      } else {
        std::vector<uint8_t> redirect;
        redirect.push_back(0x05);
        PutU32(&redirect, static_cast<uint32_t>(node_->leader_hint()));
        transport_->SendToClient(client, redirect.data(), redirect.size());
      }
      break;
    }
    case 0x06: {
      if (len < 1 + 8 + 8) {
        return;
      }
      uint64_t read_id = 0;
      uint64_t watermark = 0;
      for (int i = 0; i < 8; ++i) {
        read_id |= static_cast<uint64_t>(data[1 + i]) << (8 * i);
        watermark |= static_cast<uint64_t>(data[9 + i]) << (8 * i);
      }
      const opx::LogIndex decided = node_->decided_idx();
      const bool served = node_->CanServeLocalReads() && decided >= watermark;
      reads_served_ += served ? 1 : 0;
      std::vector<uint8_t> reply;
      reply.push_back(0x07);
      PutU64(&reply, read_id);
      PutU64(&reply, decided);
      reply.push_back(served ? 1 : 0);
      PutU32(&reply, static_cast<uint32_t>(node_->leader_hint()));
      transport_->SendToClient(client, reply.data(), reply.size());
      break;
    }
    case 0x03: {
      std::vector<uint8_t> status;
      status.push_back(0x04);
      PutU32(&status, static_cast<uint32_t>(node_->leader_hint()));
      PutU64(&status, node_->decided_idx());
      PutU64(&status, node_->log_len());
      status.push_back(node_->IsLeader() ? 1 : 0);
      PutU64(&status, storage_->compacted_idx());
      transport_->SendToClient(client, status.data(), status.size());
      break;
    }
    default:
      break;
  }
}

void TracedNode::Pump() {
  Span pump(spans_, kSpanPump);
  std::vector<opx::omni::OmniOut> outs;
  {
    Span s(spans_, kSpanTakeOut);
    outs = node_->TakeOutgoing();
  }
  const opx::omni::OmniMessage* prev = nullptr;
  for (const opx::omni::OmniOut& out : outs) {
    if (const auto* paxos = std::get_if<opx::omni::PaxosMessage>(&out.body)) {
      if (const auto* ad = std::get_if<opx::omni::AcceptDecide>(paxos)) {
        if (!ad->entries.empty()) {
          ++accept_msgs_;
          accept_entries_ += ad->entries.size();
        }
      }
    }
    Span s(spans_, kSpanSend);
    if (prev == nullptr || !opx::omni::SameWireBody(*prev, out.body) ||
        !transport_->SendRepeat(out.to)) {
      transport_->Send(out.to, out.body);
    }
    prev = &out.body;
  }
  const opx::LogIndex decided = node_->decided_idx();
  if (pushed_ < storage_->compacted_idx()) {
    pushed_ = storage_->compacted_idx();
  }
  if (pushed_ < decided && !clients_.empty()) {
    Span s(spans_, kSpanPush);
    std::vector<uint8_t> batch;
    batch.push_back(0x02);
    std::vector<uint64_t> ids;
    for (opx::LogIndex i = pushed_; i < decided; ++i) {
      const opx::omni::Entry& e = storage_->At(i);
      if (!e.IsStopSign() && e.cmd_id != 0) {
        ids.push_back(e.cmd_id);
      }
    }
    PutU32(&batch, static_cast<uint32_t>(ids.size()));
    for (uint64_t id : ids) {
      PutU64(&batch, id);
    }
    const opx::net::FrameRef frame =
        transport_->EncodeClientFrame(batch.data(), batch.size());
    const std::vector<uint64_t> targets(clients_.begin(), clients_.end());
    for (uint64_t client : targets) {
      transport_->SendToClient(client, frame);
    }
  }
  pushed_ = decided;
}

}  // namespace perfbench
