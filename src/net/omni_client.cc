#include "src/net/omni_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/net/frame_queue.h"
#include "src/util/le_bytes.h"

namespace opx::net {
namespace {

Time MonotonicNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using util::GetU32;
using util::PutU32;

}  // namespace

OmniClient::OmniClient(std::map<NodeId, Endpoint> servers) : servers_(std::move(servers)) {}

OmniClient::~OmniClient() { Disconnect(); }

void OmniClient::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  connected_to_ = kNoNode;
  read_buf_.clear();
}

bool OmniClient::ConnectTo(NodeId id) {
  Disconnect();
  auto it = servers_.find(id);
  if (it == servers_.end()) {
    return false;
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(it->second.port);
  if (inet_pton(AF_INET, it->second.host.c_str(), &addr.sin_addr) != 1 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return false;
  }
  fd_ = fd;
  connected_to_ = id;
  const uint8_t hello = kHelloClient;
  return SendFrame(&hello, 1);
}

bool OmniClient::Connect(Time deadline) {
  const Time until = MonotonicNow() + deadline;
  while (MonotonicNow() < until) {
    for (const auto& [id, endpoint] : servers_) {
      if (ConnectTo(id)) {
        return true;
      }
    }
    usleep(50'000);
  }
  return false;
}

bool OmniClient::SendFrame(const uint8_t* payload, size_t len) {
  if (fd_ < 0) {
    return false;
  }
  std::vector<uint8_t> wire;
  PutU32(&wire, static_cast<uint32_t>(len));
  wire.insert(wire.end(), payload, payload + len);
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd_, wire.data() + sent, wire.size() - sent);
    if (n <= 0) {
      Disconnect();
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool OmniClient::ReadFrame(std::vector<uint8_t>* frame, Time deadline) {
  const Time until = MonotonicNow() + deadline;
  for (;;) {
    // Complete frame buffered?
    if (read_buf_.size() >= 4) {
      const uint32_t len = GetU32(read_buf_.data());
      // A hostile or corrupt header is fatal for the connection: besides being
      // a protocol violation, `4 + len` wraps in uint32 for len >= 2^32-4,
      // which made the old `size() >= 4 + len` comparison pass and the
      // assign() below read far past the buffer.
      if (len > kMaxFrameBytes) {
        Disconnect();
        return false;
      }
      if (read_buf_.size() - 4 >= len) {
        frame->assign(read_buf_.begin() + 4,
                      read_buf_.begin() + 4 + static_cast<ptrdiff_t>(len));
        read_buf_.erase(read_buf_.begin(),
                        read_buf_.begin() + 4 + static_cast<ptrdiff_t>(len));
        return true;
      }
    }
    const Time remaining = until - MonotonicNow();
    if (remaining <= 0 || fd_ < 0) {
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    // Ceiling division: round partial milliseconds up without overshooting the
    // deadline by a full extra millisecond (`/ 1'000'000 + 1` slept past it).
    const int rc = poll(&pfd, 1, static_cast<int>((remaining + 999'999) / 1'000'000));
    if (rc <= 0) {
      continue;
    }
    uint8_t chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      Disconnect();
      return false;
    }
    read_buf_.insert(read_buf_.end(), chunk, chunk + n);
  }
}

void OmniClient::HandleFrame(const std::vector<uint8_t>& frame, Status* status_out) {
  if (frame.empty()) {
    return;
  }
  switch (frame[0]) {
    case kDecidedBatchTag: {
      std::vector<uint64_t> ids;
      if (DecodeDecidedBatch(frame.data(), frame.size(), &ids)) {
        decided_.insert(ids.begin(), ids.end());
      }
      break;
    }
    case kStatusReplyTag: {
      if (status_out != nullptr) {
        DecodeStatusReply(frame.data(), frame.size(), status_out);
      }
      break;
    }
    case kRedirectTag: {
      DecodeRedirect(frame.data(), frame.size(), &redirect_hint_);
      break;
    }
    case kReadReplyTag: {
      ReadReply reply;
      if (DecodeReadReply(frame.data(), frame.size(), &reply)) {
        read_replies_[reply.read_id] = reply;
      }
      break;
    }
    default:
      break;
  }
}

bool OmniClient::Append(uint64_t cmd_id, uint32_t payload_bytes) {
  if (fd_ < 0 && !Connect()) {
    return false;
  }
  const auto req = EncodeAppendRequest({cmd_id, payload_bytes});
  return SendFrame(req.data(), req.size());
}

bool OmniClient::WaitDecided(uint64_t cmd_id, Time deadline) {
  const Time until = MonotonicNow() + deadline;
  while (decided_.count(cmd_id) == 0) {
    const Time remaining = until - MonotonicNow();
    if (remaining <= 0) {
      return false;
    }
    std::vector<uint8_t> frame;
    if (!ReadFrame(&frame, std::min<Time>(remaining, Millis(200)))) {
      if (fd_ < 0 && !Connect(remaining)) {
        return false;
      }
      continue;
    }
    HandleFrame(frame, nullptr);
  }
  return true;
}

bool OmniClient::AppendAndWait(uint64_t cmd_id, uint32_t payload_bytes, Time deadline) {
  const Time until = MonotonicNow() + deadline;
  while (MonotonicNow() < until) {
    redirect_hint_ = kNoNode;
    if (!Append(cmd_id, payload_bytes)) {
      continue;
    }
    // Wait a slice for either the decided id or a redirect.
    const Time slice = std::min<Time>(until - MonotonicNow(), Millis(300));
    const Time slice_end = MonotonicNow() + slice;
    while (MonotonicNow() < slice_end && decided_.count(cmd_id) == 0 &&
           redirect_hint_ == kNoNode) {
      std::vector<uint8_t> frame;
      if (ReadFrame(&frame, Millis(50))) {
        HandleFrame(frame, nullptr);
      } else if (fd_ < 0) {
        break;
      }
    }
    if (decided_.count(cmd_id) > 0) {
      return true;
    }
    if (redirect_hint_ != kNoNode && servers_.count(redirect_hint_) > 0) {
      ConnectTo(redirect_hint_);
    } else if (fd_ < 0) {
      Connect(until - MonotonicNow());
    } else {
      // Not decided and no redirect: rotate to the next server.
      auto it = servers_.upper_bound(connected_to_);
      ConnectTo(it == servers_.end() ? servers_.begin()->first : it->first);
    }
  }
  return decided_.count(cmd_id) > 0;
}

bool OmniClient::LeaseRead(uint64_t watermark, uint64_t* decided_out, Time deadline) {
  const Time until = MonotonicNow() + deadline;
  while (MonotonicNow() < until) {
    if (fd_ < 0 && !Connect(until - MonotonicNow())) {
      return false;
    }
    const uint64_t read_id = next_read_id_++;
    const auto req = EncodeReadRequest({read_id, watermark});
    if (!SendFrame(req.data(), req.size())) {
      continue;
    }
    while (MonotonicNow() < until && read_replies_.count(read_id) == 0) {
      std::vector<uint8_t> frame;
      if (ReadFrame(&frame, Millis(50))) {
        HandleFrame(frame, nullptr);
      } else if (fd_ < 0) {
        break;
      }
    }
    const auto it = read_replies_.find(read_id);
    if (it == read_replies_.end()) {
      continue;  // disconnected mid-wait; reconnect and retry
    }
    const ReadReply info = it->second;
    read_replies_.erase(it);
    if (info.served) {
      if (decided_out != nullptr) {
        *decided_out = info.decided;
      }
      return true;
    }
    // Bounced: not the leader, lease lapsed, or behind the watermark.
    if (info.leader != kNoNode && info.leader != connected_to_ &&
        servers_.count(info.leader) > 0) {
      ConnectTo(info.leader);
    } else {
      usleep(10'000);  // mid-election or catching up; retry shortly
    }
  }
  return false;
}

bool OmniClient::GetStatus(Status* out, Time deadline) {
  if (fd_ < 0 && !Connect(deadline)) {
    return false;
  }
  const auto req = EncodeStatusRequest();
  if (!SendFrame(req.data(), req.size())) {
    return false;
  }
  const Time until = MonotonicNow() + deadline;
  while (MonotonicNow() < until) {
    std::vector<uint8_t> frame;
    if (!ReadFrame(&frame, Millis(100))) {
      if (fd_ < 0) {
        return false;
      }
      continue;
    }
    if (!frame.empty() && frame[0] == kStatusReplyTag) {
      HandleFrame(frame, out);
      return true;
    }
    HandleFrame(frame, nullptr);
  }
  return false;
}

}  // namespace opx::net
