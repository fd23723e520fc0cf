#include "src/net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstring>
#include <limits>

#include "src/util/check.h"
#include "src/util/logging.h"

namespace opx::net {
namespace {

// A decimal number no larger than `max`, with no sign, space or trailing
// character.
bool ParseDecimal(std::string_view text, uint64_t max, uint64_t* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value > max) {
    return false;
  }
  *out = value;
  return true;
}

Time MonotonicNow() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Frames per writev. Far below IOV_MAX; past ~64 the syscall amortization is
// already >98% and the iovec array stays cache-resident on the stack.
constexpr size_t kMaxIov = 64;

}  // namespace

bool ParsePort(std::string_view text, uint16_t* port) {
  uint64_t value = 0;
  if (!ParseDecimal(text, std::numeric_limits<uint16_t>::max(), &value)) {
    return false;
  }
  *port = static_cast<uint16_t>(value);
  return true;
}

bool ParseEndpoints(std::string_view spec, std::map<NodeId, Endpoint>* out) {
  std::map<NodeId, Endpoint> parsed;
  size_t pos = 0;
  for (;;) {
    const size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string_view item = spec.substr(pos, comma - pos);
    const size_t eq = item.find('=');
    const size_t colon = item.rfind(':');
    uint64_t id = 0;
    Endpoint endpoint;
    if (eq == std::string_view::npos || colon == std::string_view::npos || colon < eq ||
        !ParseDecimal(item.substr(0, eq), std::numeric_limits<NodeId>::max(), &id) ||
        id == kNoNode || !ParsePort(item.substr(colon + 1), &endpoint.port) ||
        endpoint.port == 0) {
      return false;
    }
    endpoint.host = item.substr(eq + 1, colon - eq - 1);
    in_addr addr{};
    if (inet_pton(AF_INET, endpoint.host.c_str(), &addr) != 1 ||
        !parsed.emplace(static_cast<NodeId>(id), std::move(endpoint)).second) {
      return false;
    }
    if (comma == spec.size()) {
      break;
    }
    pos = comma + 1;
  }
  *out = std::move(parsed);
  return true;
}

std::vector<uint16_t> FreePorts(int n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (int i = 0; i < n; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      break;
    }
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      break;
    }
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) {
    close(fd);
  }
  return ports;
}

// One TCP connection (inbound or outbound). Outbound frames live in a
// FrameQueue of refcounted encoded buffers (shared across peers for
// broadcasts); inbound bytes stream through a FrameReader.
struct TcpTransport::Connection {
  int fd = -1;
  bool outbound = false;
  bool connecting = false;  // outbound connect() in progress
  bool hello_sent = false;
  bool closed = false;
  bool dirty = false;  // queued frames since the last Flush()

  // Identity learned from the hello frame (inbound) or configuration
  // (outbound). kNoNode until known; client connections use client_id.
  NodeId peer = kNoNode;
  bool is_client = false;
  uint64_t client_id = 0;

  FrameQueue sendq;
  FrameReader reader;

  NodeId outbound_peer = kNoNode;  // which peer this outbound conn serves
  Time retry_at = 0;               // for outbound reconnect backoff
};

TcpTransport::TcpTransport(NodeId self, uint16_t listen_port,
                           std::map<NodeId, Endpoint> peers)
    : self_(self), listen_port_(listen_port), peers_(std::move(peers)) {}

TcpTransport::~TcpTransport() { Stop(); }

void TcpTransport::WireObs(obs::Metrics* m) {
#if defined(OPX_OBS_ENABLED)
  if (m != nullptr) {
    met_ = obs::NetMetrics::Wire(m);
  }
#else
  (void)m;
#endif
}

bool TcpTransport::Start() {
  if (!loop_.ok()) {
    return false;
  }
  // A peer dying mid-send must surface as EPIPE from writev, not kill the
  // process; connection churn is normal operation here.
  signal(SIGPIPE, SIG_IGN);
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return false;
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(listen_port_);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 64) != 0 ||
      !loop_.Add(listen_fd_, [this](uint32_t) { AcceptNew(); })) {
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    listen_port_ = ntohs(addr.sin_port);
  }
  // Outbound link maintenance lives on a timerfd inside the same epoll wait:
  // dropped links retry with backoff, closed inbound connections get GC'd.
  reconnect_timer_ = loop_.AddTimer(Millis(50), [this] { ReconnectSweep(); });
  for (const auto& [peer, endpoint] : peers_) {
    StartConnect(peer);
  }
  return true;
}

void TcpTransport::Stop() {
  if (reconnect_timer_ >= 0) {
    loop_.CancelTimer(reconnect_timer_);
    reconnect_timer_ = -1;
  }
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& conn : connections_) {
    if (conn->fd >= 0) {
      loop_.Remove(conn->fd);
      close(conn->fd);
      conn->fd = -1;
    }
  }
  connections_.clear();
  outbound_.clear();
  clients_.clear();
  dirty_.clear();
  last_sent_ = nullptr;
}

void TcpTransport::StartConnect(NodeId peer) {
  const Endpoint& endpoint = peers_.at(peer);
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return;
  }
  SetNoDelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return;
  }
  // fd is O_NONBLOCK; EINPROGRESS parks completion on the EPOLLOUT edge.
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));  // NOLINT(opx-blocking-in-loop)
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->outbound = true;
  conn->outbound_peer = peer;
  conn->peer = peer;
  conn->connecting = rc != 0 && errno == EINPROGRESS;
  if (rc != 0 && !conn->connecting) {
    close(fd);
    conn->fd = -1;
    conn->closed = true;
    conn->retry_at = MonotonicNow() + Millis(200);
  }
  Connection* raw = conn.get();
  if (raw->fd >= 0 && !loop_.Add(raw->fd, [this, raw](uint32_t bits) { OnIo(*raw, bits); })) {
    close(raw->fd);
    raw->fd = -1;
    raw->closed = true;
    raw->retry_at = MonotonicNow() + Millis(200);
  }
  connections_.push_back(std::move(conn));
  outbound_[peer] = raw;
  if (raw->fd >= 0 && !raw->connecting) {
    // Connected immediately (localhost): send hello.
    HandleWritable(*raw);
  }
}

void TcpTransport::MarkDirty(Connection& conn) {
  if (!conn.dirty) {
    conn.dirty = true;
    dirty_.push_back(&conn);
  }
}

void TcpTransport::Send(NodeId to, const omni::OmniMessage& msg) {
  auto it = outbound_.find(to);
  if (it == outbound_.end() || it->second->closed || it->second->connecting) {
    // Link down: drop (protocols recover via resync). Clear the share memo —
    // a following SendRepeat must not replay an OLDER message's bytes.
    last_sent_ = nullptr;
    return;
  }
  FrameRef frame = pool_.Acquire();
  omni::EncodeFrame(msg, &frame->bytes);
  last_sent_ = frame;
  it->second->sendq.Push(std::move(frame));
  MarkDirty(*it->second);
}

bool TcpTransport::SendRepeat(NodeId to) {
  if (last_sent_ == nullptr) {
    return false;
  }
  auto it = outbound_.find(to);
  if (it == outbound_.end() || it->second->closed || it->second->connecting) {
    return true;  // link down: drop, same as Send
  }
  it->second->sendq.Push(last_sent_);
  MarkDirty(*it->second);
  if (met_.frames_shared != nullptr) {
    met_.frames_shared->Inc();
  }
  return true;
}

FrameRef TcpTransport::EncodeClientFrame(const uint8_t* data, size_t len) {
  FrameRef frame = pool_.Acquire();
  frame->bytes.reserve(4 + len);
  for (int i = 0; i < 4; ++i) {
    frame->bytes.push_back(static_cast<uint8_t>(static_cast<uint32_t>(len) >> (8 * i)));
  }
  frame->bytes.insert(frame->bytes.end(), data, data + len);
  return frame;
}

void TcpTransport::SendToClient(uint64_t client, const FrameRef& frame) {
  auto it = clients_.find(client);
  if (it != clients_.end()) {
    it->second->sendq.Push(frame);
    MarkDirty(*it->second);
  }
}

void TcpTransport::SendToAllClients(const FrameRef& frame) {
  for (const auto& [client, conn] : clients_) {
    conn->sendq.Push(frame);
    MarkDirty(*conn);
  }
}

void TcpTransport::SendToClient(uint64_t client, const uint8_t* data, size_t len) {
  auto it = clients_.find(client);
  if (it != clients_.end()) {
    it->second->sendq.PushSmall(data, len, &pool_);
    MarkDirty(*it->second);
  }
}

bool TcpTransport::PeerConnected(NodeId peer) const {
  auto it = outbound_.find(peer);
  return it != outbound_.end() && !it->second->closed && !it->second->connecting &&
         it->second->hello_sent;
}

void TcpTransport::Poll(int timeout_ms) {
  loop_.Wait(timeout_ms);
  Flush();
}

void TcpTransport::Flush() {
  if (flush_hook_ != nullptr && !dirty_.empty()) {
    // Persist-before-send: give the owner one shot at making state durable
    // before any of this batch reaches a socket.
    flush_hook_();
  }
  // Swap out the dirty list: FlushConn may close a connection, whose reopen
  // marks dirty again — that belongs to the NEXT flush round.
  std::vector<Connection*> batch;
  batch.swap(dirty_);
  for (Connection* conn : batch) {
    conn->dirty = false;
    if (!conn->closed && !conn->connecting) {
      FlushConn(*conn);
    }
  }
}

void TcpTransport::FlushConn(Connection& conn) {
  struct iovec iov[kMaxIov];
  while (!conn.sendq.empty() && !conn.closed) {
    const size_t n = conn.sendq.BuildIovecs(iov, kMaxIov);
    // conn.fd is O_NONBLOCK; EAGAIN resumes on the next EPOLLOUT edge.
    const ssize_t written = writev(conn.fd, iov, static_cast<int>(n));  // NOLINT(opx-blocking-in-loop)
    if (written < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;  // kernel buffer full; EPOLLOUT will fire when it drains
      }
      if (errno == EINTR) {
        continue;
      }
      CloseConnection(conn);
      return;
    }
    const size_t frames_before = conn.sendq.frames();
    conn.sendq.Consume(static_cast<size_t>(written), &pool_);
    if (met_.writev_calls != nullptr) {
      met_.writev_calls->Inc();
      met_.bytes_out->Inc(static_cast<uint64_t>(written));
      met_.frames_out->Inc(frames_before - conn.sendq.frames());
      met_.writev_batch_frames->Observe(static_cast<double>(n));
      met_.writev_batch_bytes->Observe(static_cast<double>(written));
    }
  }
}

void TcpTransport::AcceptNew() {
  for (;;) {
    // listen_fd_ is O_NONBLOCK: accept4 returns EAGAIN instead of waiting.
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);  // NOLINT(opx-blocking-in-loop)
    if (fd < 0) {
      return;
    }
    SetNoDelay(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    if (!loop_.Add(fd, [this, raw](uint32_t bits) { OnIo(*raw, bits); })) {
      close(fd);
      continue;
    }
    connections_.push_back(std::move(conn));
    if (met_.conns_accepted != nullptr) {
      met_.conns_accepted->Inc();
    }
  }
}

void TcpTransport::OnIo(Connection& conn, uint32_t bits) {
  if (conn.closed) {
    return;
  }
  if ((bits & EpollLoop::kError) != 0) {
    // Covers failed outbound connects (EPOLLERR before writability) and peer
    // resets; backoff (outbound) or GC (inbound) happens on the sweep.
    CloseConnection(conn);
    return;
  }
  if ((bits & EpollLoop::kWritable) != 0) {
    HandleWritable(conn);
    if (conn.closed) {
      return;
    }
  }
  if ((bits & EpollLoop::kReadable) != 0) {
    HandleReadable(conn);
  }
}

void TcpTransport::HandleWritable(Connection& conn) {
  if (conn.connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      CloseConnection(conn);
      return;
    }
    conn.connecting = false;
  }
  if (conn.outbound && !conn.hello_sent) {
    uint8_t hello[5];
    hello[0] = kHelloPeer;
    for (int i = 0; i < 4; ++i) {
      hello[1 + i] = static_cast<uint8_t>(static_cast<uint32_t>(self_) >> (8 * i));
    }
    conn.sendq.Push(EncodeClientFrame(hello, sizeof(hello)));
    MarkDirty(conn);
    conn.hello_sent = true;
    if (met_.reconnects != nullptr) {
      met_.reconnects->Inc();
    }
    // A fresh outbound session to a peer we previously lost (or first
    // contact): surface the reconnect cue.
    if (on_reconnect_) {
      on_reconnect_(conn.outbound_peer);
    }
  }
  if (flush_hook_ != nullptr && conn.dirty) {
    return;  // queued since the last Flush(): the hook runs first (see FlushHook)
  }
  FlushConn(conn);
}

void TcpTransport::HandleReadable(Connection& conn) {
  uint8_t chunk[65536];
  for (;;) {
    // conn.fd is O_NONBLOCK; EPOLLET requires draining to EAGAIN, and EAGAIN
    // is exactly what this returns instead of waiting.
    const ssize_t n = read(conn.fd, chunk, sizeof(chunk));  // NOLINT(opx-blocking-in-loop)
    if (n > 0) {
      if (met_.bytes_in != nullptr) {
        met_.bytes_in->Inc(static_cast<uint64_t>(n));
      }
      const bool ok = conn.reader.Feed(
          chunk, static_cast<size_t>(n), [this, &conn](const uint8_t* d, size_t l) {
            OnFrame(conn, d, l);
            return !conn.closed;
          });
      if (!ok) {  // oversized frame: protocol violation
        CloseConnection(conn);
        return;
      }
      if (conn.closed) {
        return;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseConnection(conn);  // EOF or hard error
    return;
  }
}

void TcpTransport::OnFrame(Connection& conn, const uint8_t* data, size_t len) {
  if (met_.frames_in != nullptr) {
    met_.frames_in->Inc();
  }
  if (!conn.outbound && conn.peer == kNoNode && !conn.is_client) {
    // Expect a hello frame.
    if (len == 5 && data[0] == kHelloPeer) {
      uint32_t id = 0;
      for (int i = 0; i < 4; ++i) {
        id |= static_cast<uint32_t>(data[1 + i]) << (8 * i);
      }
      conn.peer = static_cast<NodeId>(id);
      return;
    }
    if (len >= 1 && data[0] == kHelloClient) {
      conn.is_client = true;
      conn.client_id = static_cast<uint64_t>(next_client_id_++);
      clients_[conn.client_id] = &conn;
      return;
    }
    CloseConnection(conn);
    return;
  }
  if (conn.is_client) {
    if (on_client_frame_) {
      on_client_frame_(conn.client_id, data, len);
    }
    return;
  }
  omni::OmniMessage msg;
  if (!omni::DecodeMessage(data, len, &msg)) {
    OPX_WLOG << "dropping malformed frame from peer " << conn.peer;
    return;
  }
  if (on_message_) {
    on_message_(conn.peer, std::move(msg));
  }
}

void TcpTransport::CloseConnection(Connection& conn) {
  if (conn.fd >= 0) {
    loop_.Remove(conn.fd);
    close(conn.fd);
    conn.fd = -1;
  }
  const bool was_client = conn.is_client;
  const uint64_t client_id = conn.client_id;
  if (was_client) {
    clients_.erase(client_id);
  }
  conn.closed = true;
  conn.hello_sent = false;
  conn.connecting = false;
  conn.sendq.Clear(&pool_);
  conn.reader.Clear();
  conn.retry_at = MonotonicNow() + Millis(200);
  if (met_.conns_closed != nullptr) {
    met_.conns_closed->Inc();
  }
  if (was_client && on_client_closed_) {
    on_client_closed_(client_id);
  }
}

void TcpTransport::ReconnectSweep() {
  const Time now = MonotonicNow();
  for (const auto& [peer, endpoint] : peers_) {
    auto it = outbound_.find(peer);
    if (it == outbound_.end() || (it->second->closed && now >= it->second->retry_at)) {
      if (it != outbound_.end()) {
        outbound_.erase(it);
      }
      StartConnect(peer);
    }
  }
  // Garbage-collect closed connections. Replaced outbound entries (no longer
  // in outbound_) are dead too; current outbound placeholders stay as
  // backoff state. Purge the dirty list first — it holds raw pointers.
  std::erase_if(dirty_, [](Connection* c) { return c->closed; });
  std::erase_if(connections_, [this](const std::unique_ptr<Connection>& c) {
    if (!c->closed) {
      return false;
    }
    auto it = outbound_.find(c->outbound_peer);
    return !c->outbound || it == outbound_.end() || it->second != c.get();
  });
}

}  // namespace opx::net
