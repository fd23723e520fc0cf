// Real TCP transport for running Omni-Paxos clusters as actual processes.
//
// Topology: every server listens on one port. For each peer, a server keeps
// ONE outbound connection used exclusively for sending protocol messages to
// that peer; inbound connections are receive-only and identified by a hello
// frame. Outbound connections reconnect with backoff; a successful
// (re-)connect after a drop raises the reconnect callback — the same cue the
// paper derives from TCP session re-establishment (§4.1.3).
//
// Framing: [u32 length][payload]. The first frame on any connection is a
// hello: [u8 kind][u32 id] (kind: peer server or client). Subsequent frames
// are codec-encoded protocol messages (peers) or client API frames (clients;
// interpreted by the server layer, not here).
//
// Hot path (DESIGN.md §14): readiness comes from an EpollLoop (registered
// interest lists, edge-triggered, timerfd-driven reconnect sweep) instead of
// a per-iteration pollfd rebuild. Sends are DEFERRED: Send/SendToClient only
// enqueue an encoded, refcounted frame (encode-once for broadcasts — see
// SendRepeat and the FrameRef overloads of SendToClient) onto the
// connection's FrameQueue, where small client replies pack into one entry;
// Flush() — called once per Poll() pass and by the server after each Pump —
// drains every dirty queue with writev(), so a burst of protocol messages
// leaves in a handful of syscalls.
//
// Single-threaded: the owner drives everything through Poll(); callbacks run
// on the polling thread. No locks, no hidden threads.
#ifndef SRC_NET_TCP_TRANSPORT_H_
#define SRC_NET_TCP_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/net/epoll_loop.h"
#include "src/net/frame_queue.h"
#include "src/obs/net_metrics.h"
#include "src/omnipaxos/codec.h"
#include "src/util/time.h"
#include "src/util/types.h"

namespace opx::net {

struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

// Parses a port number: decimal digits only, 0-65535 (0 lets the kernel pick
// a listening port). False on anything else.
bool ParsePort(std::string_view text, uint16_t* port);

// Parses "ID=HOST:PORT,ID=HOST:PORT,..." (the --peers and --servers flags).
// HOST must be an IPv4 literal such as 127.0.0.1: the transport dials with
// inet_pton and resolves no names. Rejects the whole list, leaving `out`
// untouched, if any item lacks its `=` or `:`, has an id or port that is not
// all digits, an id of 0 (kNoNode) or beyond NodeId's range, a port outside
// 1-65535, a host that is not an IPv4 literal (a name, IPv6, empty), or an
// id given twice.
bool ParseEndpoints(std::string_view spec, std::map<NodeId, Endpoint>* out);

// Asks the kernel for `n` distinct free loopback ports by binding port 0.
// All probe sockets stay bound until every port is known, so the n ports
// differ from each other. Another process can still take a port between the
// probe and the caller's own bind; callers retry on a failed bind.
std::vector<uint16_t> FreePorts(int n);

// Hello kinds (first byte of the first frame).
constexpr uint8_t kHelloPeer = 0xFE;
constexpr uint8_t kHelloClient = 0xFD;

class TcpTransport {
 public:
  using MessageHandler = std::function<void(NodeId from, omni::OmniMessage msg)>;
  using ReconnectHandler = std::function<void(NodeId peer)>;
  // Raw frame from a client connection (id = transport-local client handle).
  using ClientFrameHandler = std::function<void(uint64_t client, const uint8_t* data, size_t len)>;
  using ClientClosedHandler = std::function<void(uint64_t client)>;
  // Runs at the top of every Flush() that has queued bytes, BEFORE anything
  // is written to a socket, so an owner can make state durable before any
  // frame queued since the last Flush() leaves. OmniTcpServer installs none:
  // it commits once per pass and holds back only the votes (DESIGN.md §17).
  // While a hook is installed, a connection with frames queued since the
  // last Flush() is written only by Flush(): edge-triggered epoll reports
  // EPOLLOUT with every EPOLLIN on a writable socket, so the writable handler
  // would otherwise send frames queued earlier in the same dispatch before
  // the hook ran. EPOLLOUT resumes then rewrite only bytes a previous Flush()
  // already covered.
  using FlushHook = std::function<void()>;

  TcpTransport(NodeId self, uint16_t listen_port, std::map<NodeId, Endpoint> peers);
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void set_message_handler(MessageHandler h) { on_message_ = std::move(h); }
  void set_reconnect_handler(ReconnectHandler h) { on_reconnect_ = std::move(h); }
  void set_client_frame_handler(ClientFrameHandler h) { on_client_frame_ = std::move(h); }
  void set_client_closed_handler(ClientClosedHandler h) { on_client_closed_ = std::move(h); }
  void set_flush_hook(FlushHook h) { flush_hook_ = std::move(h); }

  // Binds + listens and initiates the first round of peer connects.
  // Returns false if the listen socket cannot be created.
  bool Start();

  // The port actually bound (useful with listen_port = 0).
  uint16_t listen_port() const { return listen_port_; }

  // Queues a protocol message to a peer (encoded once, scratch buffer from
  // the frame pool). Messages are dropped if the connection is down (the
  // protocols handle loss via resynchronization). Actual I/O happens at the
  // next Flush().
  void Send(NodeId to, const omni::OmniMessage& msg);

  // Queues the most recently Send()-encoded frame to another peer WITHOUT
  // re-encoding — the broadcast fast path. Valid only when the caller proved
  // the bytes are identical (codec::SameWireBody on the two messages).
  // Returns false when there is no such frame (the previous Send was dropped
  // link-down); the caller falls back to Send().
  bool SendRepeat(NodeId to);

  // Queues a small frame to a connected client. Replies queued to one client
  // before the next Flush() pack into one send-queue entry (one iovec).
  void SendToClient(uint64_t client, const uint8_t* data, size_t len);

  // Encode-once client push: wrap a payload as a frame, then queue the SAME
  // refcounted frame to any number of clients.
  FrameRef EncodeClientFrame(const uint8_t* data, size_t len);
  void SendToClient(uint64_t client, const FrameRef& frame);
  void SendToAllClients(const FrameRef& frame);
  size_t client_count() const { return clients_.size(); }

  // Processes I/O for up to timeout_ms (0 = non-blocking pass): one epoll
  // wait + inline handler dispatch, then a Flush(). Reconnect backoff runs
  // off a timerfd inside the same wait.
  void Poll(int timeout_ms);

  // Drains every connection with pending frames via writev(). Called by
  // Poll(); the server also calls it after out-of-poll Pump() batches.
  void Flush();

  void Stop();

  bool PeerConnected(NodeId peer) const;

  // The readiness core, exposed so the owning server can hang its own
  // timerfds (election tick) on the same wait.
  EpollLoop& loop() { return loop_; }

  // Points the net.* instruments at `m` (obs registry). No-op when the build
  // has OPX_OBS=OFF; unwired, every update site is a single null check.
  void WireObs(obs::Metrics* m);

 private:
  struct Connection;

  void AcceptNew();
  void StartConnect(NodeId peer);
  void OnIo(Connection& conn, uint32_t bits);
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  void CloseConnection(Connection& conn);
  void OnFrame(Connection& conn, const uint8_t* data, size_t len);
  void FlushConn(Connection& conn);
  void MarkDirty(Connection& conn);
  void ReconnectSweep();

  NodeId self_;
  uint16_t listen_port_;
  std::map<NodeId, Endpoint> peers_;
  int listen_fd_ = -1;
  int reconnect_timer_ = -1;

  EpollLoop loop_;
  FramePool pool_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::map<NodeId, Connection*> outbound_;  // per-peer send connection
  // Open client connections by client id: added at the client hello, erased
  // at close.
  std::unordered_map<uint64_t, Connection*> clients_;
  std::vector<Connection*> dirty_;          // queues touched since last Flush
  FrameRef last_sent_;                      // SendRepeat's share source
  int64_t next_client_id_ = 1;

  obs::NetMetrics met_;  // null instruments until WireObs

  MessageHandler on_message_;
  ReconnectHandler on_reconnect_;
  ClientFrameHandler on_client_frame_;
  ClientClosedHandler on_client_closed_;
  FlushHook flush_hook_;
};

}  // namespace opx::net

#endif  // SRC_NET_TCP_TRANSPORT_H_
