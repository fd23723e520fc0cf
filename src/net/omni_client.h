// Blocking client for an Omni-Paxos TCP cluster: connects to a server,
// appends commands, waits for decided notifications, follows leader
// redirects. Used by tools/omni_client and the runtime integration tests.
#ifndef SRC_NET_OMNI_CLIENT_H_
#define SRC_NET_OMNI_CLIENT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/net/client_wire.h"
#include "src/net/tcp_transport.h"
#include "src/util/time.h"
#include "src/util/types.h"

namespace opx::net {

class OmniClient {
 public:
  // `servers` maps node id -> endpoint; the client starts with any of them
  // and follows redirects.
  explicit OmniClient(std::map<NodeId, Endpoint> servers);
  ~OmniClient();

  OmniClient(const OmniClient&) = delete;
  OmniClient& operator=(const OmniClient&) = delete;

  // Connects to some server. False if nobody accepts within the deadline.
  bool Connect(Time deadline = Seconds(5));

  // Appends one command and returns once it is decided (or deadline passes).
  bool AppendAndWait(uint64_t cmd_id, uint32_t payload_bytes = 8,
                     Time deadline = Seconds(5));

  // Fire-and-forget append (decided ids arrive via WaitDecided).
  bool Append(uint64_t cmd_id, uint32_t payload_bytes = 8);

  // Blocks until `cmd_id` is decided or the deadline passes.
  bool WaitDecided(uint64_t cmd_id, Time deadline = Seconds(5));

  // `compacted` is 0 from servers that predate the status frame's trailing
  // compaction-floor field.
  using Status = StatusReply;
  bool GetStatus(Status* out, Time deadline = Seconds(5));

  // Linearizable leader-lease read (frame 0x06, DESIGN.md §15). Blocks until
  // a leader holding the lease serves it with a decided index >= `watermark`
  // (pass the decided index of your last completed write for read-your-writes;
  // 0 for a plain snapshot-consistent read). Follows redirects like
  // AppendAndWait. On success stores the read's serialization point in
  // `*decided_out` (if non-null).
  bool LeaseRead(uint64_t watermark, uint64_t* decided_out = nullptr,
                 Time deadline = Seconds(5));

  NodeId connected_to() const { return connected_to_; }
  uint64_t decided_count() const { return decided_.size(); }

 private:
  bool ConnectTo(NodeId id);
  bool SendFrame(const uint8_t* payload, size_t len);
  // Reads one frame (blocking up to deadline); false on timeout/disconnect.
  bool ReadFrame(std::vector<uint8_t>* frame, Time deadline);
  void HandleFrame(const std::vector<uint8_t>& frame, Status* status_out);
  void Disconnect();

  std::map<NodeId, Endpoint> servers_;
  int fd_ = -1;
  NodeId connected_to_ = kNoNode;
  NodeId redirect_hint_ = kNoNode;
  std::set<uint64_t> decided_;
  std::vector<uint8_t> read_buf_;
  uint64_t next_read_id_ = 1;
  std::map<uint64_t, ReadReply> read_replies_;
};

}  // namespace opx::net

#endif  // SRC_NET_OMNI_CLIENT_H_
