// The client wire protocol: the frames a client and an OmniTcpServer
// exchange after the kHelloClient hello. Each is the payload of one
// [u32 length][payload] transport frame; integers are little-endian.
//
//   -> [0x01][u64 cmd_id][u32 payload_bytes]     append request
//   <- [0x02][u32 n][u64 cmd_id × n]             decided batch (pushed)
//   -> [0x03]                                    status request
//   <- [0x04][u32 leader][u64 decided][u64 len][u8 is_leader][u64 compacted]
//   <- [0x05][u32 leader]                        redirect (not leader)
//   -> [0x06][u64 read_id][u64 watermark]        lease read request
//   <- [0x07][u64 read_id][u64 decided][u8 served][u32 leader]
//
// The server and OmniClient both speak through these functions. Fixed-size
// frames encode in place into a std::array, so a reply costs no allocation.
// Every decoder checks the tag and the length before it reads a field and
// returns false on a short or mistagged frame; longer frames are accepted,
// so a frame may grow trailing fields. The status reply's compaction floor
// is such a field: a 22-byte status decodes with `compacted` = 0.
#ifndef SRC_NET_CLIENT_WIRE_H_
#define SRC_NET_CLIENT_WIRE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/le_bytes.h"
#include "src/util/types.h"

namespace opx::net {

constexpr uint8_t kAppendRequestTag = 0x01;
constexpr uint8_t kDecidedBatchTag = 0x02;
constexpr uint8_t kStatusRequestTag = 0x03;
constexpr uint8_t kStatusReplyTag = 0x04;
constexpr uint8_t kRedirectTag = 0x05;
constexpr uint8_t kReadRequestTag = 0x06;
constexpr uint8_t kReadReplyTag = 0x07;

constexpr size_t kAppendRequestBytes = 1 + 8 + 4;
constexpr size_t kStatusReplyPrefixBytes = 1 + 4 + 8 + 8 + 1;
constexpr size_t kStatusReplyBytes = kStatusReplyPrefixBytes + 8;
constexpr size_t kRedirectBytes = 1 + 4;
constexpr size_t kReadRequestBytes = 1 + 8 + 8;
constexpr size_t kReadReplyBytes = 1 + 8 + 8 + 1 + 4;

struct AppendRequest {
  uint64_t cmd_id = 0;
  uint32_t payload_bytes = 0;
};

struct StatusReply {
  NodeId leader = kNoNode;
  uint64_t decided = 0;
  uint64_t log_len = 0;
  bool is_leader = false;
  // Compaction floor: log_len - compacted = log entries resident in memory.
  uint64_t compacted = 0;
};

struct ReadRequest {
  uint64_t read_id = 0;
  uint64_t watermark = 0;
};

struct ReadReply {
  uint64_t read_id = 0;
  uint64_t decided = 0;  // the read's serialization point
  bool served = false;
  NodeId leader = kNoNode;
};

// --- requests (client -> server) -------------------------------------------

inline std::array<uint8_t, kAppendRequestBytes> EncodeAppendRequest(const AppendRequest& r) {
  std::array<uint8_t, kAppendRequestBytes> out;
  out[0] = kAppendRequestTag;
  util::StoreU64(out.data() + 1, r.cmd_id);
  util::StoreU32(out.data() + 9, r.payload_bytes);
  return out;
}

inline bool DecodeAppendRequest(const uint8_t* data, size_t len, AppendRequest* out) {
  if (len < kAppendRequestBytes || data[0] != kAppendRequestTag) {
    return false;
  }
  out->cmd_id = util::GetU64(data + 1);
  out->payload_bytes = util::GetU32(data + 9);
  return true;
}

inline std::array<uint8_t, 1> EncodeStatusRequest() { return {kStatusRequestTag}; }

inline std::array<uint8_t, kReadRequestBytes> EncodeReadRequest(const ReadRequest& r) {
  std::array<uint8_t, kReadRequestBytes> out;
  out[0] = kReadRequestTag;
  util::StoreU64(out.data() + 1, r.read_id);
  util::StoreU64(out.data() + 9, r.watermark);
  return out;
}

inline bool DecodeReadRequest(const uint8_t* data, size_t len, ReadRequest* out) {
  if (len < kReadRequestBytes || data[0] != kReadRequestTag) {
    return false;
  }
  out->read_id = util::GetU64(data + 1);
  out->watermark = util::GetU64(data + 9);
  return true;
}

// --- replies (server -> client) --------------------------------------------

inline std::vector<uint8_t> EncodeDecidedBatch(const std::vector<uint64_t>& ids) {
  std::vector<uint8_t> out(5 + 8 * ids.size());
  out[0] = kDecidedBatchTag;
  util::StoreU32(out.data() + 1, static_cast<uint32_t>(ids.size()));
  for (size_t i = 0; i < ids.size(); ++i) {
    util::StoreU64(out.data() + 5 + 8 * i, ids[i]);
  }
  return out;
}

// Appends the batch's ids to `ids`. A count the frame cannot hold is a
// malformed frame, not a partial batch.
inline bool DecodeDecidedBatch(const uint8_t* data, size_t len, std::vector<uint64_t>* ids) {
  if (len < 5 || data[0] != kDecidedBatchTag) {
    return false;
  }
  const uint32_t count = util::GetU32(data + 1);
  if (count > (len - 5) / 8) {
    return false;
  }
  for (size_t i = 0; i < count; ++i) {
    ids->push_back(util::GetU64(data + 5 + 8 * i));
  }
  return true;
}

inline std::array<uint8_t, kStatusReplyBytes> EncodeStatusReply(const StatusReply& s) {
  std::array<uint8_t, kStatusReplyBytes> out;
  out[0] = kStatusReplyTag;
  util::StoreU32(out.data() + 1, static_cast<uint32_t>(s.leader));
  util::StoreU64(out.data() + 5, s.decided);
  util::StoreU64(out.data() + 13, s.log_len);
  out[21] = s.is_leader ? 1 : 0;
  util::StoreU64(out.data() + 22, s.compacted);
  return out;
}

inline bool DecodeStatusReply(const uint8_t* data, size_t len, StatusReply* out) {
  if (len < kStatusReplyPrefixBytes || data[0] != kStatusReplyTag) {
    return false;
  }
  out->leader = static_cast<NodeId>(util::GetU32(data + 1));
  out->decided = util::GetU64(data + 5);
  out->log_len = util::GetU64(data + 13);
  out->is_leader = data[21] != 0;
  out->compacted = len >= kStatusReplyBytes ? util::GetU64(data + 22) : 0;
  return true;
}

inline std::array<uint8_t, kRedirectBytes> EncodeRedirect(NodeId leader) {
  std::array<uint8_t, kRedirectBytes> out;
  out[0] = kRedirectTag;
  util::StoreU32(out.data() + 1, static_cast<uint32_t>(leader));
  return out;
}

inline bool DecodeRedirect(const uint8_t* data, size_t len, NodeId* leader) {
  if (len < kRedirectBytes || data[0] != kRedirectTag) {
    return false;
  }
  *leader = static_cast<NodeId>(util::GetU32(data + 1));
  return true;
}

inline std::array<uint8_t, kReadReplyBytes> EncodeReadReply(const ReadReply& r) {
  std::array<uint8_t, kReadReplyBytes> out;
  out[0] = kReadReplyTag;
  util::StoreU64(out.data() + 1, r.read_id);
  util::StoreU64(out.data() + 9, r.decided);
  out[17] = r.served ? 1 : 0;
  util::StoreU32(out.data() + 18, static_cast<uint32_t>(r.leader));
  return out;
}

inline bool DecodeReadReply(const uint8_t* data, size_t len, ReadReply* out) {
  if (len < kReadReplyBytes || data[0] != kReadReplyTag) {
    return false;
  }
  out->read_id = util::GetU64(data + 1);
  out->decided = util::GetU64(data + 9);
  out->served = data[17] != 0;
  out->leader = static_cast<NodeId>(util::GetU32(data + 18));
  return true;
}

}  // namespace opx::net

#endif  // SRC_NET_CLIENT_WIRE_H_
