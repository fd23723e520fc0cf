// Tests for the client wire codec (src/net/client_wire.h): every frame
// round-trips, the bytes match the documented layout, and every decoder
// rejects a frame cut short anywhere or carrying another frame's tag.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "src/net/client_wire.h"

namespace opx::net {
namespace {

// Every decoder must refuse each strict prefix of a valid frame.
template <typename Frame, typename Decode>
void ExpectEveryPrefixRejected(const Frame& frame, size_t min_len, Decode decode) {
  for (size_t len = 0; len < min_len; ++len) {
    EXPECT_FALSE(decode(frame.data(), len)) << "accepted a " << len << "-byte prefix";
  }
}

TEST(ClientWire, AppendRequestRoundTrips) {
  const auto wire = EncodeAppendRequest({0x0102030405060708ull, 0xA0B0C0D0u});
  EXPECT_EQ(wire, (std::array<uint8_t, kAppendRequestBytes>{
                      0x01, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  //
                      0xD0, 0xC0, 0xB0, 0xA0}));
  AppendRequest got;
  ASSERT_TRUE(DecodeAppendRequest(wire.data(), wire.size(), &got));
  EXPECT_EQ(got.cmd_id, 0x0102030405060708ull);
  EXPECT_EQ(got.payload_bytes, 0xA0B0C0D0u);
  ExpectEveryPrefixRejected(wire, wire.size(), [&](const uint8_t* d, size_t n) {
    return DecodeAppendRequest(d, n, &got);
  });
}

TEST(ClientWire, ReadRequestRoundTrips) {
  const auto wire = EncodeReadRequest({42, 1u << 20});
  EXPECT_EQ(wire[0], kReadRequestTag);
  ReadRequest got;
  ASSERT_TRUE(DecodeReadRequest(wire.data(), wire.size(), &got));
  EXPECT_EQ(got.read_id, 42u);
  EXPECT_EQ(got.watermark, 1u << 20);
  ExpectEveryPrefixRejected(wire, wire.size(), [&](const uint8_t* d, size_t n) {
    return DecodeReadRequest(d, n, &got);
  });
  EXPECT_EQ(EncodeStatusRequest(), (std::array<uint8_t, 1>{kStatusRequestTag}));
}

TEST(ClientWire, ReadReplyRoundTrips) {
  const ReadReply reply{.read_id = 9, .decided = 77, .served = true, .leader = 3};
  const auto wire = EncodeReadReply(reply);
  ASSERT_EQ(wire.size(), 22u);  // 26 bytes on the wire with the length prefix
  ReadReply got;
  ASSERT_TRUE(DecodeReadReply(wire.data(), wire.size(), &got));
  EXPECT_EQ(got.read_id, 9u);
  EXPECT_EQ(got.decided, 77u);
  EXPECT_TRUE(got.served);
  EXPECT_EQ(got.leader, 3);
  ExpectEveryPrefixRejected(wire, wire.size(), [&](const uint8_t* d, size_t n) {
    return DecodeReadReply(d, n, &got);
  });
}

TEST(ClientWire, StatusReplyRoundTripsAndAcceptsThePrefixAlone) {
  const StatusReply status{
      .leader = 2, .decided = 100, .log_len = 120, .is_leader = true, .compacted = 64};
  const auto wire = EncodeStatusReply(status);
  StatusReply got;
  ASSERT_TRUE(DecodeStatusReply(wire.data(), wire.size(), &got));
  EXPECT_EQ(got.leader, 2);
  EXPECT_EQ(got.decided, 100u);
  EXPECT_EQ(got.log_len, 120u);
  EXPECT_TRUE(got.is_leader);
  EXPECT_EQ(got.compacted, 64u);
  // A server without the trailing compaction floor sends the 22-byte prefix.
  StatusReply old;
  ASSERT_TRUE(DecodeStatusReply(wire.data(), kStatusReplyPrefixBytes, &old));
  EXPECT_EQ(old.decided, 100u);
  EXPECT_EQ(old.compacted, 0u);
  ExpectEveryPrefixRejected(wire, kStatusReplyPrefixBytes, [&](const uint8_t* d, size_t n) {
    return DecodeStatusReply(d, n, &got);
  });
}

TEST(ClientWire, RedirectRoundTrips) {
  const auto wire = EncodeRedirect(5);
  NodeId got = kNoNode;
  ASSERT_TRUE(DecodeRedirect(wire.data(), wire.size(), &got));
  EXPECT_EQ(got, 5);
  ExpectEveryPrefixRejected(wire, wire.size(), [&](const uint8_t* d, size_t n) {
    return DecodeRedirect(d, n, &got);
  });
}

TEST(ClientWire, DecidedBatchRoundTripsAndRejectsAShortBatch) {
  const std::vector<uint64_t> ids = {1, 1ull << 40, 7};
  const std::vector<uint8_t> wire = EncodeDecidedBatch(ids);
  ASSERT_EQ(wire.size(), 5u + 8 * ids.size());
  std::vector<uint64_t> got;
  ASSERT_TRUE(DecodeDecidedBatch(wire.data(), wire.size(), &got));
  EXPECT_EQ(got, ids);
  // Any cut leaves fewer ids than the count announces: rejected whole.
  for (size_t len = 0; len < wire.size(); ++len) {
    std::vector<uint64_t> partial;
    EXPECT_FALSE(DecodeDecidedBatch(wire.data(), len, &partial)) << len;
    EXPECT_TRUE(partial.empty()) << len;
  }
  // A count near 2^32 in a short frame must not wrap the length check.
  std::vector<uint8_t> hostile = {kDecidedBatchTag, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(DecodeDecidedBatch(hostile.data(), hostile.size(), &got));
  const std::vector<uint8_t> empty = EncodeDecidedBatch({});
  got.clear();
  ASSERT_TRUE(DecodeDecidedBatch(empty.data(), empty.size(), &got));
  EXPECT_TRUE(got.empty());
}

TEST(ClientWire, DecodersRejectAnotherFramesTag) {
  const auto read_reply = EncodeReadReply({});
  StatusReply status;
  AppendRequest append;
  ReadRequest read;
  NodeId leader = kNoNode;
  std::vector<uint64_t> ids;
  // A 22-byte read reply is long enough for every fixed-size decoder.
  EXPECT_FALSE(DecodeStatusReply(read_reply.data(), read_reply.size(), &status));
  EXPECT_FALSE(DecodeAppendRequest(read_reply.data(), read_reply.size(), &append));
  EXPECT_FALSE(DecodeReadRequest(read_reply.data(), read_reply.size(), &read));
  EXPECT_FALSE(DecodeRedirect(read_reply.data(), read_reply.size(), &leader));
  EXPECT_FALSE(DecodeDecidedBatch(read_reply.data(), read_reply.size(), &ids));
  ReadReply reply;
  const auto redirect = EncodeRedirect(1);
  EXPECT_FALSE(DecodeReadReply(redirect.data(), redirect.size(), &reply));
}

}  // namespace
}  // namespace opx::net
