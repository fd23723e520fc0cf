// Unit + integration tests for the net hot path (DESIGN.md §14): framing
// building blocks (FrameQueue/FrameReader partial-I/O resumption, small-reply
// packing), the epoll readiness core, and a 64-connection multiplexing run
// against a real three-server loopback cluster. Suite names contain "Tcp" so
// the TSan smoke filter (*Tcp*) picks them up.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/epoll_loop.h"
#include "src/net/frame_queue.h"
#include "src/net/omni_client.h"
#include "src/net/tcp_transport.h"
#include "tests/tcp_cluster.h"

namespace opx {
namespace {

using net::EpollLoop;
using net::Endpoint;
using net::FramePool;
using net::FrameQueue;
using net::FrameReader;
using net::FrameRef;
using net::OmniClient;

// Builds a [u32 length][payload] frame whose payload is `n` bytes of `fill`.
FrameRef MakeFrame(FramePool* pool, size_t n, uint8_t fill) {
  FrameRef f = pool->Acquire();
  f->bytes.resize(4);
  f->bytes.insert(f->bytes.end(), n, fill);
  net::PatchFrameLength(&f->bytes, 0);
  return f;
}

// --- FrameQueue: writev building + partial-write resumption ---------------

TEST(TcpFrameQueue, BuildIovecsCoversQueuedFramesInOrder) {
  FramePool pool;
  FrameQueue q;
  q.Push(MakeFrame(&pool, 10, 0xAA));
  q.Push(MakeFrame(&pool, 20, 0xBB));
  q.Push(MakeFrame(&pool, 30, 0xCC));
  EXPECT_EQ(q.frames(), 3u);
  EXPECT_EQ(q.bytes(), (4u + 10) + (4 + 20) + (4 + 30));

  struct iovec iov[8];
  const size_t n = q.BuildIovecs(iov, 8);
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(iov[0].iov_len, 14u);
  EXPECT_EQ(iov[1].iov_len, 24u);
  EXPECT_EQ(iov[2].iov_len, 34u);
  // max_iov caps the batch without losing frames.
  EXPECT_EQ(q.BuildIovecs(iov, 2), 2u);
}

TEST(TcpFrameQueue, PartialConsumeResumesMidFrame) {
  FramePool pool;
  FrameQueue q;
  q.Push(MakeFrame(&pool, 10, 0xAA));  // 14 bytes on the wire
  q.Push(MakeFrame(&pool, 10, 0xBB));  // 14 bytes

  // Kernel accepted the first frame and 5 bytes of the second.
  q.Consume(14 + 5, &pool);
  EXPECT_EQ(q.frames(), 1u);
  EXPECT_EQ(q.bytes(), 9u);

  struct iovec iov[4];
  ASSERT_EQ(q.BuildIovecs(iov, 4), 1u);
  EXPECT_EQ(iov[0].iov_len, 9u);  // resumes at the offset, not the frame start
  const auto* base = static_cast<const uint8_t*>(iov[0].iov_base);
  EXPECT_EQ(base[0], 0xBB);  // 5 bytes in: past the header, into the payload

  // A second short write inside the SAME frame advances the offset again.
  q.Consume(3, &pool);
  ASSERT_EQ(q.BuildIovecs(iov, 4), 1u);
  EXPECT_EQ(iov[0].iov_len, 6u);

  q.Consume(6, &pool);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(TcpFrameQueue, ConsumeAcrossSeveralFrameBoundaries) {
  FramePool pool;
  FrameQueue q;
  for (int i = 0; i < 4; ++i) {
    q.Push(MakeFrame(&pool, 6, static_cast<uint8_t>(i)));  // 10 bytes each
  }
  // One writev return spanning frames 0, 1, 2 and one byte of frame 3.
  q.Consume(31, &pool);
  EXPECT_EQ(q.frames(), 1u);
  EXPECT_EQ(q.bytes(), 9u);
  // The three fully-sent (sole-reference) frames were recycled.
  EXPECT_EQ(pool.pooled(), 3u);
}

TEST(TcpFrameQueue, SharedBroadcastFrameIsPooledOnlyByLastQueue) {
  FramePool pool;
  FrameQueue a;
  FrameQueue b;
  FrameRef shared = MakeFrame(&pool, 8, 0xEE);
  a.Push(shared);
  b.Push(shared);
  shared = nullptr;  // queues hold the only references now

  a.Consume(12, &pool);
  EXPECT_EQ(pool.pooled(), 0u);  // b still holds a reference
  b.Consume(12, &pool);
  EXPECT_EQ(pool.pooled(), 1u);  // last owner recycles it
}

TEST(TcpFrameQueue, ClearRecyclesEverything) {
  FramePool pool;
  FrameQueue q;
  q.Push(MakeFrame(&pool, 5, 0x01));
  q.Push(MakeFrame(&pool, 5, 0x02));
  q.Clear(&pool);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_EQ(pool.pooled(), 2u);
  // A cleared queue rebuilds from a zero offset.
  q.Push(MakeFrame(&pool, 5, 0x03));
  struct iovec iov[1];
  ASSERT_EQ(q.BuildIovecs(iov, 1), 1u);
  EXPECT_EQ(iov[0].iov_len, 9u);
}

// --- FrameQueue small-frame path: client replies packed per connection ----

// The payload of reply `i`: a length that varies with i, filled with i.
std::vector<uint8_t> Reply(size_t i) {
  return std::vector<uint8_t>(1 + i % 40, static_cast<uint8_t>(i));
}

// Concatenates the bytes the queue's iovecs cover, front entry first.
std::vector<uint8_t> Unsent(const FrameQueue& q) {
  struct iovec iov[64];
  const size_t n = q.BuildIovecs(iov, 64);
  std::vector<uint8_t> out;
  for (size_t i = 0; i < n; ++i) {
    const auto* base = static_cast<const uint8_t*>(iov[i].iov_base);
    out.insert(out.end(), base, base + iov[i].iov_len);
  }
  return out;
}

std::vector<std::vector<uint8_t>> Frames(const std::vector<uint8_t>& wire) {
  FrameReader reader;
  std::vector<std::vector<uint8_t>> got;
  EXPECT_TRUE(reader.Feed(wire.data(), wire.size(), [&](const uint8_t* d, size_t n) {
    got.emplace_back(d, d + n);
    return true;
  }));
  EXPECT_EQ(reader.buffered(), 0u);
  return got;
}

TEST(TcpFrameQueue, SmallFramesJoinTheOpenTailInOrder) {
  FramePool pool;
  FrameQueue q;
  size_t wire_bytes = 0;
  for (size_t i = 0; i < 5; ++i) {
    const std::vector<uint8_t> reply = Reply(i);
    q.PushSmall(reply.data(), reply.size(), &pool);
    wire_bytes += 4 + reply.size();
  }
  EXPECT_EQ(q.frames(), 1u);
  EXPECT_EQ(q.bytes(), wire_bytes);
  const std::vector<std::vector<uint8_t>> got = Frames(Unsent(q));
  ASSERT_EQ(got.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got[i], Reply(i)) << "reply " << i;
  }
  // Once the entry is sent and recycled, the next reply opens a fresh one.
  q.Consume(wire_bytes, &pool);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(pool.pooled(), 1u);
  const std::vector<uint8_t> reply = Reply(5);
  q.PushSmall(reply.data(), reply.size(), &pool);
  EXPECT_EQ(q.frames(), 1u);
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(Frames(Unsent(q)), std::vector<std::vector<uint8_t>>{Reply(5)});
}

TEST(TcpFrameQueue, SmallFrameNeverJoinsASharedOrPushedFrame) {
  FramePool pool;
  FrameQueue a;
  FrameQueue b;
  const uint8_t reply[3] = {7, 7, 7};
  // The decided push: one frame in both queues.
  FrameRef shared = MakeFrame(&pool, 8, 0xEE);
  a.Push(shared);
  b.Push(shared);
  a.PushSmall(reply, sizeof(reply), &pool);
  EXPECT_EQ(a.frames(), 2u);
  EXPECT_EQ(shared->bytes.size(), 12u);  // b sends exactly what it queued
  EXPECT_EQ(b.bytes(), 12u);

  // A frame added by Push is closed to packing even when nothing shares it;
  // replies after it open one new entry and pack into that.
  FrameQueue q;
  q.Push(MakeFrame(&pool, 8, 0x11));
  q.PushSmall(reply, sizeof(reply), &pool);
  q.PushSmall(reply, sizeof(reply), &pool);
  EXPECT_EQ(q.frames(), 2u);
  q.Push(MakeFrame(&pool, 8, 0x22));
  q.PushSmall(reply, sizeof(reply), &pool);
  EXPECT_EQ(q.frames(), 4u);
  const std::vector<std::vector<uint8_t>> got = Frames(Unsent(q));
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0], std::vector<uint8_t>(8, 0x11));
  EXPECT_EQ(got[3], std::vector<uint8_t>(8, 0x22));
  EXPECT_EQ(got[4], std::vector<uint8_t>(reply, reply + 3));
}

TEST(TcpFrameQueue, PartialWriteInsideAPackedEntryResumesAtTheRightByte) {
  // Short writevs of 1..7 bytes, with more replies packed onto the entry
  // between them; the bytes "sent" must re-frame into the original replies.
  FramePool pool;
  FrameQueue q;
  std::vector<uint8_t> sent;
  size_t queued = 0;
  for (size_t step = 0; step < 200 || !q.empty(); ++step) {
    if (step < 200 && step % 3 == 0) {
      const std::vector<uint8_t> reply = Reply(queued++);
      q.PushSmall(reply.data(), reply.size(), &pool);
    }
    const std::vector<uint8_t> unsent = Unsent(q);
    const size_t written = std::min<size_t>(1 + step % 7, unsent.size());
    sent.insert(sent.end(), unsent.begin(), unsent.begin() + static_cast<ptrdiff_t>(written));
    q.Consume(written, &pool);
    EXPECT_EQ(q.bytes(), unsent.size() - written);
  }
  FrameReader reader;
  std::vector<std::vector<uint8_t>> got;
  for (uint8_t byte : sent) {
    ASSERT_TRUE(reader.Feed(&byte, 1, [&](const uint8_t* d, size_t n) {
      got.emplace_back(d, d + n);
      return true;
    }));
  }
  ASSERT_EQ(got.size(), queued);
  for (size_t i = 0; i < queued; ++i) {
    EXPECT_EQ(got[i], Reply(i)) << "reply " << i;
  }
}

TEST(TcpFrameQueue, CoalesceCapStartsANewEntry) {
  FramePool pool;
  FrameQueue q;
  const std::vector<uint8_t> reply(1000, 0x5A);
  constexpr size_t kReplies = 200;  // ~200 KB: several capped entries
  for (size_t i = 0; i < kReplies; ++i) {
    q.PushSmall(reply.data(), reply.size(), &pool);
  }
  constexpr size_t kPerEntry = net::kCoalesceCapBytes / 1004;
  EXPECT_EQ(q.frames(), (kReplies + kPerEntry - 1) / kPerEntry);
  struct iovec iov[16];
  const size_t n = q.BuildIovecs(iov, 16);
  ASSERT_EQ(n, q.frames());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_LE(iov[i].iov_len, net::kCoalesceCapBytes);
    EXPECT_EQ(iov[i].iov_len % 1004, 0u);
  }
  EXPECT_EQ(Frames(Unsent(q)).size(), kReplies);
}

// --- FrameReader: short reads, including mid-length-header splits ---------

std::vector<uint8_t> EncodedFrame(const std::string& payload) {
  std::vector<uint8_t> out(4 + payload.size());
  std::memcpy(out.data() + 4, payload.data(), payload.size());
  net::PatchFrameLength(&out, 0);
  return out;
}

TEST(TcpFrameReader, ByteAtATimeSplitsTheLengthHeader) {
  FrameReader reader;
  std::vector<std::string> got;
  const std::vector<uint8_t> wire = EncodedFrame("hello");
  for (size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(reader.Feed(&wire[i], 1, [&](const uint8_t* d, size_t n) {
      got.emplace_back(reinterpret_cast<const char*>(d), n);
      return true;
    }));
    // Nothing fires until the very last byte arrives.
    EXPECT_EQ(got.size(), i + 1 == wire.size() ? 1u : 0u);
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hello");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(TcpFrameReader, ChunkBoundaryInsideSecondLengthHeader) {
  FrameReader reader;
  std::vector<std::string> got;
  std::vector<uint8_t> wire = EncodedFrame("first");
  const std::vector<uint8_t> second = EncodedFrame("second!");
  wire.insert(wire.end(), second.begin(), second.end());

  // Split two bytes into the second frame's length field.
  const size_t cut = 4 + 5 + 2;
  auto sink = [&](const uint8_t* d, size_t n) {
    got.emplace_back(reinterpret_cast<const char*>(d), n);
    return true;
  };
  ASSERT_TRUE(reader.Feed(wire.data(), cut, sink));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(reader.buffered(), 2u);  // half a length header retained

  ASSERT_TRUE(reader.Feed(wire.data() + cut, wire.size() - cut, sink));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], "second!");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(TcpFrameReader, ManyFramesInOneFeed) {
  FrameReader reader;
  std::vector<uint8_t> wire;
  for (int i = 0; i < 50; ++i) {
    const std::vector<uint8_t> f = EncodedFrame("msg" + std::to_string(i));
    wire.insert(wire.end(), f.begin(), f.end());
  }
  int count = 0;
  ASSERT_TRUE(reader.Feed(wire.data(), wire.size(), [&](const uint8_t*, size_t) {
    ++count;
    return true;
  }));
  EXPECT_EQ(count, 50);
}

TEST(TcpFrameReader, OversizedLengthIsRejected) {
  FrameReader reader;
  uint8_t bad[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB, over kMaxFrameBytes
  EXPECT_FALSE(reader.Feed(bad, sizeof(bad), [](const uint8_t*, size_t) {
    ADD_FAILURE() << "no frame should fire";
    return true;
  }));
}

TEST(TcpFrameReader, ConfigurableMaxRejectsOverBudgetFrame) {
  // A client-facing listener can run a much tighter budget than peers.
  FrameReader tight(16);
  EXPECT_EQ(tight.max_frame_bytes(), 16u);
  const std::vector<uint8_t> wire = EncodedFrame(std::string(17, 'x'));
  EXPECT_FALSE(tight.Feed(wire.data(), wire.size(), [](const uint8_t*, size_t) {
    ADD_FAILURE() << "over-budget frame must not fire";
    return true;
  }));
}

TEST(TcpFrameReader, ConfigurableMaxAcceptsFrameAtTheBound) {
  FrameReader reader(16);
  const std::vector<uint8_t> wire = EncodedFrame(std::string(16, 'x'));
  int fired = 0;
  ASSERT_TRUE(reader.Feed(wire.data(), wire.size(), [&](const uint8_t*, size_t n) {
    ++fired;
    EXPECT_EQ(n, 16u);
    return true;
  }));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(reader.buffered(), 0u);

  // The default-constructed reader still enforces the transport-wide bound.
  FrameReader dflt;
  EXPECT_EQ(dflt.max_frame_bytes(), net::kMaxFrameBytes);
}

TEST(TcpFrameReader, OnFrameMayClearTheReaderMidBatch) {
  // A connection teardown inside on_frame Clear()s the reader while Feed is
  // still iterating; the loop must survive the buffer shrinking under it.
  FrameReader reader;
  std::vector<uint8_t> wire;
  for (int i = 0; i < 3; ++i) {
    const std::vector<uint8_t> f = EncodedFrame("x");
    wire.insert(wire.end(), f.begin(), f.end());
  }
  int fired = 0;
  ASSERT_TRUE(reader.Feed(wire.data(), wire.size(), [&](const uint8_t*, size_t) {
    ++fired;
    reader.Clear();
    return false;  // connection is gone; stop extraction
  }));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(reader.buffered(), 0u);
}

// --- EpollLoop: edge-triggered readiness over real fds --------------------

class TcpEpollLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv_), 0);
  }
  void TearDown() override {
    if (sv_[0] >= 0) close(sv_[0]);
    if (sv_[1] >= 0) close(sv_[1]);
  }

  // Drains `fd` to EAGAIN, returning the bytes read.
  static size_t DrainFd(int fd) {
    size_t total = 0;
    char buf[4096];
    while (true) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      total += static_cast<size_t>(n);
    }
    return total;
  }

  int sv_[2] = {-1, -1};
};

TEST_F(TcpEpollLoopTest, EdgeTriggeredReadFiresPerBurst) {
  EpollLoop loop;
  ASSERT_TRUE(loop.ok());
  size_t received = 0;
  ASSERT_TRUE(loop.Add(sv_[0], [&](uint32_t bits) {
    if (bits & EpollLoop::kReadable) {
      received += DrainFd(sv_[0]);
    }
  }));
  ASSERT_EQ(write(sv_[1], "abcde", 5), 5);
  ASSERT_GE(loop.Wait(1000), 1);
  EXPECT_EQ(received, 5u);

  // Drained to EAGAIN, so a fresh write produces a fresh edge.
  ASSERT_EQ(write(sv_[1], "xyz", 3), 3);
  ASSERT_GE(loop.Wait(1000), 1);
  EXPECT_EQ(received, 8u);
  loop.Remove(sv_[0]);
  EXPECT_EQ(loop.watched(), 0u);
}

TEST_F(TcpEpollLoopTest, WritableEdgeAfterSendBufferDrains) {
  // Shrink the send buffer, fill it to EAGAIN, then free space on the peer
  // side: the loop must deliver a kWritable edge — the EAGAIN-resume contract
  // the transport's FlushConn relies on.
  const int small = 4096;
  setsockopt(sv_[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  std::vector<char> chunk(4096, 'z');
  size_t filled = 0;
  while (true) {
    const ssize_t n = write(sv_[0], chunk.data(), chunk.size());
    if (n < 0) {
      ASSERT_EQ(errno, EAGAIN);
      break;
    }
    filled += static_cast<size_t>(n);
  }
  ASSERT_GT(filled, 0u);

  EpollLoop loop;
  ASSERT_TRUE(loop.ok());
  int writable_edges = 0;
  ASSERT_TRUE(loop.Add(sv_[0], [&](uint32_t bits) {
    if (bits & EpollLoop::kWritable) {
      ++writable_edges;
    }
  }));
  // Buffer is full: no writable edge yet.
  loop.Wait(0);
  EXPECT_EQ(writable_edges, 0);

  // The reader consumes everything; writability transitions.
  EXPECT_EQ(DrainFd(sv_[1]), filled);
  ASSERT_GE(loop.Wait(1000), 1);
  EXPECT_EQ(writable_edges, 1);
}

TEST_F(TcpEpollLoopTest, HandlerMayRemoveItsOwnFd) {
  EpollLoop loop;
  ASSERT_TRUE(loop.ok());
  int fires = 0;
  ASSERT_TRUE(loop.Add(sv_[0], [&](uint32_t bits) {
    if (bits & EpollLoop::kReadable) {
      ++fires;
      DrainFd(sv_[0]);
      loop.Remove(sv_[0]);  // closure must stay alive through this
    }
  }));
  ASSERT_EQ(write(sv_[1], "q", 1), 1);
  ASSERT_GE(loop.Wait(1000), 1);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(loop.watched(), 0u);
  // Further traffic reaches nobody.
  ASSERT_EQ(write(sv_[1], "q", 1), 1);
  loop.Wait(50);
  EXPECT_EQ(fires, 1);
}

TEST_F(TcpEpollLoopTest, TimerFiresAndCoalescesMissedPeriods) {
  EpollLoop loop;
  ASSERT_TRUE(loop.ok());
  int ticks = 0;
  const int timer = loop.AddTimer(Millis(10), [&] { ++ticks; });
  ASSERT_GE(timer, 0);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ticks < 2 && std::chrono::steady_clock::now() < deadline) {
    loop.Wait(100);
  }
  EXPECT_GE(ticks, 2);

  // Sleep through several periods without waiting: they coalesce into one
  // dispatch on the next Wait, not a burst of catch-up ticks.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const int before = ticks;
  loop.Wait(100);
  EXPECT_EQ(ticks, before + 1);

  loop.CancelTimer(timer);
  EXPECT_EQ(loop.watched(), 0u);
}

// --- TcpTransport: the flush hook runs before any queued frame leaves ------

// Writes one [u32 len][payload] frame to a blocking socket.
bool WriteFrame(int fd, std::vector<uint8_t> payload) {
  std::vector<uint8_t> frame(4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  net::PatchFrameLength(&frame, 0);
  return write(fd, frame.data(), frame.size()) == static_cast<ssize_t>(frame.size());
}

// A blocking client socket connected to `port` that has sent its hello.
int ConnectClient(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd < 0 || connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      !WriteFrame(fd, {net::kHelloClient})) {
    ADD_FAILURE() << "cannot connect a client to port " << port;
  }
  return fd;
}

int Unread(int fd) {
  int n = 0;
  ioctl(fd, FIONREAD, &n);
  return n;
}

// Edge-triggered epoll reports EPOLLOUT with every EPOLLIN on a writable
// socket. Two clients' frames land in one epoll batch, and the handler for
// each queues a frame to the other, so whichever connection is dispatched
// second is writable with a frame queued earlier in the same dispatch. That
// frame must wait for Flush(), and so for the hook.
TEST(TcpFlushHook, FrameQueuedEarlierInTheSameDispatchWaitsForTheHook) {
  net::TcpTransport transport(1, 0, {});
  ASSERT_TRUE(transport.Start());
  // Client ids follow hello order: a is client 1, b is client 2.
  const int a = ConnectClient(transport.listen_port());
  for (int i = 0; i < 200 && transport.client_count() < 1; ++i) {
    transport.Poll(10);
  }
  const int b = ConnectClient(transport.listen_port());
  for (int i = 0; i < 200 && transport.client_count() < 2; ++i) {
    transport.Poll(10);
  }
  ASSERT_EQ(transport.client_count(), 2u);

  transport.set_client_frame_handler([&transport](uint64_t client, const uint8_t*, size_t) {
    const uint8_t reply = 0x42;
    transport.SendToClient(client == 1 ? 2 : 1, &reply, 1);
  });
  int hook_runs = 0;
  int unread_at_hook = 0;
  transport.set_flush_hook([&] {
    ++hook_runs;
    unread_at_hook += Unread(a) + Unread(b);
  });

  ASSERT_TRUE(WriteFrame(a, {0x01}));
  ASSERT_TRUE(WriteFrame(b, {0x01}));
  // Both frames sit in the kernel before the wait, so one epoll batch
  // reports both connections.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  transport.Poll(1000);
  EXPECT_EQ(hook_runs, 1);
  EXPECT_EQ(unread_at_hook, 0) << "a frame reached a client before the flush hook ran";

  // After the hook, each client gets its one reply frame (4 + 1 bytes).
  for (int i = 0; i < 200 && (Unread(a) < 5 || Unread(b) < 5); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(Unread(a), 5);
  EXPECT_EQ(Unread(b), 5);
  close(a);
  close(b);
}

// --- 64-connection multiplexing against a real loopback cluster -----------

// Every socket, epoll set and timer fd that the cluster and its clients
// opened is closed again once they are gone.
TEST(TcpManyClients, SixtyFourConcurrentConnectionsReplicate) {
  const int fds_before = testing::OpenFds();
  {
    testing::TcpCluster cluster;
    constexpr int kClients = 64;
    // All 64 clients connect and STAY connected — the servers' transports
    // multiplex every socket in one epoll set — then each appends twice.
    std::vector<std::unique_ptr<OmniClient>> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(std::make_unique<OmniClient>(cluster.endpoints()));
      ASSERT_TRUE(clients.back()->Connect(Seconds(10))) << "client " << i;
    }
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < kClients; ++i) {
        const uint64_t cmd = static_cast<uint64_t>(round * kClients + i + 1);
        ASSERT_TRUE(clients[i]->AppendAndWait(cmd, 8, Seconds(10)))
            << "client " << i << " round " << round;
      }
    }
    OmniClient::Status status;
    ASSERT_TRUE(clients[0]->GetStatus(&status, Seconds(5)));
    EXPECT_GE(status.decided, static_cast<uint64_t>(2 * kClients));
  }
  EXPECT_EQ(testing::OpenFds(), fds_before) << "fds leaked across cluster start and teardown";
}

// --- Client hardening against a hostile frame header ----------------------

// Regression for the ReadFrame length-wrap bug: a server advertising
// len = 0xFFFFFFFF made the old `read_buf_.size() >= 4 + len` comparison
// wrap to `>= 3` in uint32, so assign() read ~4 GiB past the buffer. The
// fixed client treats any length above kMaxFrameBytes as a protocol
// violation and disconnects. (No "Tcp" in the suite name: this test is not
// part of the TSan smoke filter.)
TEST(ClientWire, PoisonedLengthHeaderDisconnectsInsteadOfWrapping) {
  const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // the kernel picks a free port
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
  const uint16_t port = ntohs(addr.sin_port);
  ASSERT_EQ(listen(listen_fd, 1), 0);

  std::thread evil([listen_fd] {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    uint8_t drain[256];
    (void)!read(fd, drain, sizeof(drain));  // client hello
    const uint8_t poison[8] = {0xFF, 0xFF, 0xFF, 0xFF, 'b', 'o', 'o', 'm'};
    (void)!write(fd, poison, sizeof(poison));
    uint8_t b = 0;
    while (read(fd, &b, 1) > 0) {  // hold the socket until the client drops it
    }
    close(fd);
  });

  std::map<NodeId, Endpoint> endpoints{{1, Endpoint{"127.0.0.1", port}}};
  OmniClient client(endpoints);
  ASSERT_TRUE(client.Connect(Seconds(5)));
  OmniClient::Status status;
  EXPECT_FALSE(client.GetStatus(&status, Seconds(5)));

  close(listen_fd);
  evil.join();
}

}  // namespace
}  // namespace opx
