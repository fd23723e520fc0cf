#include "perfbench/src/generator.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

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

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));  // the wire is little-endian, like the host
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

Generator::Generator(std::map<opx::NodeId, opx::net::Endpoint> servers, opx::NodeId leader,
                     GenConfig cfg)
    : servers_(std::move(servers)),
      leader_(leader),
      cfg_(cfg),
      rng_(cfg.seed),
      is_read_(cfg.read_fraction) {
  for (int i = 0; i < kConnections; ++i) {
    auto c = std::make_unique<Conn>();
    c->id = static_cast<uint32_t>(i);
    c->ring.resize(kRing);
    conns_.push_back(std::move(c));
  }
}

Generator::~Generator() {
  for (auto& c : conns_) {
    CloseConn(*c);
  }
}

bool Generator::Connect() {
  for (auto& c : conns_) {
    if (!StartConn(*c)) {
      return false;
    }
  }
  return true;
}

bool Generator::StartConn(Conn& c) {
  auto ep = servers_.find(leader_);
  if (ep == servers_.end()) {
    return false;
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep->second.port);
  if (inet_pton(AF_INET, ep->second.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return false;
  }
  const int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    return false;
  }
  c.fd = fd;
  c.connecting = rc != 0;
  Conn* self = &c;
  if (!loop_.Add(fd, [this, self](uint32_t bits) { OnIo(*self, bits); })) {
    close(fd);
    c.fd = -1;
    return false;
  }
  opx::net::FrameRef hello = pool_.Acquire();
  PutU32(&hello->bytes, 1);
  hello->bytes.push_back(opx::net::kHelloClient);
  c.sendq.Push(std::move(hello));
  return true;
}

void Generator::CloseConn(Conn& c) {
  if (c.fd < 0) {
    return;
  }
  loop_.Remove(c.fd);
  close(c.fd);
  c.fd = -1;
  ++c.session;
  c.connecting = false;
  c.sendq.Clear(&pool_);
  c.reader.Clear();
}

void Generator::FailSlot(Slot& s, uint64_t* counter) {
  s.state = kFailed;
  ++*counter;
}

void Generator::Reconnect(Conn& c) {
  CloseConn(c);
  for (uint32_t seq = c.oldest; seq != c.next_seq; ++seq) {
    Slot& s = c.ring[seq & (kRing - 1)];
    if (s.state == kInflight && s.seq == seq) {
      FailSlot(s, &tally_.failed_reconnect);
    }
  }
  c.oldest = c.next_seq;
  c.outstanding = 0;
  ++tally_.reconnects;
  if (!StartConn(c)) {
    fatal_ = true;
    return;
  }
  Refill(c);
}

void Generator::Issue(Conn& c, int64_t due_ns, int64_t now) {
  const uint32_t seq = c.next_seq++;
  Slot& s = c.ring[seq & (kRing - 1)];
  if (s.state == kInflight) {
    FailSlot(s, &tally_.failed_timeout);  // a full ring of newer ops is behind it
    --c.outstanding;
  }
  if (seq - c.oldest >= kRing) {
    c.oldest = seq - kRing + 1;
  }
  const bool read = cfg_.read_fraction > 0.0 && is_read_(rng_);
  s.due_ns = due_ns;
  s.seq = seq;
  s.state = kInflight;
  s.is_read = read ? 1 : 0;
  ++c.outstanding;
  ++tally_.attempted;
  const uint64_t id = (static_cast<uint64_t>(c.id + 1) << 32) | seq;
  opx::net::FrameRef f = pool_.Acquire();
  if (read) {
    PutU32(&f->bytes, 1 + 8 + 8);
    f->bytes.push_back(0x06);
    PutU64(&f->bytes, id);
    PutU64(&f->bytes, c.read_watermark);
  } else {
    PutU32(&f->bytes, 1 + 8 + 4);
    f->bytes.push_back(0x01);
    PutU64(&f->bytes, id);
    PutU32(&f->bytes, kValueBytes);
  }
  c.sendq.Push(std::move(f));
  if (open_ != nullptr && due_ns >= window_start_ && due_ns < window_end_) {
    open_->lag_ns.Record(now - due_ns);
  }
}

void Generator::Complete(Conn& c, uint32_t seq, bool is_read) {
  Slot& s = c.ring[seq & (kRing - 1)];
  if (s.seq != seq || s.state == kFree) {
    return;  // older than the ring: it ended long ago
  }
  if (s.state == kDone) {
    tally_.duplicate_acks += is_read ? 0 : 1;
    return;
  }
  if (s.state == kFailed) {
    return;  // a late reply to an op already counted as failed
  }
  s.state = kDone;
  --c.outstanding;
  const int64_t now = NowNs();
  if (is_read) {
    ++tally_.completed_reads;
  } else {
    ++tally_.completed_writes;
  }
  if (closed_loop_ && now >= window_start_ && now < window_end_) {
    ++sub_counts_[static_cast<size_t>((now - window_start_) / sub_width_)];
  }
  if (open_ != nullptr && s.due_ns >= window_start_ && s.due_ns < window_end_) {
    const int64_t lat = now - s.due_ns;
    (is_read ? open_->read_ns : open_->write_ns).Record(lat);
    open_->all_ns.Record(lat);
    sub_hist_[static_cast<size_t>((s.due_ns - window_start_) / sub_width_)].Record(lat);
  }
}

void Generator::Expire(Conn& c, int64_t now) {
  while (c.oldest != c.next_seq) {
    Slot& s = c.ring[c.oldest & (kRing - 1)];
    if (s.state == kInflight && s.seq == c.oldest) {
      if (now - s.due_ns < kOpTimeoutNs) {
        return;
      }
      FailSlot(s, &tally_.failed_timeout);
      --c.outstanding;
    }
    ++c.oldest;
  }
}

void Generator::Refill(Conn& c) {
  if (c.fd < 0 || !closed_loop_) {
    return;
  }
  const int64_t now = NowNs();
  while (c.outstanding < kPipeline) {
    Issue(c, now, now);
  }
}

void Generator::HandleFrame(Conn& c, const uint8_t* data, size_t len) {
  if (len == 0) {
    return;
  }
  switch (data[0]) {
    case 0x02: {  // decided batch, pushed to every client
      if (len < 5) {
        return;
      }
      const uint32_t count = GetU32(data + 1);
      const uint64_t mine = static_cast<uint64_t>(c.id + 1);
      for (uint32_t i = 0; i < count && 5 + 8 * (static_cast<size_t>(i) + 1) <= len; ++i) {
        const uint64_t id = GetU64(data + 5 + 8 * static_cast<size_t>(i));
        if ((id >> 32) == mine) {
          Complete(c, static_cast<uint32_t>(id), false);
        }
      }
      Refill(c);
      break;
    }
    case 0x05: {  // redirect: not the leader
      if (len >= 5) {
        const opx::NodeId hint = static_cast<opx::NodeId>(GetU32(data + 1));
        if (hint != opx::kNoNode && servers_.count(hint) > 0) {
          leader_ = hint;
        }
      }
      Reconnect(c);
      break;
    }
    case 0x07: {  // lease-read reply
      if (len < 1 + 8 + 8 + 1 + 4) {
        return;
      }
      const uint64_t id = GetU64(data + 1);
      const uint64_t decided = GetU64(data + 9);
      const bool served = data[17] != 0;
      const uint32_t seq = static_cast<uint32_t>(id);
      if ((id >> 32) != c.id + 1) {
        return;
      }
      if (served) {
        Slot& s = c.ring[seq & (kRing - 1)];
        if (s.seq == seq && s.state == kInflight) {
          tally_.ryw_violations += decided < c.read_watermark ? 1 : 0;
          c.read_watermark = std::max(c.read_watermark, decided);
        }
        Complete(c, seq, true);
      } else {
        Slot& s = c.ring[seq & (kRing - 1)];
        if (s.seq == seq && s.state == kInflight) {
          FailSlot(s, &tally_.failed_bounce);
          --c.outstanding;
        }
        const opx::NodeId hint = static_cast<opx::NodeId>(GetU32(data + 18));
        if (hint != opx::kNoNode && hint != leader_ && servers_.count(hint) > 0) {
          leader_ = hint;
          Reconnect(c);
        }
      }
      Refill(c);
      break;
    }
    default:
      break;
  }
}

void Generator::OnIo(Conn& c, uint32_t bits) {
  if (c.fd < 0) {
    return;
  }
  if ((bits & opx::net::EpollLoop::kError) != 0) {
    Reconnect(c);
    return;
  }
  if (c.connecting && (bits & opx::net::EpollLoop::kWritable) != 0) {
    int err = 0;
    socklen_t err_len = sizeof(err);
    if (getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0) {
      Reconnect(c);
      return;
    }
    c.connecting = false;
    Refill(c);
  }
  if ((bits & opx::net::EpollLoop::kReadable) != 0) {
    uint8_t chunk[65536];
    for (;;) {
      const ssize_t n = read(c.fd, chunk, sizeof(chunk));
      if (n > 0) {
        const uint64_t session = c.session;
        const bool ok = c.reader.Feed(chunk, static_cast<size_t>(n),
                                      [this, &c, session](const uint8_t* d, size_t l) {
                                        HandleFrame(c, d, l);
                                        return c.session == session;
                                      });
        if (c.session != session) {
          return;
        }
        if (!ok) {
          Reconnect(c);
          return;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      Reconnect(c);
      return;
    }
  }
  if ((bits & opx::net::EpollLoop::kWritable) != 0 && !c.connecting) {
    FlushConn(c);
  }
}

void Generator::FlushConn(Conn& c) {
  if (c.fd < 0 || c.connecting) {
    return;
  }
  constexpr size_t kMaxIov = 64;
  struct iovec iov[kMaxIov];
  while (!c.sendq.empty()) {
    const size_t n = c.sendq.BuildIovecs(iov, kMaxIov);
    const ssize_t written = writev(c.fd, iov, static_cast<int>(n));
    if (written < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return;
      }
      Reconnect(c);
      return;
    }
    c.sendq.Consume(static_cast<size_t>(written), &pool_);
  }
}

void Generator::FlushAll() {
  for (auto& c : conns_) {
    FlushConn(*c);
  }
}

uint64_t Generator::outstanding() const {
  uint64_t n = 0;
  for (const auto& c : conns_) {
    n += static_cast<uint64_t>(c->outstanding);
  }
  return n;
}

bool Generator::Pass(int timeout_ms) {
  if (loop_.Wait(timeout_ms) < 0) {
    return false;
  }
  // Edge-triggered sockets: frames queued by this pass's handlers never
  // raise a new writable edge, so drain every queue here.
  FlushAll();
  const int64_t now = NowNs();
  for (auto& c : conns_) {
    Expire(*c, now);
  }
  return !fatal_;
}

bool Generator::RunClosed(double warmup_s, double window_s, int subwindows,
                          const std::function<void()>& mark, CapacityResult* out) {
  closed_loop_ = true;
  window_start_ = window_end_ = 0;
  sub_counts_.assign(static_cast<size_t>(subwindows), 0);
  for (auto& c : conns_) {
    Refill(*c);
  }
  const int64_t warm_end = NowNs() + static_cast<int64_t>(warmup_s * 1e9);
  while (NowNs() < warm_end) {
    if (!Pass(1)) {
      return false;
    }
  }
  if (mark) {
    mark();
  }
  window_start_ = NowNs();
  sub_width_ = static_cast<int64_t>(window_s * 1e9) / subwindows;
  window_end_ = window_start_ + sub_width_ * subwindows;
  while (NowNs() < window_end_) {
    if (!Pass(1)) {
      return false;
    }
  }
  if (mark) {
    mark();
  }
  closed_loop_ = false;
  out->sub_rates.clear();
  for (uint64_t n : sub_counts_) {
    out->sub_rates.push_back(static_cast<double>(n) / (static_cast<double>(sub_width_) / 1e9));
  }
  out->ops_per_s = *std::max_element(out->sub_rates.begin(), out->sub_rates.end());
  return Drain();
}

bool Generator::RunOpen(double rate, double warmup_s, double window_s, int subwindows,
                        const std::function<void()>& mark, OpenResult* out) {
  open_ = out;
  sub_hist_.assign(static_cast<size_t>(subwindows), LatencyHistogram());
  const int64_t start = NowNs();
  window_start_ = start + static_cast<int64_t>(warmup_s * 1e9);
  sub_width_ = static_cast<int64_t>(window_s * 1e9) / subwindows;
  window_end_ = window_start_ + sub_width_ * subwindows;
  const double period_ns = 1e9 / rate;
  uint64_t index = 0;
  size_t rr = 0;
  const int timer = loop_.AddTimer(opx::Micros(50), [&] {
    const int64_t now = NowNs();
    for (;;) {
      const int64_t due = start + static_cast<int64_t>(static_cast<double>(index) * period_ns);
      if (due > now || due >= window_end_) {
        break;
      }
      Conn& c = *conns_[rr];
      rr = (rr + 1) % conns_.size();
      ++index;
      if (c.fd < 0) {
        // Due while its connection is down: attempted, and failed.
        ++tally_.attempted;
        ++tally_.failed_reconnect;
        continue;
      }
      Issue(c, due, now);
    }
  });
  if (timer < 0) {
    return false;
  }
  while (NowNs() < window_end_) {
    if (!Pass(1)) {
      loop_.CancelTimer(timer);
      return false;
    }
  }
  loop_.CancelTimer(timer);
  if (mark) {
    mark();
  }
  const bool ok = Drain();
  out->sub_p50_ns.clear();
  out->sub_p99_ns.clear();
  for (const LatencyHistogram& h : sub_hist_) {
    out->sub_p50_ns.push_back(h.Quantile(0.5));
    out->sub_p99_ns.push_back(h.Quantile(0.99));
  }
  open_ = nullptr;
  return ok;
}

bool Generator::Drain() {
  const int64_t until = NowNs() + kOpTimeoutNs + 500'000'000;
  while (outstanding() > 0) {
    if (NowNs() > until || !Pass(1)) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
