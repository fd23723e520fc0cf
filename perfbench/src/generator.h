// The load generator: one thread, a few client connections to the leader.
//
// Two phases share one engine. The closed-loop capacity phase keeps a fixed
// pipeline of operations outstanding on every connection and refills as
// replies arrive. The open-loop latency phase sends on a fixed schedule
// regardless of replies: operation i is due at start + i / rate, and is
// timed from its due time, so a stall also charges the operations queued
// behind it. Between due times the generator sleeps on a timerfd instead of
// spinning, so it does not take a core from the cluster.
//
// Every attempted operation ends as exactly one of: completed (append
// decided and pushed back, or lease read served), or failed (timed out, lost
// to a reconnect, bounced, or redirected). All bookkeeping lives in
// preallocated per-connection rings and fixed-bucket histograms, so the
// measured window performs no allocation of its own.
#ifndef PERFBENCH_SRC_GENERATOR_H_
#define PERFBENCH_SRC_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "perfbench/src/common.h"
#include "src/net/epoll_loop.h"
#include "src/net/frame_queue.h"
#include "src/net/tcp_transport.h"

namespace perfbench {

struct GenConfig {
  double read_fraction = 0.0;  // share of ops that are lease reads (0x06)
  uint64_t seed = 1;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t completed_writes = 0;
  uint64_t completed_reads = 0;
  uint64_t failed_timeout = 0;
  uint64_t failed_reconnect = 0;
  uint64_t failed_bounce = 0;  // read not served, or append redirected
  uint64_t duplicate_acks = 0;  // an append id decided twice on its connection
  uint64_t ryw_violations = 0;  // read served below the watermark it carried
  uint64_t reconnects = 0;

  uint64_t completed() const { return completed_writes + completed_reads; }
  uint64_t failed() const { return failed_timeout + failed_reconnect + failed_bounce; }
};

struct CapacityResult {
  double ops_per_s = 0.0;  // the best sub-window
  std::vector<double> sub_rates;
};

struct OpenResult {
  LatencyHistogram write_ns;  // due time -> decided push
  LatencyHistogram read_ns;   // due time -> read reply
  LatencyHistogram all_ns;
  LatencyHistogram lag_ns;    // due time -> actually sent
  std::vector<double> sub_p50_ns;  // p50 of all ops, per sub-window
  std::vector<double> sub_p99_ns;  // p99 of all ops, per sub-window
};

class Generator {
 public:
  static constexpr int kConnections = 4;
  static constexpr int kPipeline = 256;         // closed loop: ops in flight per connection
  static constexpr uint32_t kValueBytes = 64;   // declared payload per append
  static constexpr int64_t kOpTimeoutNs = 2'000'000'000;

  Generator(std::map<opx::NodeId, opx::net::Endpoint> servers, opx::NodeId leader,
            GenConfig cfg);
  ~Generator();

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool Connect();

  // Closed loop: `warmup_s` unmeasured, then `window_s` split into
  // `subwindows` equal parts; `mark` runs at window start and end.
  bool RunClosed(double warmup_s, double window_s, int subwindows,
                 const std::function<void()>& mark, CapacityResult* out);

  // Open loop at `rate` ops/s: `warmup_s` unmeasured, then `window_s` whose
  // ops (by due time) feed the histograms; `mark` runs at window end.
  bool RunOpen(double rate, double warmup_s, double window_s, int subwindows,
               const std::function<void()>& mark, OpenResult* out);

  // Waits for every outstanding op to complete or time out.
  bool Drain();

  const Tally& tally() const { return tally_; }
  opx::NodeId leader() const { return leader_; }

 private:
  static constexpr uint32_t kRingBits = 18;
  static constexpr uint32_t kRing = 1u << kRingBits;

  enum : uint8_t { kFree = 0, kInflight, kDone, kFailed };

  struct Slot {
    int64_t due_ns = 0;
    uint32_t seq = 0;
    uint8_t state = kFree;
    uint8_t is_read = 0;
  };

  struct Conn {
    int fd = -1;
    uint32_t id = 0;
    uint32_t next_seq = 0;
    uint32_t oldest = 0;  // every seq below this has ended
    int outstanding = 0;
    bool connecting = false;
    uint64_t session = 0;
    uint64_t read_watermark = 0;
    std::vector<Slot> ring;
    opx::net::FrameQueue sendq;
    opx::net::FrameReader reader;
  };

  bool StartConn(Conn& c);
  void CloseConn(Conn& c);
  void OnIo(Conn& c, uint32_t bits);
  void HandleFrame(Conn& c, const uint8_t* data, size_t len);
  void Issue(Conn& c, int64_t due_ns, int64_t now);
  void Complete(Conn& c, uint32_t seq, bool is_read);
  void FailSlot(Slot& s, uint64_t* counter);
  void Reconnect(Conn& c);
  void Expire(Conn& c, int64_t now);
  void Refill(Conn& c);
  void FlushConn(Conn& c);
  void FlushAll();
  bool Pass(int timeout_ms);
  uint64_t outstanding() const;

  std::map<opx::NodeId, opx::net::Endpoint> servers_;
  opx::NodeId leader_;
  GenConfig cfg_;
  std::mt19937_64 rng_;
  std::bernoulli_distribution is_read_;
  opx::net::EpollLoop loop_;
  opx::net::FramePool pool_{4096};
  std::vector<std::unique_ptr<Conn>> conns_;
  Tally tally_;
  bool fatal_ = false;

  bool closed_loop_ = false;  // completions refill the pipeline
  int64_t window_start_ = 0;
  int64_t window_end_ = 0;
  int64_t sub_width_ = 1;
  std::vector<uint64_t> sub_counts_;
  OpenResult* open_ = nullptr;
  std::vector<LatencyHistogram> sub_hist_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GENERATOR_H_
