// Shared pieces of the benchmark: a wall clock, an allocation-free latency
// histogram, nested self-time spans, and the metric list the run prints.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The lower quartile (nearest rank).
inline double LowerQuartile(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 4];
}

// Log-linear histogram of nanosecond values: exact below 128 ns, then 64
// buckets per power of two (1.6% wide). All storage is a fixed array, so
// Record() never allocates; a quantile interpolates inside its bucket, so
// figures keep every digit instead of snapping to bucket bounds.
class LatencyHistogram {
 public:
  static constexpr int kSub = 64;
  static constexpr int kMaxMsb = 42;  // ~73 minutes
  static constexpr int kBuckets = 2 * kSub + (kMaxMsb - 6) * kSub;

  void Record(int64_t ns) {
    const uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
    ++counts_[Index(v)];
    ++count_;
  }

  // Removes an earlier snapshot of this same histogram, leaving the window
  // between the two.
  void Subtract(const LatencyHistogram& earlier) {
    for (int i = 0; i < kBuckets; ++i) {
      counts_[static_cast<size_t>(i)] -= earlier.counts_[static_cast<size_t>(i)];
    }
    count_ -= earlier.count_;
  }

  uint64_t count() const { return count_; }

  // q in [0, 1]; nanoseconds. 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(count_);
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const uint64_t c = counts_[static_cast<size_t>(i)];
      if (c == 0) {
        continue;
      }
      if (static_cast<double>(seen + c) >= rank) {
        const double frac = (rank - static_cast<double>(seen)) / static_cast<double>(c);
        const double lo = static_cast<double>(Lower(i));
        const double hi = static_cast<double>(Lower(i + 1));
        return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
      }
      seen += c;
    }
    return static_cast<double>(Lower(kBuckets));
  }

  // The highest of the usual percentiles with at least ten samples above
  // it, or 0 when even the median lacks them.
  double SupportedPercentile() const {
    for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
      if (static_cast<double>(count_) * (1.0 - p / 100.0) >= 10.0) {
        return p;
      }
    }
    return 0.0;
  }

 private:
  static int Index(uint64_t v) {
    if (v < 2 * kSub) {
      return static_cast<int>(v);
    }
    const int msb = 63 - std::countl_zero(v);
    if (msb > kMaxMsb) {
      return kBuckets - 1;
    }
    const int shift = msb - 6;
    const int sub = static_cast<int>(v >> shift) - kSub;
    return 2 * kSub + (msb - 7) * kSub + sub;
  }

  static uint64_t Lower(int idx) {
    if (idx < 2 * kSub) {
      return static_cast<uint64_t>(idx);
    }
    const int rel = idx - 2 * kSub;
    const int msb = 7 + rel / kSub;
    const uint64_t sub = static_cast<uint64_t>(kSub + rel % kSub);
    return sub << (msb - 6);
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

// Layer spans of the traced node loop. Each span's self time is its duration
// minus the time its child spans cover, so self times of one thread add up
// to the wall time spent inside root spans.
enum SpanId : int {
  kSpanWait = 0,    // EpollLoop::Wait: epoll, reads, frame + codec decode
  kSpanFlush,       // TcpTransport::Flush minus the flush hook: writev
  kSpanHandle,      // OmniPaxos::Handle / TickElection / Reconnected
  kSpanClient,      // client-frame handling minus Append
  kSpanAppend,      // OmniPaxos::Append
  kSpanTakeOut,     // OmniPaxos::TakeOutgoing
  kSpanSend,        // TcpTransport::Send / SendRepeat (encode + enqueue)
  kSpanPush,        // decided-batch build + SendToClient
  kSpanPump,        // the rest of the server's Pump
  kSpanSync,        // DurableStorage::Sync (the flush hook)
  kNumSpans,
};

struct SpanTotals {
  std::array<int64_t, kNumSpans> self_ns{};
  std::array<uint64_t, kNumSpans> calls{};
};

class SpanStack {
 public:
  void Enter(SpanId id) {
    Frame& f = stack_[depth_++];
    f.id = id;
    f.child_ns = 0;
    f.start_ns = NowNs();
  }

  int64_t Exit() {
    const int64_t end = NowNs();
    Frame& f = stack_[--depth_];
    const int64_t dur = end - f.start_ns;
    totals_.self_ns[f.id] += dur - f.child_ns;
    ++totals_.calls[f.id];
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
    }
    return dur;
  }

  const SpanTotals& totals() const { return totals_; }

 private:
  struct Frame {
    SpanId id = kSpanWait;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
  };
  std::array<Frame, 16> stack_{};
  int depth_ = 0;
  SpanTotals totals_;
};

class Span {
 public:
  Span(SpanStack& s, SpanId id) : s_(s) { s_.Enter(id); }
  ~Span() { s_.Exit(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStack& s_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
