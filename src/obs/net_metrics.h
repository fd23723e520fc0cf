// Real-network hot-path instrumentation (DESIGN.md §14), following the §12
// metrics contract: every instrument is looked up ONCE at wiring time and the
// per-event update is plain arithmetic on a stable pointer — no map lookups,
// no allocation, nothing on the syscall path.
//
// Unlike the simulation metrics these count real wall-clock I/O, so they are
// never part of a determinism fingerprint; they exist to make the transport's
// batching behavior observable (the writev batch-size histogram is the
// headline: it shows how many frames each syscall carried).
//
// All instruments are nullptr until Wire() is called with a live registry, so
// an unwired transport pays exactly one branch per update site; with
// -DOPX_OBS=OFF the wiring call sites compile away and the pointers stay
// null forever.
#ifndef SRC_OBS_NET_METRICS_H_
#define SRC_OBS_NET_METRICS_H_

#include "src/obs/metrics.h"

namespace opx::obs {

struct NetMetrics {
  Counter* bytes_in = nullptr;       // payload+framing bytes read off sockets
  Counter* bytes_out = nullptr;      // bytes the kernel accepted for send
  Counter* frames_in = nullptr;      // complete frames decoded
  // Send-queue entries fully handed to the kernel: one per shared or peer
  // frame, one per run of client replies packed together (DESIGN.md §14).
  Counter* frames_out = nullptr;
  Counter* frames_shared = nullptr;  // frames enqueued via an encode-once share
  Counter* writev_calls = nullptr;   // writev syscalls issued
  Counter* reconnects = nullptr;     // outbound sessions (re-)established
  Counter* conns_accepted = nullptr; // inbound connections accepted
  Counter* conns_closed = nullptr;   // connections torn down (either side)
  // Send-queue entries (iovecs) per writev call — the batching payoff.
  // Bounds 1..512, x2 spaced.
  Histogram* writev_batch_frames = nullptr;
  // Bytes per writev call, 64B..4MB, x4 spaced.
  Histogram* writev_batch_bytes = nullptr;

  static NetMetrics Wire(Metrics* m) {
    NetMetrics n;
    n.bytes_in = m->GetCounter("net.bytes_in");
    n.bytes_out = m->GetCounter("net.bytes_out");
    n.frames_in = m->GetCounter("net.frames_in");
    n.frames_out = m->GetCounter("net.frames_out");
    n.frames_shared = m->GetCounter("net.frames_shared");
    n.writev_calls = m->GetCounter("net.writev_calls");
    n.reconnects = m->GetCounter("net.reconnects");
    n.conns_accepted = m->GetCounter("net.conns_accepted");
    n.conns_closed = m->GetCounter("net.conns_closed");
    n.writev_batch_frames =
        m->GetHistogram("net.writev_batch_frames", ExponentialBuckets(1, 2, 10));
    n.writev_batch_bytes =
        m->GetHistogram("net.writev_batch_bytes", ExponentialBuckets(64, 4, 9));
    return n;
  }
};

}  // namespace opx::obs

#endif  // SRC_OBS_NET_METRICS_H_
