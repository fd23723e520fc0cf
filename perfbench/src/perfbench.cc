// The repository benchmark: one run of one workload. perfbench/README.md
// explains the workloads and metrics; perfbench/run.py builds this binary
// and is the command to use.
//
//   perfbench --workload=mem-write --seed=1 --seconds=10 --trace=0
//             --work-dir=DIR [--commit=ID]
//
// Untraced (--trace=0) runs print the end-to-end metrics; traced runs
// (--trace=1) print the per-layer ones. Human-readable lines come first;
// the last line is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Exit code 0 means the run
// finished, whatever `correct` says; nonzero means it could not.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/cluster.h"
#include "perfbench/src/common.h"
#include "perfbench/src/generator.h"
#include "perfbench/src/sim_set.h"
#include "src/net/omni_client.h"
#include "src/omnipaxos/durable_storage.h"
#include "src/util/flags.h"

namespace perfbench {
namespace {

struct Workload {
  std::string name;
  bool wal = false;
  double read_fraction = 0.0;
  double open_rate = 0.0;  // ops/s of the open-loop phase
};

// Timing metrics are the best sub-window of a phase (highest capacity,
// lowest p50), the repository's usual estimator on shared machines: on a
// shared 4-core host, medians moved by up to half between runs of identical
// work while the best half-second or 100 ms stayed within a fifth.
//
// Open-loop rates sit well below capacity (about 1/6 in memory and 1/10
// on the WAL on a 4-core host), so latency measures an op's path rather than
// a queue. On the WAL, 120k ops/s left latency at the mercy of the slowest
// fdatasyncs of the moment: its p99 moved by a quarter from run to run.
bool FindWorkload(const std::string& name, Workload* out) {
  const Workload all[] = {
      {"mem-write", false, 0.0, 500'000.0},
      {"wal-write", true, 0.0, 60'000.0},
      {"mem-read", false, 0.9, 500'000.0},
  };
  for (const Workload& w : all) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

constexpr int kSetups = 3;
constexpr int kCapacitySubwindows = 16;
constexpr int kOpenSubwindows = 120;
constexpr int kSimCuts = 16;
constexpr opx::Time kSettle = 4 * kElectionTimeout;

// ---------------------------------------------------------------------------
// Host block
// ---------------------------------------------------------------------------

struct Host {
  long nproc = 0;
  std::string fs_type = "unknown";
  std::string fs_device = "unknown";
  double fdatasync_p50_us = 0.0;
  double fdatasync_p99_us = 0.0;
};

// The mount holding `dir`: the longest mount point that prefixes its path.
void FindMount(const std::string& dir, Host* host) {
  std::error_code ec;
  const std::string path = std::filesystem::weakly_canonical(dir, ec).string();
  std::ifstream mounts("/proc/self/mounts");
  std::string line;
  size_t best = 0;
  while (std::getline(mounts, line)) {
    std::istringstream in(line);
    std::string dev, mnt, type;
    in >> dev >> mnt >> type;
    const bool prefix = path.compare(0, mnt.size(), mnt) == 0 &&
                        (mnt == "/" || path.size() == mnt.size() || path[mnt.size()] == '/');
    if (prefix && mnt.size() >= best) {
      best = mnt.size();
      host->fs_type = type;
      host->fs_device = dev;
    }
  }
}

// Times 200 fdatasync calls, each after a 4 KiB append, in `dir`.
void CalibrateFdatasync(const std::string& dir, Host* host) {
  const std::string path = dir + "/fdatasync.calibration";
  const int fd = open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    return;
  }
  std::vector<char> block(4096, 'x');
  LatencyHistogram h;
  for (int i = 0; i < 200; ++i) {
    if (write(fd, block.data(), block.size()) != static_cast<ssize_t>(block.size())) {
      break;
    }
    const int64_t t0 = NowNs();
    if (fdatasync(fd) != 0) {
      break;
    }
    h.Record(NowNs() - t0);
  }
  close(fd);
  unlink(path.c_str());
  host->fdatasync_p50_us = h.Quantile(0.5) / 1e3;
  host->fdatasync_p99_us = h.Quantile(0.99) / 1e3;
}

Host MeasureHost(const std::string& dir) {
  Host host;
  host.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  FindMount(dir, &host);
  CalibrateFdatasync(dir, &host);
  return host;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

struct Checks {
  bool ok = true;

  void Require(bool cond, const std::string& what) {
    std::printf("check: %-58s %s\n", what.c_str(), cond ? "ok" : "FAILED");
    ok = ok && cond;
  }
};

void CheckTally(const Tally& t, Checks* checks) {
  checks->Require(t.ryw_violations == 0, "no lease read served below its watermark");
  checks->Require(t.duplicate_acks == 0, "no append id acknowledged twice");
  checks->Require(t.completed() + t.failed() == t.attempted,
                  "every attempted op completed or failed");
}

// The status the cluster's leader reports (decided index, compaction).
bool LeaderStatus(const Cluster& cluster, opx::NodeId leader,
                  opx::net::OmniClient::Status* st) {
  opx::net::OmniClient probe(std::map<opx::NodeId, opx::net::Endpoint>{
      {leader, cluster.endpoints().at(leader)}});
  return probe.GetStatus(st, opx::Seconds(2)) && st->is_leader;
}

// After shutdown every node's WAL must recover cleanly, and the leader's
// recovered decided index must cover the last one it reported.
void CheckWalRecovery(const Cluster& cluster, opx::NodeId leader, uint64_t reported,
                      Checks* checks) {
  bool clean = true;
  uint64_t recovered = 0;
  for (opx::NodeId id = 1; id <= 3; ++id) {
    std::string error;
    auto storage = opx::omni::DurableStorage::Recover(opx::wal::PosixEnv(), cluster.WalDir(id),
                                                      opx::wal::WalOptions(), &error);
    clean = clean && storage != nullptr && error.empty();
    if (!error.empty()) {
      std::printf("wal: node %d: %s\n", id, error.c_str());
    }
    if (id == leader && storage != nullptr) {
      recovered = storage->decided_idx();
    }
  }
  std::printf("wal: leader reported decided %" PRIu64 ", recovered %" PRIu64 "\n", reported,
              recovered);
  checks->Require(clean, "every node's WAL recovers without error");
  checks->Require(recovered >= reported, "leader recovers its last reported decided index");
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void PrintHistogramLine(const char* name, const LatencyHistogram& h) {
  if (h.count() == 0) {
    return;
  }
  const double p = h.SupportedPercentile();
  std::printf("%-6s n=%-9" PRIu64 " p50 %.4f ms   p99 %.4f ms   p%g %.4f ms (highest with >=10 "
              "samples above)\n",
              name, h.count(), h.Quantile(0.5) / 1e6, h.Quantile(0.99) / 1e6, p,
              h.Quantile(p / 100.0) / 1e6);
}

int PrintResult(const Checks& checks, const Tally& tally, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += checks.ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

Tally Sum(const Tally& a, const Tally& b) {
  Tally t = a;
  t.attempted += b.attempted;
  t.completed_writes += b.completed_writes;
  t.completed_reads += b.completed_reads;
  t.failed_timeout += b.failed_timeout;
  t.failed_reconnect += b.failed_reconnect;
  t.failed_bounce += b.failed_bounce;
  t.duplicate_acks += b.duplicate_acks;
  t.ryw_violations += b.ryw_violations;
  t.reconnects += b.reconnects;
  return t;
}

void PrintTally(const Tally& t) {
  std::printf("ops: attempted %" PRIu64 ", completed %" PRIu64 " (%" PRIu64 " appends, %" PRIu64
              " reads), failed %" PRIu64 " (timeout %" PRIu64 ", reconnect %" PRIu64
              ", bounced %" PRIu64 "), reconnects %" PRIu64 "\n",
              t.attempted, t.completed(), t.completed_writes, t.completed_reads, t.failed(),
              t.failed_timeout, t.failed_reconnect, t.failed_bounce, t.reconnects);
  std::printf("failed_ratio %.6g\n",
              t.attempted == 0 ? 0.0
                               : static_cast<double>(t.failed()) / static_cast<double>(t.attempted));
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Run {
  Workload workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir;

  ClusterConfig ClusterFor(bool traced, const std::string& tag) const {
    ClusterConfig c;
    c.traced = traced;
    c.wal_root = workload.wal ? work_dir + "/wal-" + tag : "";
    return c;
  }

  GenConfig GenFor(uint64_t salt) const {
    GenConfig g;
    g.read_fraction = workload.read_fraction;
    g.seed = seed * 7919 + salt;
    return g;
  }

  double CapacityWindow() const { return 0.4 * seconds; }
  double OpenWindow() const { return 0.6 * seconds; }
};

void RemoveWal(const ClusterConfig& c) {
  if (!c.wal_root.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(c.wal_root, ec);
  }
}

// Starts a cluster and passes the settled-leader gate; returns the seconds
// that took, or a negative number on failure.
double SetUp(Cluster* cluster, opx::NodeId* leader) {
  const int64_t t0 = NowNs();
  if (!cluster->Start()) {
    std::fprintf(stderr, "could not bind a 3-node loopback cluster\n");
    return -1.0;
  }
  *leader = cluster->AwaitSettledLeader(kSettle, opx::Seconds(20));
  if (*leader == opx::kNoNode) {
    std::fprintf(stderr, "no settled leader within 20 s\n");
    return -1.0;
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

int RunUntraced(const Run& run) {
  Checks checks;
  // The simulator cuts run in four slices spread over the run.
  SimSet sim_set(run.seed, kSimCuts, /*audit=*/true);
  const int slice = kSimCuts / 4;
  sim_set.RunSlice(slice);
  std::vector<double> setups;
  std::unique_ptr<Cluster> cluster;
  ClusterConfig ccfg;
  opx::NodeId leader = opx::kNoNode;
  for (int k = 0; k < kSetups; ++k) {
    if (cluster != nullptr) {
      cluster->Stop();
      RemoveWal(ccfg);
    }
    ccfg = run.ClusterFor(false, "setup" + std::to_string(k));
    cluster = std::make_unique<Cluster>(ccfg);
    const double s = SetUp(cluster.get(), &leader);
    if (s < 0) {
      return 1;
    }
    setups.push_back(s);
    std::printf("setup %d: %.4f s, leader node %d\n", k, s, leader);
  }

  Generator gen(cluster->endpoints(), leader, run.GenFor(0));
  if (!gen.Connect()) {
    std::fprintf(stderr, "generator could not connect\n");
    return 1;
  }
  // The open-loop phase runs first, so peak memory is that of the set-up
  // and a steady serving load, not of a saturated pipeline.
  OpenResult open;
  if (!gen.RunOpen(run.workload.open_rate, 0.5, run.OpenWindow(), kOpenSubwindows, nullptr,
                   &open)) {
    std::fprintf(stderr, "open-loop phase failed\n");
    return 1;
  }
  const double rss_mb = PeakRssMb();
  sim_set.RunSlice(slice);
  CapacityResult cap;
  if (!gen.RunClosed(0.5, run.CapacityWindow(), kCapacitySubwindows, nullptr, &cap)) {
    std::fprintf(stderr, "capacity phase failed\n");
    return 1;
  }
  sim_set.RunSlice(slice);
  std::printf("peak rss: %.1f MB after the open loop, %.1f MB after capacity\n", rss_mb,
              PeakRssMb());
  opx::net::OmniClient::Status st;
  const bool have_status = LeaderStatus(*cluster, gen.leader(), &st);
  checks.Require(have_status, "leader answers a status probe after the run");
  checks.Require(have_status && st.compacted > 0, "log compaction trimmed the leader's log");
  std::printf("leader: node %d at the gate, node %d at the end; log len %" PRIu64
              ", compacted %" PRIu64 "\n",
              leader, gen.leader(), st.log_len, st.compacted);
  cluster->Stop();
  if (run.workload.wal) {
    CheckWalRecovery(*cluster, gen.leader(), st.decided, &checks);
  }
  RemoveWal(ccfg);
  sim_set.RunSlice(kSimCuts);
  const SimSetResult sim = sim_set.Result();
  checks.Require(sim.all_recovered, "sim: quorum-loss and constrained recover (audited)");
  CheckTally(gen.tally(), &checks);

  std::printf("capacity: %.1f ops/s best of %d sub-windows (", cap.ops_per_s,
              kCapacitySubwindows);
  for (double r : cap.sub_rates) {
    std::printf(" %.0f", r);
  }
  std::printf(" )\nopen loop at %.0f ops/s:\n", run.workload.open_rate);
  PrintHistogramLine("all", open.all_ns);
  PrintHistogramLine("write", open.write_ns);
  PrintHistogramLine("read", open.read_ns);
  PrintHistogramLine("lag", open.lag_ns);
  // The tail is printed, not reported as a metric: stalls of a shared host
  // move it from run to run by more than any regression bound could allow,
  // even as the lower quartile of 100 ms sub-window p99s.
  std::printf("p99_ms %.4f (lower quartile of the sub-window p99s)\n",
              LowerQuartile(open.sub_p99_ns) / 1e6);
  std::printf("p99 per sub-window (ms):");
  for (double p : open.sub_p99_ns) {
    std::printf(" %.4f", p / 1e6);
  }
  std::printf("\np50 per sub-window (ms):");
  for (double p : open.sub_p50_ns) {
    std::printf(" %.4f", p / 1e6);
  }
  // The simulator's wall time swings with the shared host's single-thread
  // speed by more than any bound a regression check could use, so it is
  // printed here and not reported as a metric.
  std::printf("\nsim: downtime quorum-loss %.3f ms, constrained %.3f ms, chained %.1f ops/s; "
              "sim_wall_s %.4f s (%d runs)\n",
              sim.downtime_quorum_loss_ms, sim.downtime_constrained_ms,
              sim.chained_decided_ops_s, sim.wall_s, sim.runs);
  PrintTally(gen.tally());

  std::vector<Metric> m = {
      {"setup_s", Median(setups), "s"},
      {"throughput_ops_s", cap.ops_per_s, "1/s"},
      {"p50_ms", *std::min_element(open.sub_p50_ns.begin(), open.sub_p50_ns.end()) / 1e6,
       "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"downtime_quorum_loss_ms", sim.downtime_quorum_loss_ms, "ms"},
      {"downtime_constrained_ms", sim.downtime_constrained_ms, "ms"},
      {"chained_decided_ops_s", sim.chained_decided_ops_s, "1/s"},
  };
  for (const Metric& x : m) {
    std::printf("%-26s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  return PrintResult(checks, gen.tally(), m);
}

NodeCapture Delta(const NodeCapture& a, const NodeCapture& b) {
  NodeCapture d = b;
  for (int i = 0; i < kNumSpans; ++i) {
    d.spans.self_ns[static_cast<size_t>(i)] -= a.spans.self_ns[static_cast<size_t>(i)];
    d.spans.calls[static_cast<size_t>(i)] -= a.spans.calls[static_cast<size_t>(i)];
  }
  d.at_ns -= a.at_ns;
  d.decided -= a.decided;
  d.reads_served -= a.reads_served;
  d.passes -= a.passes;
  d.leader_changes -= a.leader_changes;
  d.accept_msgs -= a.accept_msgs;
  d.accept_entries -= a.accept_entries;
  d.wal_syncs -= a.wal_syncs;
  d.wal_bytes -= a.wal_bytes;
  d.wal_segment_seq -= a.wal_segment_seq;
  d.net_bytes_out -= a.net_bytes_out;
  d.net_frames_out -= a.net_frames_out;
  d.net_frames_shared -= a.net_frames_shared;
  d.net_writev -= a.net_writev;
  d.sync_ns.Subtract(a.sync_ns);
  return d;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

int RunTraced(const Run& run) {
  Checks checks;

  // Untraced capacity on the real server, for the tracing overhead.
  CapacityResult plain;
  Tally plain_tally;
  {
    const ClusterConfig ccfg = run.ClusterFor(false, "plain");
    Cluster cluster(ccfg);
    opx::NodeId leader = opx::kNoNode;
    if (SetUp(&cluster, &leader) < 0) {
      return 1;
    }
    Generator gen(cluster.endpoints(), leader, run.GenFor(1));
    if (!gen.Connect() ||
        !gen.RunClosed(0.5, run.CapacityWindow(), kCapacitySubwindows, nullptr, &plain)) {
      std::fprintf(stderr, "untraced capacity phase failed\n");
      return 1;
    }
    plain_tally = gen.tally();
    cluster.Stop();
    RemoveWal(ccfg);
  }

  const ClusterConfig ccfg = run.ClusterFor(true, "traced");
  Cluster cluster(ccfg);
  opx::NodeId leader = opx::kNoNode;
  if (SetUp(&cluster, &leader) < 0) {
    return 1;
  }
  std::vector<std::vector<NodeCapture>> marks;  // [mark][node]
  marks.reserve(3);
  auto mark = [&] {
    marks.emplace_back(3);
    for (opx::NodeId id = 1; id <= 3; ++id) {
      cluster.traced(id)->Capture(&marks.back()[static_cast<size_t>(id - 1)]);
    }
  };
  Generator gen(cluster.endpoints(), leader, run.GenFor(2));
  if (!gen.Connect()) {
    return 1;
  }
  CapacityResult cap;
  OpenResult open;
  if (!gen.RunClosed(0.5, run.CapacityWindow(), kCapacitySubwindows, mark, &cap) ||
      !gen.RunOpen(run.workload.open_rate, 0.5, run.OpenWindow(), kOpenSubwindows, mark,
                   &open)) {
    std::fprintf(stderr, "traced load phases failed\n");
    return 1;
  }
  opx::net::OmniClient::Status st;
  const bool have_status = LeaderStatus(cluster, gen.leader(), &st);
  checks.Require(have_status, "leader answers a status probe after the run");
  cluster.Stop();
  if (run.workload.wal) {
    CheckWalRecovery(cluster, gen.leader(), st.decided, &checks);
  }
  RemoveWal(ccfg);

  // Leader = the node that led at the end of the capacity window.
  size_t li = static_cast<size_t>(gen.leader() - 1);
  for (size_t i = 0; i < 3; ++i) {
    if (marks[1][i].is_leader) {
      li = i;
    }
  }
  const NodeCapture w = Delta(marks[0][li], marks[1][li]);
  uint64_t leader_changes = 0;
  for (size_t i = 0; i < 3; ++i) {
    leader_changes = std::max(leader_changes, marks[2][i].leader_changes - marks[0][i].leader_changes);
  }
  const double ops = static_cast<double>(w.decided + w.reads_served);
  auto per_op = [&](SpanId id) {
    return Ratio(static_cast<double>(w.spans.self_ns[static_cast<size_t>(id)]), ops);
  };
  double sum_ns = 0.0;
  std::printf("leader node %zu, window %.3f s, %.0f ops (%" PRIu64 " decided, %" PRIu64
              " reads served), %" PRIu64 " passes\n",
              li + 1, static_cast<double>(w.at_ns) / 1e9, ops, w.decided, w.reads_served,
              w.passes);
  const char* span_names[kNumSpans] = {"wait",       "flush", "handle", "client", "append",
                                       "take_outgoing", "send",  "push",   "pump",   "sync"};
  for (int i = 0; i < kNumSpans; ++i) {
    const double v = per_op(static_cast<SpanId>(i));
    sum_ns += v;
    std::printf("span %-14s %10.1f ns/op  %10" PRIu64 " calls\n", span_names[i], v,
                w.spans.calls[static_cast<size_t>(i)]);
  }
  // The spans cover the whole capacity window, so they are compared with the
  // window's mean rate rather than its best sub-window.
  double window_rate = 0.0;
  for (double r : cap.sub_rates) {
    window_rate += r / static_cast<double>(cap.sub_rates.size());
  }
  const double e2e_ns = Ratio(1e9, window_rate);
  std::printf("layer sum %.1f ns/op vs 1/throughput %.1f ns/op (traced %.0f ops/s over the "
              "window, best sub-window %.0f ops/s; untraced best %.0f ops/s)\n",
              sum_ns, e2e_ns, window_rate, cap.ops_per_s, plain.ops_per_s);

  SimSet audited_set(run.seed, kSimCuts, /*audit=*/true);
  SimSet raw_set(run.seed, kSimCuts, /*audit=*/false);
  while (!audited_set.done()) {
    audited_set.RunSlice(1);
    raw_set.RunSlice(1);
  }
  const SimSetResult audited = audited_set.Result();
  const SimSetResult raw = raw_set.Result();
  checks.Require(audited.all_recovered, "sim: quorum-loss and constrained recover (audited)");
  std::vector<double> events, msgs;
  for (int i = 0; i < 3; ++i) {
    events.push_back(SimEventsPerSec(20'000));
    msgs.push_back(SimNetMsgsPerSec(20'000));
  }

  const Tally tally = Sum(plain_tally, gen.tally());
  CheckTally(tally, &checks);
  PrintTally(tally);

  std::vector<Metric> m = {
      {"loadgen.lag_p99_ms", open.lag_ns.Quantile(0.99) / 1e6, "ms"},
      {"bench.trace_overhead", 1.0 - Ratio(cap.ops_per_s, plain.ops_per_s), "ratio"},
      {"bench.layer_sum_ns_per_op", sum_ns, "ns"},
      {"bench.e2e_ns_per_op", e2e_ns, "ns"},
      {"net.poll_ns_per_op", per_op(kSpanWait), "ns"},
      {"net.send_ns_per_op", per_op(kSpanSend), "ns"},
      {"net.flush_ns_per_op", per_op(kSpanFlush), "ns"},
      {"net.client_ns_per_op", per_op(kSpanClient), "ns"},
      {"net.push_ns_per_op", per_op(kSpanPush), "ns"},
      {"net.pump_other_ns_per_op", per_op(kSpanPump), "ns"},
      {"net.ops_per_pass", Ratio(ops, static_cast<double>(w.passes)), "count"},
      {"net.bytes_out_per_op", Ratio(static_cast<double>(w.net_bytes_out), ops), "B"},
      {"net.frames_out_per_op", Ratio(static_cast<double>(w.net_frames_out), ops), "count"},
      {"net.writev_per_op", Ratio(static_cast<double>(w.net_writev), ops), "count"},
      {"net.shared_frame_ratio",
       Ratio(static_cast<double>(w.net_frames_shared), static_cast<double>(w.net_frames_out)),
       "ratio"},
      {"omnipaxos.handle_ns_per_op", per_op(kSpanHandle), "ns"},
      {"omnipaxos.take_outgoing_ns_per_op", per_op(kSpanTakeOut), "ns"},
      {"omnipaxos.append_ns_per_op", per_op(kSpanAppend), "ns"},
      {"omnipaxos.ops_per_accept",
       Ratio(static_cast<double>(w.accept_entries), static_cast<double>(w.accept_msgs)), "count"},
      {"omnipaxos.leader_changes", static_cast<double>(leader_changes), "count"},
      {"omnipaxos.partition_leader_changes", audited.leader_changes, "count"},
      {"omnipaxos.partition_epoch_increments", audited.epoch_increments, "count"},
      {"wal.sync_ns_per_op", per_op(kSpanSync), "ns"},
      {"wal.sync_p99_us", w.sync_ns.Quantile(0.99) / 1e3, "us"},
      {"wal.ops_per_sync", Ratio(ops, static_cast<double>(w.wal_syncs)), "count"},
      {"wal.bytes_per_op", Ratio(static_cast<double>(w.wal_bytes), ops), "B"},
      {"wal.rotations", static_cast<double>(w.wal_segment_seq), "count"},
      {"sim.events_per_s", Median(events), "1/s"},
      {"sim.net_msgs_per_s", Median(msgs), "1/s"},
      {"rsm.wall_s.quorum_loss", audited.wall_quorum_loss_s, "s"},
      {"rsm.wall_s.constrained", audited.wall_constrained_s, "s"},
      {"rsm.wall_s.chained", audited.wall_chained_s, "s"},
      {"audit.share", Ratio(audited.wall_s - raw.wall_s, audited.wall_s), "ratio"},
  };
  for (const Metric& x : m) {
    std::printf("%-38s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  return PrintResult(checks, tally, m);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  signal(SIGPIPE, SIG_IGN);
  PinToCpu(0);
  const opx::Flags flags(argc, argv);
  Run run;
  if (!FindWorkload(flags.GetString("workload", ""), &run.workload)) {
    std::fprintf(stderr, "unknown --workload (mem-write | wal-write | mem-read)\n");
    return 2;
  }
  run.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  run.seconds = flags.GetDouble("seconds", 10.0);
  run.work_dir = flags.GetString("work-dir", "");
  const bool traced = flags.GetInt("trace", 0) != 0;
  if (run.work_dir.empty() || run.seconds <= 0) {
    std::fprintf(stderr, "--work-dir and a positive --seconds are required\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(run.work_dir, ec);

  const Host host = MeasureHost(run.work_dir);
  std::printf("host: {\"nproc\": %ld, \"wal_fs\": \"%s\", \"wal_device\": \"%s\", "
              "\"fdatasync_p50_us\": %.1f, \"fdatasync_p99_us\": %.1f, \"commit\": \"%s\"}\n",
              host.nproc, host.fs_type.c_str(), host.fs_device.c_str(), host.fdatasync_p50_us,
              host.fdatasync_p99_us, flags.GetString("commit", "unknown").c_str());
  std::printf("workload %s: %s storage, %.0f%% lease reads, open loop at %.0f ops/s, seed %" PRIu64
              ", %.0f s, %s\n",
              run.workload.name.c_str(), run.workload.wal ? "WAL" : "in-memory",
              100.0 * run.workload.read_fraction, run.workload.open_rate, run.seed, run.seconds,
              traced ? "traced" : "untraced");
  std::fflush(stdout);
  return traced ? RunTraced(run) : RunUntraced(run);
}
