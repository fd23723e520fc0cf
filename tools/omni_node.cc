// omni_node — a real Omni-Paxos server process.
//
//   omni_node --id=1 --port=7001 --peers=2=127.0.0.1:7002,3=127.0.0.1:7003 \
//             --wal-dir=/var/lib/omnipaxos/node1 --timeout-ms=100
//
// Run one per machine (or per port on localhost) to form a cluster; connect
// with omni_client to replicate commands. Ctrl-C to stop; restart with the
// same --wal-dir to recover (§4.1.3). The WAL is a directory of segments
// (inspect with wal_inspect), group-committed once per event-loop flush.
#include <csignal>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>

#include "src/net/omni_tcp_server.h"
#include "src/obs/trace.h"
#include "src/util/flags.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

constexpr char kUsage[] =
    "usage: omni_node --id=N --port=P --peers=ID=HOST:PORT,... "
    "[--wal-dir=DIR] [--timeout-ms=100] [--priority=0] [--metrics]\n"
    "  --peers               the other servers; HOST is an IPv4 literal, and\n"
    "                        this server's own --id must not be listed\n"
    "  [--trim-watermark=0]  auto log compaction watermark (entries; 0=off)\n"
    "  [--batch-limit=0]     per-flush accept cap (0 = one batch per pass)\n"
    "  [--lease-rounds=1]    BLE lease length for local reads (0 = off)\n"
    "  [--wal-segment-bytes=1048576]  WAL segment rotation threshold\n"
    "  [--wal-sync-bytes=262144]      group-commit flush threshold (bytes)\n"
    "  [--wal-sync-records=4096]      group-commit flush threshold (records)\n"
    "exit status: 0 stopped by SIGINT/SIGTERM, 1 cannot listen on --port,\n"
    "  2 bad flags, 3 the WAL cannot be opened or its recovery was refused\n";

int Usage(const std::string& why) {
  std::fprintf(stderr, "omni_node: %s\n%s", why.c_str(), kUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opx;
  Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }

  constexpr int64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  net::ServerOptions options;
  options.id = static_cast<NodeId>(
      flags.GetInt("id", kNoNode, 1, std::numeric_limits<NodeId>::max()));
  options.wal_dir = flags.GetString("wal-dir", "");
  options.wal_options.segment_bytes =
      static_cast<uint64_t>(flags.GetInt("wal-segment-bytes", 1 << 20, 1));
  options.wal_options.sync_every_bytes =
      static_cast<uint64_t>(flags.GetInt("wal-sync-bytes", 256 * 1024, 0));
  options.wal_options.sync_every_records =
      static_cast<uint64_t>(flags.GetInt("wal-sync-records", 4096, 0));
  options.election_timeout = Millis(flags.GetInt("timeout-ms", 100, 1, kMaxU32));
  options.ble_priority = static_cast<uint32_t>(flags.GetInt("priority", 0, 0, kMaxU32));
  options.trim_watermark = static_cast<uint64_t>(flags.GetInt("trim-watermark", 0, 0));
  options.batch_limit = static_cast<uint64_t>(flags.GetInt("batch-limit", 0, 0));
  options.lease_rounds = static_cast<uint64_t>(flags.GetInt("lease-rounds", 1, 0));
  if (!flags.ok()) {
    return Usage("bad value for --" + flags.bad_flag());
  }
  if (options.id == kNoNode) {
    return Usage("--id is required");
  }
  const std::string peers = flags.GetString("peers", "");
  if (!net::ParseEndpoints(peers, &options.peers)) {
    return Usage("--peers=" + peers + " is not a list of ID=IPV4:PORT");
  }
  if (options.peers.count(options.id) > 0) {
    return Usage("--peers lists this server's own --id " + std::to_string(options.id));
  }
  if (!net::ParsePort(flags.GetString("port", "0"), &options.listen_port)) {
    return Usage("--port must be 0-65535 (0: the kernel picks)");
  }

  // --metrics wires the transport's net.* instruments and dumps a
  // name-sorted snapshot at shutdown (no-op data in OPX_OBS=OFF builds).
  obs::ObsSink obs_sink;
  const bool want_metrics = flags.GetBool("metrics", false);
  if (want_metrics) {
    options.obs = &obs_sink;
  }

  net::OmniTcpServer server(options);
  if (!server.Start()) {
    if (!server.wal_error().empty()) {
      std::fprintf(stderr, "omni_node: %s\n", server.wal_error().c_str());
      return 3;
    }
    std::fprintf(stderr, "omni_node: cannot bind port %u\n", options.listen_port);
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("omni_node %d listening on %u (%zu peers, wal=%s)\n", options.id,
              server.listen_port(), options.peers.size(),
              options.wal_dir.empty() ? "<memory>" : options.wal_dir.c_str());
  std::fflush(stdout);
  server.Run(g_stop);
  std::printf("omni_node %d: shutting down (decided=%lu)\n", options.id,
              server.decided_idx());
  if (want_metrics) {
    std::printf("-- metrics --\n");
    obs_sink.metrics().Print(std::cout);
  }
  return 0;
}
