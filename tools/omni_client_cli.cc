// omni_client — command-line client for a running omni_node cluster.
//
//   omni_client --servers=1=127.0.0.1:7001,2=127.0.0.1:7002 --count=100
//   omni_client --servers=... --status
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>

#include "src/net/omni_client.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  using namespace opx;
  Flags flags(argc, argv);
  std::map<NodeId, net::Endpoint> servers;
  const int count =
      static_cast<int>(flags.GetInt("count", 10, 0, std::numeric_limits<int>::max()));
  if (flags.GetBool("help", false) || !flags.ok() ||
      !net::ParseEndpoints(flags.GetString("servers", ""), &servers)) {
    std::printf(
        "usage: omni_client --servers=ID=HOST:PORT,... [--count=N] [--status]\n");
    return flags.GetBool("help", false) ? 0 : 2;
  }

  net::OmniClient client(std::move(servers));
  if (!client.Connect()) {
    std::fprintf(stderr, "omni_client: no server reachable\n");
    return 1;
  }
  std::printf("connected to server %d\n", client.connected_to());

  if (flags.GetBool("status", false)) {
    net::OmniClient::Status status;
    if (!client.GetStatus(&status)) {
      std::fprintf(stderr, "omni_client: status request failed\n");
      return 1;
    }
    std::printf("leader=s%d decided=%lu log_len=%lu (this server leads: %s)\n",
                status.leader, status.decided, status.log_len,
                status.is_leader ? "yes" : "no");
    return 0;
  }

  const auto start = std::chrono::steady_clock::now();
  for (int i = 1; i <= count; ++i) {
    if (!client.AppendAndWait(static_cast<uint64_t>(i), 8, Seconds(10))) {
      std::fprintf(stderr, "omni_client: command %d not decided in time\n", i);
      return 1;
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::printf("replicated %d commands in %.3f s (%.0f cmds/s, decided acks from s%d)\n",
              count, secs, count / secs, client.connected_to());
  return 0;
}
