// scenario_runner — run any protocol through any partial-connectivity
// scenario (or fault-free) with custom parameters, from the command line.
//
//   scenario_runner --protocol=omnipaxos --scenario=quorum-loss \
//                   --timeout-ms=50 --partition-s=30 --servers=5 --seed=7
//
//   --protocol     omnipaxos | raft | raft-pvcq | vr | multipaxos   [omnipaxos]
//   --scenario     none | quorum-loss | constrained | chained       [none]
//   --servers      cluster size (chained forces 3)                  [5]
//   --timeout-ms   election timeout T                               [50]
//   --cp           concurrent proposals                             [500]
//   --duration-s   fault-free run duration (scenario=none)          [30]
//   --partition-s  partition duration (scenario!=none)              [30]
//   --rate         leader admission rate, proposals/s               [50000]
//   --audit        run the cross-replica safety auditor             [true]
//   --seed         RNG seed                                         [1]
//   --wan          WAN latencies (scenario=none only)               [false]
#include <cstdio>
#include <string>

#include "src/rsm/experiments.h"
#include "src/util/flags.h"

namespace opx {
namespace {

constexpr char kUsage[] =
    "usage: scenario_runner --protocol=P --scenario=S [options]\n"
    "  P: omnipaxos | raft | raft-pvcq | vr | multipaxos\n"
    "  S: none | quorum-loss | constrained | chained\n"
    "  options: --servers --timeout-ms --cp --duration-s --partition-s --rate --seed --wan "
    "--audit\n";

int BadFlag(const Flags& flags) {
  std::fprintf(stderr, "scenario_runner: bad value for --%s\n%s", flags.bad_flag().c_str(),
               kUsage);
  return 2;
}

template <typename Node>
int RunNone(const Flags& flags) {
  rsm::NormalConfig cfg;
  cfg.num_servers = static_cast<int>(flags.GetInt("servers", 5));
  cfg.concurrent_proposals = static_cast<size_t>(flags.GetInt("cp", 500));
  cfg.election_timeout = Millis(flags.GetInt("timeout-ms", 50));
  cfg.duration = Seconds(flags.GetInt("duration-s", 30));
  cfg.warmup = Seconds(5);
  cfg.wan = flags.GetBool("wan", false);
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.proposal_rate = flags.GetDouble("rate", 50'000.0);
  cfg.audit = flags.GetBool("audit", true);
  if (!flags.ok()) {
    return BadFlag(flags);
  }
  if (cfg.wan && cfg.election_timeout < Millis(300)) {
    std::fprintf(stderr, "note: raising election timeout to 500 ms (> WAN RTT)\n");
    cfg.election_timeout = Millis(500);
  }
  const rsm::NormalResult r = rsm::RunNormal<Node>(cfg);
  std::printf("throughput:        %.0f ops/s\n", r.throughput);
  std::printf("mean latency:      %.2f ms\n", r.mean_latency_s * 1e3);
  std::printf("election I/O:      %.4f%% of total\n", r.election_io_share * 100.0);
  std::printf("leader elevations: %lu\n", r.leader_elevations);
  return 0;
}

template <typename Node>
int RunScenario(const Flags& flags, rsm::Scenario scenario) {
  rsm::PartitionConfig cfg;
  cfg.scenario = scenario;
  cfg.num_servers =
      scenario == rsm::Scenario::kChained ? 3 : static_cast<int>(flags.GetInt("servers", 5));
  cfg.election_timeout = Millis(flags.GetInt("timeout-ms", 50));
  cfg.partition_duration = Seconds(flags.GetInt("partition-s", 30));
  cfg.concurrent_proposals = static_cast<size_t>(flags.GetInt("cp", 500));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.proposal_rate = flags.GetDouble("rate", 50'000.0);
  cfg.audit = flags.GetBool("audit", true);
  if (!flags.ok()) {
    return BadFlag(flags);
  }
  const rsm::PartitionResult r = rsm::RunPartition<Node>(cfg);
  std::printf("scenario:          %s\n", rsm::ScenarioName(scenario).c_str());
  std::printf("recovered:         %s\n", r.recovered ? "yes (progress during partition)"
                                                     : "NO (down until heal)");
  std::printf("down-time:         %.3f s\n", ToSeconds(r.downtime));
  std::printf("decided during:    %lu\n", r.decided_during);
  std::printf("leader elevations: %lu\n", r.leader_elevations);
  std::printf("epoch increments:  %lu\n", r.epoch_increments);
  std::printf("leader at cut:     s%d -> after: s%d\n", r.leader_at_cut, r.leader_after);
  return 0;
}

template <typename Node>
int Dispatch(const Flags& flags, const std::string& scenario) {
  if (scenario == "none") {
    return RunNone<Node>(flags);
  }
  if (scenario == "quorum-loss") {
    return RunScenario<Node>(flags, rsm::Scenario::kQuorumLoss);
  }
  if (scenario == "constrained") {
    return RunScenario<Node>(flags, rsm::Scenario::kConstrained);
  }
  if (scenario == "chained") {
    return RunScenario<Node>(flags, rsm::Scenario::kChained);
  }
  std::fprintf(stderr, "unknown --scenario=%s\n", scenario.c_str());
  return 2;
}

}  // namespace
}  // namespace opx

int main(int argc, char** argv) {
  using namespace opx;
  Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const std::string protocol = flags.GetString("protocol", "omnipaxos");
  const std::string scenario = flags.GetString("scenario", "none");
  std::printf("protocol: %s\n", protocol.c_str());
  if (protocol == "omnipaxos") {
    return Dispatch<rsm::OmniNode>(flags, scenario);
  }
  if (protocol == "raft") {
    return Dispatch<rsm::RaftNode>(flags, scenario);
  }
  if (protocol == "raft-pvcq") {
    return Dispatch<rsm::RaftPvCqNode>(flags, scenario);
  }
  if (protocol == "vr") {
    return Dispatch<rsm::VrNode>(flags, scenario);
  }
  if (protocol == "multipaxos") {
    return Dispatch<rsm::MultiPaxosNode>(flags, scenario);
  }
  std::fprintf(stderr, "unknown --protocol=%s\n", protocol.c_str());
  return 2;
}
