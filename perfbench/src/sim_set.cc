#include "perfbench/src/sim_set.h"

#include <algorithm>
#include <random>

#include "perfbench/src/common.h"
#include "src/rsm/experiments.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace perfbench {

namespace {

constexpr opx::rsm::Scenario kOrder[] = {opx::rsm::Scenario::kQuorumLoss,
                                         opx::rsm::Scenario::kConstrained,
                                         opx::rsm::Scenario::kChained};
constexpr opx::Time kTimeout = opx::Millis(50);
constexpr opx::Time kPartition = opx::Seconds(1);

}  // namespace

SimSet::SimSet(uint64_t seed, int cuts, bool audit) : seed_(seed), cuts_(cuts), audit_(audit) {
  std::mt19937_64 rng(seed);
  u_ = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
}

void SimSet::RunSlice(int n) {
  for (; n > 0 && next_cut_ < cuts_; --n, ++next_cut_) {
    const int j = next_cut_;
    for (int k = 0; k < kScenarios; ++k) {
      const opx::rsm::Scenario scenario = kOrder[k];
      opx::rsm::PartitionConfig cfg;
      cfg.scenario = scenario;
      cfg.num_servers = scenario == opx::rsm::Scenario::kChained ? 3 : 5;
      cfg.election_timeout = kTimeout;
      cfg.partition_duration = kPartition;
      cfg.post_heal = opx::Millis(300);
      cfg.warmup = opx::Seconds(1) +
                   static_cast<opx::Time>((j + u_) / cuts_ * static_cast<double>(kTimeout));
      cfg.seed = seed_ * 1000 + static_cast<uint64_t>(j);
      cfg.audit = audit_;
      const int64_t c0 = NowNs();
      const opx::rsm::PartitionResult p = opx::rsm::RunPartition<opx::rsm::OmniNode>(cfg);
      walls_[k].push_back(static_cast<double>(NowNs() - c0) / 1e9);
      downtime_ms_[k] += static_cast<double>(p.downtime) / 1e6;
      decided_[k] += static_cast<double>(p.decided_during);
      leader_changes_ += static_cast<double>(p.leader_elevations);
      epoch_increments_ += static_cast<double>(p.epoch_increments);
      if (scenario != opx::rsm::Scenario::kChained && !p.recovered) {
        all_recovered_ = false;
      }
      ++runs_;
    }
  }
}

SimSetResult SimSet::Result() const {
  SimSetResult r;
  const double n = static_cast<double>(next_cut_);
  if (next_cut_ == 0) {
    return r;
  }
  double fastest[kScenarios];
  for (int k = 0; k < kScenarios; ++k) {
    fastest[k] = *std::min_element(walls_[k].begin(), walls_[k].end());
    r.wall_s += fastest[k] * n;
  }
  r.downtime_quorum_loss_ms = downtime_ms_[0] / n;
  r.downtime_constrained_ms = downtime_ms_[1] / n;
  r.chained_decided_ops_s = decided_[2] / n / opx::ToSeconds(kPartition);
  r.wall_quorum_loss_s = fastest[0];
  r.wall_constrained_s = fastest[1];
  r.wall_chained_s = fastest[2];
  r.leader_changes = leader_changes_ / runs_;
  r.epoch_increments = epoch_increments_ / runs_;
  r.all_recovered = all_recovered_;
  r.runs = runs_;
  return r;
}

double SimEventsPerSec(int64_t waves) {
  opx::sim::Simulator simulator;
  constexpr int kWave = 64;
  struct Payload {
    uint64_t words[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  };
  uint64_t fired = 0;
  opx::sim::EventId ids[kWave];
  const int64_t t0 = NowNs();
  for (int64_t w = 0; w < waves; ++w) {
    for (int i = 0; i < kWave; ++i) {
      ids[i] = simulator.ScheduleAfter(opx::Micros((i * 37) % 997),
                                       [&fired, p = Payload{}]() { fired += p.words[0]; });
    }
    for (int i = 0; i < kWave; i += 2) {
      simulator.Cancel(ids[i]);
    }
    simulator.RunUntil(simulator.Now() + opx::Millis(1));
  }
  const double wall = static_cast<double>(NowNs() - t0) / 1e9;
  return fired == 0 ? 0.0 : static_cast<double>(waves * kWave) / wall;
}

double SimNetMsgsPerSec(int64_t rounds) {
  opx::sim::Simulator simulator;
  opx::sim::NetworkParams params;
  opx::sim::Network<uint64_t> net(&simulator, 5, params);
  uint64_t received = 0;
  for (opx::NodeId id = 1; id <= 5; ++id) {
    net.SetHandler(id, [&received](opx::NodeId, uint64_t) { ++received; });
  }
  constexpr int kBatch = 100;
  const int64_t t0 = NowNs();
  for (int64_t r = 0; r < rounds; ++r) {
    for (int i = 0; i < kBatch; ++i) {
      const opx::NodeId from = static_cast<opx::NodeId>(i % 5 + 1);
      const opx::NodeId to = static_cast<opx::NodeId>((i + 1) % 5 + 1);
      net.Send(from, to, static_cast<uint64_t>(i), 64);
    }
    simulator.RunToCompletion();
  }
  const double wall = static_cast<double>(NowNs() - t0) / 1e9;
  return static_cast<double>(received) / wall;
}

}  // namespace perfbench
