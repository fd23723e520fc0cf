// The paper's Fig. 8 scenarios for Omni-Paxos on the deterministic
// simulator, through rsm::RunPartition, plus two simulator micro-loops.
#ifndef PERFBENCH_SRC_SIM_SET_H_
#define PERFBENCH_SRC_SIM_SET_H_

#include <cstdint>
#include <vector>

namespace perfbench {

struct SimSetResult {
  double downtime_quorum_loss_ms = 0.0;  // mean over the cuts
  double downtime_constrained_ms = 0.0;
  double chained_decided_ops_s = 0.0;    // per simulated second of partition
  double wall_s = 0.0;                   // the set: sum over scenarios of cuts x fastest call
  double wall_quorum_loss_s = 0.0;       // fastest RunPartition call
  double wall_constrained_s = 0.0;
  double wall_chained_s = 0.0;
  double leader_changes = 0.0;     // per RunPartition call, mean
  double epoch_increments = 0.0;   // per RunPartition call, mean
  bool all_recovered = true;       // quorum-loss and constrained
  int runs = 0;
};

// Quorum-loss and constrained (5 servers) and chained (3 servers), 50 ms
// election timeout, `cuts` partitions each. Cut j of a scenario lands at
// 1 s + (j + u) / cuts election timeouts, with u in [0, 1) drawn from the
// seed: the cuts sample every phase of the heartbeat round evenly, so the
// mean downtime depends on the seed only a little.
//
// The cuts can run in several slices (RunSlice), so a run can spread them
// over its whole length: the wall time reported per scenario is that of
// the fastest call, and calls spread over time are less likely to all land
// in one slow stretch of a shared host.
class SimSet {
 public:
  SimSet(uint64_t seed, int cuts, bool audit);

  // Runs the next `n` cuts of every scenario.
  void RunSlice(int n);
  bool done() const { return next_cut_ >= cuts_; }
  SimSetResult Result() const;

 private:
  static constexpr int kScenarios = 3;

  uint64_t seed_;
  int cuts_;
  bool audit_;
  double u_;
  int next_cut_ = 0;
  double downtime_ms_[kScenarios] = {};
  double decided_[kScenarios] = {};
  std::vector<double> walls_[kScenarios];
  double leader_changes_ = 0.0;
  double epoch_increments_ = 0.0;
  bool all_recovered_ = true;
  int runs_ = 0;
};

// Simulator schedule/cancel/fire churn, events per wall second.
double SimEventsPerSec(int64_t waves);
// sim::Network send -> deliver, messages per wall second.
double SimNetMsgsPerSec(int64_t rounds);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SIM_SET_H_
