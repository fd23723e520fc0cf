// chaos_fuzz — seeded chaos-schedule fuzzer with the safety auditor and
// liveness oracles as test oracle (DESIGN.md §10).
//
// Fuzz mode (default): generates `--schedules` randomized fault schedules per
// protocol from `--seed`, runs each against the protocol adapter, and on the
// first oracle violation shrinks the schedule with delta debugging, writes a
// replayable artifact, prints a one-command repro, and exits 1.
//
//   tools/chaos_fuzz --protocol=all --schedules=100 --seed=1
//   tools/chaos_fuzz --protocol=omni --schedules=1000 --check-determinism
//
// Replay mode: re-runs a dumped artifact bit-for-bit and verifies both the
// recorded oracle verdict and the determinism fingerprint.
//
//   tools/chaos_fuzz --replay=chaos-omni-seed42.chaos
//
// Corpus mode: dumps every schedule (plan + fingerprint + verdict) as an
// artifact into a directory — how tests/chaos_corpus/ entries are minted.
//
//   tools/chaos_fuzz --protocol=omni --schedules=8 --dump=corpus-dir
//
// Sanity-check mode: --mutant=stuck-link appends a full-mesh server cut that
// never heals. The liveness oracles must catch it, the shrinker must reduce
// it, and the artifact must replay — verifying the whole pipeline end-to-end.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/obs/trace_view.h"
#include "src/rsm/chaos.h"
#include "src/sim/chaos_plan.h"
#include "src/util/flags.h"

namespace opx {
namespace {

using rsm::ChaosArtifact;
using rsm::ChaosConfig;
using rsm::ChaosOracle;
using rsm::ChaosOutcome;
using rsm::ChaosShrinkResult;

struct FuzzOptions {
  std::vector<std::string> protocols;
  int schedules = 100;
  uint64_t seed = 1;
  int num_servers = 5;
  Time election_timeout = Millis(50);
  bool shrink = true;
  bool check_determinism = false;
  std::string dump_dir;
  std::string out_dir = ".";
  std::string mutant;  // "", "stuck-link"
  // Log-pipeline fuzzing (DESIGN.md §15). Trim faults are generated only for
  // protocols with a compaction path; the watermark/read knobs additionally
  // exercise the automatic trim policy and the lease-read path under faults.
  bool allow_trim = true;
  uint64_t trim_watermark = 0;
  double read_fraction = 0.0;
  // Omni only: back every server with the real segmented WAL on a FaultFs, so
  // crash faults restart through genuine journal recovery (ChaosConfig::wal).
  bool wal = false;
};

ChaosConfig MakeConfig(const FuzzOptions& opt, const sim::ChaosPlan& plan) {
  ChaosConfig cfg;
  cfg.plan = plan;
  cfg.election_timeout = opt.election_timeout;
  cfg.trim_watermark = opt.trim_watermark;
  cfg.read_fraction = opt.read_fraction;
  cfg.wal = opt.wal;
  return cfg;
}

// Appends the sanity-check mutant: a full-mesh cut of all server links that
// starts at the horizon and never clears. Every protocol must flunk a
// liveness oracle on such a plan; if the pipeline stays green the oracles are
// broken.
void ApplyStuckLinkMutant(sim::ChaosPlan* plan) {
  const Time window_guard = Minutes(30);  // far past any liveness window
  for (NodeId a = 1; a <= plan->num_servers; ++a) {
    for (NodeId b = static_cast<NodeId>(a + 1); b <= plan->num_servers; ++b) {
      sim::ChaosFault f;
      f.kind = sim::ChaosFault::Kind::kLinkCut;
      f.at = plan->horizon;
      f.duration = window_guard;
      f.a = a;
      f.b = b;
      plan->faults.push_back(f);
    }
  }
  // The horizon stays put: oracles measure from the last *intended* heal, so
  // the stuck links are exactly the kind of bug they exist to catch.
}

std::string ArtifactPath(const std::string& dir, const std::string& protocol,
                         uint64_t seed) {
  std::ostringstream p;
  p << dir << "/chaos-" << protocol << "-seed" << seed << ".chaos";
  return p.str();
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << content;
  return out.good();
}

// Re-runs the (already shrunk) violating config with a trace sink attached and
// returns the final ~64 events as JSONL lines for embedding in the artifact.
// The sink never perturbs the schedule, so the replayed fingerprint still
// matches; a compiled-out obs build just yields an empty slice.
template <typename Node>
std::vector<std::string> CaptureTraceSlice(const ChaosConfig& cfg) {
  std::vector<std::string> lines;
#if defined(OPX_OBS_ENABLED)
  obs::ObsSink sink;
  ChaosConfig traced = cfg;
  traced.obs = &sink;
  (void)rsm::RunChaos<Node>(traced);
  const obs::TraceView tail = obs::TraceView::FromSink(sink).Tail(64);
  lines.reserve(tail.size());
  for (const obs::TraceEvent& e : tail.events()) {
    lines.push_back(obs::ToJson(e));
  }
#else
  (void)cfg;
#endif
  return lines;
}

template <typename Node>
int FuzzProtocol(const FuzzOptions& opt, const std::string& protocol) {
  sim::ChaosGenParams gen;
  gen.num_servers = opt.num_servers;
  gen.allow_crash = Node::kSupportsRestart;
  gen.allow_trim = opt.allow_trim && Node::kSupportsTrim;

  uint64_t total_faults = 0;
  for (int k = 0; k < opt.schedules; ++k) {
    const uint64_t seed = opt.seed + static_cast<uint64_t>(k);
    sim::ChaosPlan plan = sim::GenerateChaosPlan(gen, seed);
    if (opt.mutant == "stuck-link") {
      ApplyStuckLinkMutant(&plan);
    }
    total_faults += plan.faults.size();
    ChaosConfig cfg = MakeConfig(opt, plan);
    const ChaosOutcome outcome = rsm::RunChaos<Node>(cfg);

    if (opt.check_determinism && outcome.ok()) {
      const ChaosOutcome rerun = rsm::RunChaos<Node>(cfg);
      if (rerun.fingerprint != outcome.fingerprint) {
        std::printf("[%s seed=%" PRIu64 "] NON-DETERMINISTIC REPLAY: %" PRIx64
                    " vs %" PRIx64 "\n",
                    protocol.c_str(), seed, outcome.fingerprint, rerun.fingerprint);
        return 1;
      }
      if (opt.wal) {
        // The WAL must be invisible to the schedule: a memory-backed run of
        // the same plan has to land on the same fingerprint, or durability
        // changed protocol behavior (lost state, extra messages).
        ChaosConfig memory_cfg = cfg;
        memory_cfg.wal = false;
        const ChaosOutcome mem = rsm::RunChaos<Node>(memory_cfg);
        if (mem.fingerprint != outcome.fingerprint) {
          std::printf("[%s seed=%" PRIu64 "] WAL-BACKED RUN DIVERGES: %" PRIx64
                      " (wal) vs %" PRIx64 " (memory)\n",
                      protocol.c_str(), seed, outcome.fingerprint, mem.fingerprint);
          return 1;
        }
      }
    }

    if (!opt.dump_dir.empty()) {
      ChaosArtifact art;
      art.protocol = protocol;
      art.config = cfg;
      art.violated = outcome.violated;
      art.fingerprint = outcome.fingerprint;
      std::ostringstream note;
      note << "generated by chaos_fuzz --protocol=" << protocol << " --seed=" << seed
           << " --servers=" << opt.num_servers;
      art.note = note.str();
      const std::string path = ArtifactPath(opt.dump_dir, protocol, seed);
      if (!WriteFile(path, art.Serialize())) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
      }
    }

    if (!outcome.ok()) {
      std::printf("[%s seed=%" PRIu64 "] VIOLATION (%s): %s\n", protocol.c_str(), seed,
                  rsm::ChaosOracleName(outcome.violated), outcome.detail.c_str());
      sim::ChaosPlan minimal = plan;
      ChaosOutcome final_outcome = outcome;
      if (opt.shrink) {
        const ChaosShrinkResult shrunk = rsm::ShrinkChaos<Node>(cfg, outcome.violated);
        std::printf("  shrink: %zu -> %zu faults (%zu runs)\n", plan.faults.size(),
                    shrunk.plan.faults.size(), shrunk.runs);
        minimal = shrunk.plan;
        final_outcome = shrunk.outcome;
      }
      ChaosArtifact art;
      art.protocol = protocol;
      art.config = MakeConfig(opt, minimal);
      art.violated = final_outcome.violated;
      art.fingerprint = final_outcome.fingerprint;
      art.trace_lines = CaptureTraceSlice<Node>(art.config);
      std::ostringstream note;
      note << "shrunk from seed " << seed << " (" << plan.faults.size() << " faults)"
           << (opt.mutant.empty() ? "" : " with mutant ") << opt.mutant;
      art.note = note.str();
      const std::string path = ArtifactPath(opt.out_dir, protocol, seed);
      if (!WriteFile(path, art.Serialize())) {
        std::fprintf(stderr, "cannot write artifact %s\n", path.c_str());
        return 2;
      }
      std::printf("  artifact: %s\n  repro:    tools/chaos_fuzz --replay=%s\n",
                  path.c_str(), path.c_str());
      return 1;
    }
  }
  std::printf("[%s] %d schedules ok (%" PRIu64 " faults%s)\n", protocol.c_str(),
              opt.schedules, total_faults,
              opt.check_determinism ? ", deterministic replays" : "");
  return 0;
}

int Replay(const std::string& path, const std::string& trace_path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::optional<ChaosArtifact> art = ChaosArtifact::Parse(buf.str());
  if (!art) {
    std::fprintf(stderr, "malformed artifact %s\n", path.c_str());
    return 2;
  }
#if defined(OPX_OBS_ENABLED)
  obs::ObsSink sink;
  if (!trace_path.empty()) {
    art->config.obs = &sink;
  }
#else
  if (!trace_path.empty()) {
    std::fprintf(stderr, "--trace requires an OPX_OBS=ON build\n");
    return 2;
  }
#endif
  const rsm::ChaosReplayResult r = rsm::ReplayChaosArtifact(*art);
#if defined(OPX_OBS_ENABLED)
  if (!trace_path.empty()) {
    std::ofstream tf(trace_path);
    if (!tf) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 2;
    }
    obs::WriteJsonl(tf, sink.Events());
    std::printf("trace: %zu events -> %s (%" PRIu64 " dropped)\n", sink.size(),
                trace_path.c_str(), sink.dropped());
  }
#endif
  std::printf("replay %s [%s, %zu faults]\n  recorded: %s  observed: %s\n"
              "  fingerprint %s (%" PRIx64 ")\n",
              path.c_str(), art->protocol.c_str(), art->config.plan.faults.size(),
              rsm::ChaosOracleName(art->violated),
              rsm::ChaosOracleName(r.outcome.violated),
              r.matches ? "match" : "MISMATCH", r.outcome.fingerprint);
  if (!r.outcome.detail.empty()) {
    std::printf("  detail: %s\n", r.outcome.detail.c_str());
  }
  const bool ok = r.matches && r.outcome.violated == art->violated;
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.Has("help")) {
    std::printf(
        "usage: chaos_fuzz [--protocol=omni|raft|raft-pvcq|multipaxos|vr|all]\n"
        "                  [--schedules=N] [--seed=S] [--servers=N] [--timeout-ms=T]\n"
        "                  [--shrink=bool] [--check-determinism] [--dump=DIR]\n"
        "                  [--out-dir=DIR] [--mutant=stuck-link] [--replay=FILE]\n"
        "                  [--trace=FILE.jsonl (with --replay: dump the full trace)]\n"
        "                  [--trim=bool] [--trim-watermark=N] [--read-fraction=F]\n"
        "                  [--wal (omni: real segmented WAL + journal recovery)]\n");
    return 0;
  }
  if (flags.Has("replay")) {
    return Replay(flags.GetString("replay", ""), flags.GetString("trace", ""));
  }

  FuzzOptions opt;
  const std::string protocol = flags.GetString("protocol", "all");
  if (protocol == "all") {
    opt.protocols = rsm::ChaosProtocolNames();
  } else {
    opt.protocols = {protocol};
  }
  opt.schedules = static_cast<int>(flags.GetInt("schedules", 100));
  opt.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  opt.num_servers = static_cast<int>(flags.GetInt("servers", 5));
  opt.election_timeout = Millis(flags.GetInt("timeout-ms", 50));
  opt.shrink = flags.GetBool("shrink", true);
  opt.check_determinism = flags.GetBool("check-determinism", false);
  opt.dump_dir = flags.GetString("dump", "");
  opt.out_dir = flags.GetString("out-dir", ".");
  opt.mutant = flags.GetString("mutant", "");
  opt.allow_trim = flags.GetBool("trim", true);
  opt.trim_watermark = static_cast<uint64_t>(flags.GetInt("trim-watermark", 0));
  opt.read_fraction = flags.GetDouble("read-fraction", 0.0);
  opt.wal = flags.GetBool("wal", false);
  if (!flags.ok()) {
    std::fprintf(stderr, "chaos_fuzz: bad value for --%s (see --help)\n",
                 flags.bad_flag().c_str());
    return 2;
  }
  if (!opt.mutant.empty() && opt.mutant != "stuck-link") {
    std::fprintf(stderr, "unknown --mutant=%s\n", opt.mutant.c_str());
    return 2;
  }

  const auto t0 = std::chrono::steady_clock::now();
  int rc = 0;
  for (const std::string& name : opt.protocols) {
    int proto_rc = -1;
    const bool known = rsm::DispatchChaosProtocol(name, [&](auto tag) {
      using Node = typename decltype(tag)::type;
      proto_rc = FuzzProtocol<Node>(opt, name);
    });
    if (!known) {
      std::fprintf(stderr, "unknown protocol %s\n", name.c_str());
      return 2;
    }
    if (proto_rc != 0) {
      return proto_rc;
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("all %zu protocol(s) clean in %.1fs\n", opt.protocols.size(), wall);
  return rc;
}

}  // namespace
}  // namespace opx

int main(int argc, char** argv) { return opx::Main(argc, argv); }
