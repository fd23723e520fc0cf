// The repo's own analyzer configuration: which directories are deterministic,
// which variants are wire formats, which handler functions must persist
// before replying, and which files must stay wired to the auditor.
//
// DESIGN.md §11 documents every rule and how to extend the tables.
#include <algorithm>
#include <filesystem>

#include "tools/analyze/analyzer.h"

namespace opx::analyze {

AnalyzerConfig DefaultConfig(const std::string& root) {
  AnalyzerConfig cfg;
  cfg.root = root;

  // --- opx-determinism ----------------------------------------------------
  // Everything replayed by the simulator or fingerprinted by the determinism
  // tests. src/util is exempt (it *implements* the sanctioned Rng/clock) and
  // src/net is the real-I/O boundary where wall clocks are legitimate.
  cfg.determinism.dirs = {"src/sim", "src/omnipaxos", "src/raft",
                          "src/multipaxos", "src/vr", "src/rsm"};
  cfg.determinism.function_dirs = cfg.determinism.dirs;

  // --- opx-dispatch (ported from the retired tools/lint_handlers.py) ------
  cfg.variants = {
      {"PaxosMessage", "src/omnipaxos/messages.h", {"src/omnipaxos/sequence_paxos.cc"}},
      {"BleMessage", "src/omnipaxos/messages.h", {"src/omnipaxos/ble.cc"}},
      {"OmniMessage", "src/omnipaxos/omni_paxos.h", {"src/omnipaxos/omni_paxos.cc"}},
      {"RaftMessage", "src/raft/messages.h", {"src/raft/raft.cc"}},
      {"MpxMessage", "src/multipaxos/messages.h", {"src/multipaxos/multipaxos.cc"}},
      {"VrMessage", "src/vr/vr_election.h", {"src/vr/vr_election.cc"}},
      {"VrWire", "src/vr/vr_replica.h", {"src/vr/vr_replica.h"}},
  };

  // --- opx-persist-order --------------------------------------------------
  // Sequence Paxos is the protocol whose Appendix-A proof this repo tracks;
  // each rule names the reply that advertises durable state and the Storage
  // mutators that must land first. (Raft's rejection replies reuse the
  // success message type, which makes a lexical before/after rule unsound
  // there — see DESIGN.md §11.)
  const std::string sp = "src/omnipaxos/sequence_paxos.cc";
  cfg.handlers = {
      {sp, "BecomeLeader", {"set_promised_round"}, {"Prepare"}, {"Emit"}},
      {sp, "HandlePrepare", {"set_promised_round"}, {"Promise"}, {"Emit"}},
      // Snapshot-install adoption on the new leader: the adopted log (suffix
      // append, or ResetToSnapshot when the winner compacted past us) and the
      // round raise must be durable before any AcceptSync ships it. Empty
      // ack_types: SendAcceptSyncTo builds and emits the AcceptSync itself.
      {sp,
       "CompletePreparePhase",
       {"ResetToSnapshot", "TruncateAndAppend", "AppendAll", "set_accepted_round"},
       {},
       {"SendAcceptSyncTo"}},
      {sp,
       "HandleAcceptSync",
       {"set_accepted_round", "TruncateAndAppend", "ResetToSnapshot"},
       {"Accepted"},
       {"Emit"}},
      {sp, "HandleAcceptDecide", {"AppendAll"}, {"Accepted"}, {"Emit"}},
  };

  // --- opx-msg-init -------------------------------------------------------
  // Every wire header: any file named messages.h / client_messages.h under
  // src/, discovered so new protocols are covered automatically.
  namespace fs = std::filesystem;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(fs::path(root) / "src", ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) {
      continue;
    }
    const std::string base = it->path().filename().string();
    if (base == "messages.h" || base == "client_messages.h") {
      cfg.wire_headers.push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  std::sort(cfg.wire_headers.begin(), cfg.wire_headers.end());

  // --- opx-audit-hook -----------------------------------------------------
  // Each protocol implementation must expose the AuditView snapshot the
  // cross-replica auditor consumes and keep OPX_CHECK-layer assertions live;
  // the simulated and lockstep harnesses must actually run the auditor.
  cfg.audit = {
      {"src/omnipaxos/omni_paxos.cc", {"Audit", "AuditView"}, false},
      {"src/omnipaxos/sequence_paxos.cc", {}, true},
      {"src/raft/raft.cc", {"Audit", "AuditView"}, true},
      {"src/multipaxos/multipaxos.cc", {"Audit", "AuditView"}, true},
      {"src/vr/vr_replica.h", {"Audit", "AuditView"}, false},
      {"src/rsm/cluster_sim.h", {"SafetyAuditor", "Audit"}, false},
      {"src/rsm/lockstep_cluster.h", {"SafetyAuditor", "Audit", "Observe"}, false},
  };

  // --- opx-obs-hook -------------------------------------------------------
  // Every protocol handler and the simulated network must route observable
  // transitions through the DESIGN.md §12 trace recorder; the harness headers
  // that own the sink must also reference ObsSink itself. Without these the
  // trace-oracle conformance tests go silently vacuous.
  cfg.obs = {
      {"src/omnipaxos/ble.cc", {"OPX_TRACE"}},
      {"src/omnipaxos/sequence_paxos.cc", {"OPX_TRACE"}},
      {"src/raft/raft.cc", {"OPX_TRACE"}},
      {"src/multipaxos/multipaxos.cc", {"OPX_TRACE"}},
      {"src/vr/vr_election.cc", {"OPX_TRACE"}},
      {"src/sim/network.h", {"OPX_TRACE", "ObsSink"}},
      {"src/rsm/cluster_sim.h", {"OPX_TRACE", "ObsSink"}},
      {"src/rsm/omni_reconfig_sim.h", {"OPX_TRACE", "ObsSink"}},
      // The lockstep engine only stamps time; its nodes record the events.
      {"src/rsm/lockstep_cluster.h", {"OPX_TRACE_NOW", "ObsSink"}},
  };

  // --- opx-ballot-guard ---------------------------------------------------
  // Per-protocol vocabulary for the CFG/dominance guard analysis (DESIGN.md
  // §13): which message fields carry rounds, which identifiers are the
  // replica's own round state, and which member writes / Storage mutators
  // must sit behind a good-direction comparison inside Handle* functions.
  cfg.ballot_guards = {
      {"src/omnipaxos/sequence_paxos.cc",
       /*round_fields=*/{"n"},
       /*state_rounds=*/{"promised_round", "accepted_round", "n_", "leader_ballot_"},
       /*mutators=*/
       {"set_promised_round", "set_accepted_round", "set_decided_idx", "AppendAll",
        "TruncateAndAppend", "ResetToSnapshot"},
       /*state_members=*/{"n_", "leader_ballot_"},
       /*exempt=*/{}},
      {"src/omnipaxos/ble.cc",
       /*round_fields=*/{"round"},
       /*state_rounds=*/{"round_", "ballot_"},
       /*mutators=*/{},
       /*state_members=*/{"round_", "replies_"},
       /*exempt=*/{}},
      {"src/raft/raft.cc",
       /*round_fields=*/{"term"},
       /*state_rounds=*/{"term_"},
       /*mutators=*/{},
       /*state_members=*/{"term_", "voted_for_"},
       /*exempt=*/{}},
      {"src/multipaxos/multipaxos.cc",
       /*round_fields=*/{"b", "promised"},
       /*state_rounds=*/{"promised_", "ballot_", "active_leader_", "max_seen_"},
       /*mutators=*/{},
       /*state_members=*/{"promised_", "ballot_"},
       /*exempt=*/{}},
      {"src/vr/vr_election.cc",
       /*round_fields=*/{"view"},
       /*state_rounds=*/{"view_"},
       /*mutators=*/{},
       /*state_members=*/{"view_", "svc_received_", "dvc_received_"},
       /*exempt=*/{}},
  };

  // --- opx-quorum-arith ---------------------------------------------------
  // All majority math must flow through util::MajorityOf / util::MaxMinorityOf
  // (src/util/quorum.h is the one sanctioned implementation).
  cfg.quorum.dirs = {"src", "tests", "bench"};
  cfg.quorum.helper_file = "src/util/quorum.h";
  cfg.quorum.size_idents = {"kServers", "num_servers", "cluster_size", "n_servers"};

  // --- opx-blocking-in-loop -----------------------------------------------
  // Deterministic code (simulator callbacks) may never issue blocking
  // syscalls; in the real-I/O layer, everything reachable from the event-loop
  // entry points must stay non-blocking (poll-readiness model, ROADMAP 4).
  cfg.blocking.det_dirs = cfg.determinism.dirs;
  cfg.blocking.event_dirs = {"src/net"};
  cfg.blocking.entries = {
      {"src/net/tcp_transport.cc", "Poll"},
      {"src/net/tcp_transport.cc", "Flush"},
      {"src/net/epoll_loop.cc", "Wait"},
      {"src/net/omni_tcp_server.cc", "StepOnce"},
      {"src/net/omni_tcp_server.cc", "Run"},
      {"src/net/omni_tcp_server.cc", "OnPeerMessage"},
      {"src/net/omni_tcp_server.cc", "OnClientFrame"},
  };

  // --- opx-span-escape ----------------------------------------------------
  // std::span / string_view parameters are borrowed for the duration of the
  // call; storing one whole into a member outlives the borrow (the backing
  // log segment may be truncated, compacted, or reallocated).
  cfg.span_escape.dirs = {"src", "tests", "bench"};

  // --- opx-wire-taint -----------------------------------------------------
  // Everything that decodes untrusted bytes: GetU32/GetU64 (client + WAL
  // recovery), the codec Decoder methods (U8/U32/U64/GetEntry/GetBallot).
  // The sink list is the allocation/copy surface a hostile length header
  // reaches first.
  cfg.wire_taint.dirs = {"src", "tests", "bench"};

  // --- opx-index-arith ----------------------------------------------------
  // Raw +/- against the compaction floors anywhere outside the checked
  // helper header (the PR 8 seed-bug shape).
  cfg.index_arith.dirs = {"src", "tests", "bench"};
  cfg.index_arith.helper_file = "src/util/log_index.h";

  // --- opx-ref-lifetime ---------------------------------------------------
  // Raw pointers derived from the refcounted frame layer (PR 7) must not
  // outlive the frame: FramePool::Release/Clear and FrameQueue::Consume
  // recycle the backing buffers.
  cfg.ref_lifetime.dirs = {"src", "tests", "bench"};

  return cfg;
}

}  // namespace opx::analyze
