#!/usr/bin/env bash
# Full static+dynamic check pipeline, as run before merging:
#   1. sanitized build (ASan+UBSan, assertions live) of everything;
#   2. opx_analyze (DESIGN.md §11, §13): the thirteen protocol-aware checks —
#      the six token-level ones plus the CFG/dataflow tier (ballot-guard,
#      quorum-arith, blocking-in-loop, span-escape) and the interprocedural tier
#      (wire-taint, index-arith, ref-lifetime, DESIGN.md §16) — over src/, tests/,
#      and bench/; fails on any finding not in tools/analyze/baseline.txt,
#      and on any stale baseline entry;
#   3. the complete CTest suite under sanitizers — every scenario/chaos test
#      runs with the cross-replica safety auditor enabled (the default);
#   4. a TSan build (-DOPX_SANITIZE=thread) with the real-I/O net tests as
#      the data-race smoke;
#   5. clang-tidy over files changed relative to origin/main (skipped with a
#      note when clang-tidy is not installed).
#
# Usage: tools/run_checks.sh [build-dir]      (default: build-asan)
#        tools/run_checks.sh --static [build-dir]
#        tools/run_checks.sh --tsan [build-dir]
#        tools/run_checks.sh --tcp-repeat [build-dir]
#        tools/run_checks.sh --bench-smoke [build-dir]
#        tools/run_checks.sh --wal-smoke [build-dir]
#        tools/run_checks.sh --chaos-smoke [schedules-per-protocol]
#        tools/run_checks.sh --coverage [build-dir]
#
# --static is the fast pre-commit path: build only the opx_analyze target
# (plain build, default dir: build-static) and run the thirteen static checks
# over src/, tests/, and bench/ — a few seconds warm, well under ten cold.
#
# --tsan builds the test suite with ThreadSanitizer (default dir: build-tsan)
# and runs the real-I/O net tests — the only tier that spawns threads — as a
# data-race smoke. Also part of the default full run (step 4).
#
# --tcp-repeat does a Release build of the test suite and the tcp_cluster
# example (default dir: build-bench) and runs every real-socket test (names
# matching Tcp, ClientWire or tcp_cluster) up to 20 times over under
# `ctest -j`, stopping at the first failure: tests that share a host must not
# collide on ports or timing. These tests also hold the TCP runtime's gates
# on leaked fds and on log compaction over real sockets.
#
# --bench-smoke instead does a Release build (default dir: build-bench), runs
# the sim_throughput quick benchmark, and refreshes BENCH_core.json at the
# repo root — the tracked perf baseline DESIGN.md's before/after table cites.
#
# --wal-smoke gates the durability layer (DESIGN.md §17): the WAL + durable
# storage test tiers under ASan+UBSan — including the crash-point matrix that
# kills the journal at every byte offset via FaultFs, recovers, and asserts a
# fingerprint-exact consistent prefix — and the TCP runtime tests, whose
# WAL-backed servers hold votes until the group commit; then a release chaos
# run where every simulated crash restarts through genuine segmented-WAL
# recovery and must land on the same EventHash as a memory-backed run of the
# same schedule.
#
# --chaos-smoke runs the chaos fuzzer (DESIGN.md §10) end to end: N seeded
# schedules per protocol with replay-determinism checking, in both a plain
# Release build and the ASan+UBSan build; then verifies the oracle pipeline
# actually fires by expecting the --mutant=stuck-link sanity schedule to be
# caught, shrunk, and replayed from its dumped artifact.
#
# --coverage builds with gcc's --coverage instrumentation (default dir:
# build-cov), runs the full CTest suite, and aggregates raw `gcov -n` output
# into per-directory line-coverage percentages with awk — no lcov/gcovr
# needed. DESIGN.md §12 cites the resulting numbers.
set -u -o pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
FAILED=0

step() { printf '\n== %s ==\n' "$*"; }

if [ "${1:-}" = "--static" ]; then
  # No cmake here: the analyzer is dependency-free, so a direct parallel
  # compile keeps the cold path under ten seconds and warm reruns instant
  # (the binary is reused until an analyzer source changes).
  OUT="${2:-$ROOT/build-static}"
  BIN="$OUT/opx_analyze"
  mkdir -p "$OUT"
  STALE=0
  if [ ! -x "$BIN" ]; then
    STALE=1
  else
    for f in "$ROOT"/tools/analyze/*.cc "$ROOT"/tools/analyze/*.h; do
      if [ "$f" -nt "$BIN" ]; then STALE=1; fi
    done
  fi
  if [ "$STALE" -eq 1 ]; then
    step "compile opx_analyze (direct, no cmake) -> $BIN"
    PIDS=""
    for f in tokenizer cfg dataflow callgraph checks taint_checks default_config \
             baseline main; do
      "${CXX:-c++}" -O0 -std=c++20 -I"$ROOT" -c "$ROOT/tools/analyze/$f.cc" \
        -o "$OUT/$f.o" &
      PIDS="$PIDS $!"
    done
    CFAIL=0
    for p in $PIDS; do wait "$p" || CFAIL=1; done
    [ "$CFAIL" -eq 0 ] || { echo "compile FAILED"; exit 1; }
    "${CXX:-c++}" "$OUT/tokenizer.o" "$OUT/cfg.o" "$OUT/dataflow.o" \
      "$OUT/callgraph.o" "$OUT/checks.o" "$OUT/taint_checks.o" \
      "$OUT/default_config.o" "$OUT/baseline.o" "$OUT/main.o" \
      -pthread -o "$BIN" ||
      { echo "link FAILED"; exit 1; }
    echo "ok"
  fi
  step "opx_analyze over src/, tests/, bench/ (thirteen checks, baseline-filtered)"
  exec "$BIN" --root="$ROOT"
fi

if [ "${1:-}" = "--tsan" ]; then
  BUILD="${2:-$ROOT/build-tsan}"
  step "TSan build (-DOPX_SANITIZE=thread) -> $BUILD"
  cmake -B "$BUILD" -S "$ROOT" -DOPX_SANITIZE=thread >"$BUILD.configure.log" 2>&1 ||
    { echo "configure FAILED (see $BUILD.configure.log)"; exit 1; }
  cmake --build "$BUILD" -j "$JOBS" --target opx_tests >"$BUILD.build.log" 2>&1 ||
    { echo "build FAILED (see $BUILD.build.log)"; exit 1; }
  echo "ok"
  step "net tests under TSan (threaded real-I/O tier)"
  if "$BUILD/tests/opx_tests" --gtest_filter='*Tcp*'; then
    echo "ok"
  else
    echo "TSan net smoke FAILED"
    exit 1
  fi
  exit 0
fi

if [ "${1:-}" = "--tcp-repeat" ]; then
  BUILD="${2:-$ROOT/build-bench}"
  step "release build -> $BUILD"
  cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
    >"$BUILD.configure.log" 2>&1 ||
    { echo "configure FAILED (see $BUILD.configure.log)"; exit 1; }
  cmake --build "$BUILD" -j "$JOBS" --target opx_tests tcp_cluster >"$BUILD.build.log" 2>&1 ||
    { echo "build FAILED (see $BUILD.build.log)"; exit 1; }
  echo "ok"
  step "TCP tests x20 under ctest -j (until the first failure)"
  if (cd "$BUILD" && ctest -j "$JOBS" --repeat until-fail:20 -R 'Tcp|ClientWire|tcp_cluster' \
        --output-on-failure); then
    echo "ok"
  else
    echo "TCP repeat FAILED"
    exit 1
  fi
  exit 0
fi

if [ "${1:-}" = "--coverage" ]; then
  BUILD="${2:-$ROOT/build-cov}"
  command -v gcov >/dev/null 2>&1 || { echo "gcov not installed"; exit 1; }

  step "coverage build (gcc --coverage) -> $BUILD"
  cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage \
    >"$BUILD.configure.log" 2>&1 ||
    { echo "configure FAILED (see $BUILD.configure.log)"; exit 1; }
  cmake --build "$BUILD" -j "$JOBS" >"$BUILD.build.log" 2>&1 ||
    { echo "build FAILED (see $BUILD.build.log)"; exit 1; }
  echo "ok"

  step "ctest (collecting .gcda)"
  find "$BUILD" -name '*.gcda' -delete
  if (cd "$BUILD" && ctest -j "$JOBS" --output-on-failure >"$BUILD.ctest.log" 2>&1); then
    echo "ok"
  else
    echo "ctest FAILED (see $BUILD.ctest.log)"
    exit 1
  fi

  step "per-directory line coverage (gcov -n, awk aggregate)"
  # gcov prints, per source file:  File '<path>' / Lines executed:P% of N.
  # Split on single quotes to recover the path, keep only repo sources, and
  # dedupe headers covered from several TUs by keeping the largest N seen.
  find "$BUILD" -name '*.gcda' -print0 |
    xargs -0 gcov -n 2>/dev/null |
    awk -F"'" -v root="$ROOT/" '
      /^File / { file = $2; sub("^" root, "", file); next }
      /^Lines executed:/ {
        if (file == "" || file ~ /^\//) { file = ""; next }
        split($0, a, ":"); split(a[2], b, "% of ")
        total = b[2] + 0
        if (total > ftotal[file]) {
          ftotal[file] = total
          fexec[file] = (b[1] + 0) * total / 100.0
        }
        file = ""
      }
      END {
        for (f in ftotal) {
          n = split(f, parts, "/")
          dir = parts[1]
          if (n > 2) dir = parts[1] "/" parts[2]
          dt[dir] += ftotal[f]; de[dir] += fexec[f]
          gt += ftotal[f]; ge += fexec[f]
        }
        cmd = "sort"
        for (d in dt)
          printf "  %-22s %6.1f%%  (%d of %d lines)\n",
                 d, 100 * de[d] / dt[d], de[d] + 0.5, dt[d] | cmd
        close(cmd)
        if (gt > 0)
          printf "  %-22s %6.1f%%  (%d of %d lines)\n",
                 "TOTAL", 100 * ge / gt, ge + 0.5, gt
      }'
  exit 0
fi

if [ "${1:-}" = "--bench-smoke" ]; then
  BUILD="${2:-$ROOT/build-bench}"
  step "release build -> $BUILD"
  cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
    >"$BUILD.configure.log" 2>&1 ||
    { echo "configure FAILED (see $BUILD.configure.log)"; exit 1; }
  cmake --build "$BUILD" -j "$JOBS" --target sim_throughput >"$BUILD.build.log" 2>&1 ||
    { echo "build FAILED (see $BUILD.build.log)"; exit 1; }
  echo "ok"
  step "sim_throughput quick -> BENCH_core.json"
  "$BUILD/bench/sim_throughput" --out="$ROOT/BENCH_core.json" || exit 1
  echo "ok"
  exit 0
fi

if [ "${1:-}" = "--wal-smoke" ]; then
  ASAN="${2:-$ROOT/build-asan}"
  PLAIN="$ROOT/build-bench"

  step "sanitized build (ASan+UBSan) -> $ASAN"
  cmake -B "$ASAN" -S "$ROOT" -DOPX_SANITIZE=ON >"$ASAN.configure.log" 2>&1 ||
    { echo "configure FAILED (see $ASAN.configure.log)"; exit 1; }
  cmake --build "$ASAN" -j "$JOBS" --target opx_tests >"$ASAN.build.log" 2>&1 ||
    { echo "build FAILED (see $ASAN.build.log)"; exit 1; }
  echo "ok"

  step "WAL + durable-storage tiers under ASan (crash matrix at every byte offset)"
  # TcpRuntime.* runs the WAL-backed server, the only one that holds votes
  # back until its group commit. ServerStart.*, OmniNodeTool.* and
  # WalInspectTool.* check how a WAL that cannot be opened stops the server
  # and that wal_inspect only writes with --repair.
  if "$ASAN/tests/opx_tests" \
      --gtest_filter='SegmentedWal.*:FaultFs.*:WalInspect.*:DurableStorage*.*:TcpRuntime.*:ServerStart.*:OmniNodeTool.*:WalInspectTool.*'; then
    echo "ok"
  else
    echo "WAL test tier FAILED"
    FAILED=1
  fi

  step "release build -> $PLAIN"
  cmake -B "$PLAIN" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
    >"$PLAIN.configure.log" 2>&1 ||
    { echo "configure FAILED (see $PLAIN.configure.log)"; exit 1; }
  cmake --build "$PLAIN" -j "$JOBS" --target chaos_fuzz >"$PLAIN.build.log" 2>&1 ||
    { echo "build FAILED (see $PLAIN.build.log)"; exit 1; }
  echo "ok"

  step "chaos crash-recover over the real WAL (create -> kill mid-flush -> recover)"
  # --wal --check-determinism: every crash in the schedule kills the node,
  # mangles the journal's unsynced tail, recovers through
  # DurableStorage::Recover, and CHECKs the recovered fingerprint; the fuzzer
  # then reruns the schedule memory-backed and the EventHashes must match.
  if "$PLAIN/tools/chaos_fuzz" --protocol=omni --schedules=2 --seed=11 \
      --wal --trim-watermark=8 --check-determinism; then
    echo "ok"
  else
    echo "WAL chaos smoke FAILED"
    FAILED=1
  fi

  step "summary"
  if [ "$FAILED" -eq 0 ]; then
    echo "wal smoke passed"
  else
    echo "WAL SMOKE FAILED"
  fi
  exit "$FAILED"
fi

if [ "${1:-}" = "--chaos-smoke" ]; then
  SCHEDULES="${2:-10}"
  PLAIN="$ROOT/build-bench"
  ASAN="$ROOT/build-asan"

  step "release build -> $PLAIN"
  cmake -B "$PLAIN" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
    >"$PLAIN.configure.log" 2>&1 ||
    { echo "configure FAILED (see $PLAIN.configure.log)"; exit 1; }
  cmake --build "$PLAIN" -j "$JOBS" --target chaos_fuzz >"$PLAIN.build.log" 2>&1 ||
    { echo "build FAILED (see $PLAIN.build.log)"; exit 1; }
  echo "ok"

  step "sanitized build (ASan+UBSan) -> $ASAN"
  cmake -B "$ASAN" -S "$ROOT" -DOPX_SANITIZE=ON >"$ASAN.configure.log" 2>&1 ||
    { echo "configure FAILED (see $ASAN.configure.log)"; exit 1; }
  cmake --build "$ASAN" -j "$JOBS" --target chaos_fuzz >"$ASAN.build.log" 2>&1 ||
    { echo "build FAILED (see $ASAN.build.log)"; exit 1; }
  echo "ok"

  ARTDIR="$(mktemp -d)"
  trap 'rm -rf "$ARTDIR"' EXIT

  step "chaos fuzz: $SCHEDULES schedules/protocol, deterministic replay (release)"
  if "$PLAIN/tools/chaos_fuzz" --protocol=all --schedules="$SCHEDULES" --seed=1 \
      --check-determinism --out-dir="$ARTDIR"; then
    echo "ok"
  else
    echo "chaos fuzz FAILED (artifact in $ARTDIR; repro command above)"
    FAILED=1
  fi

  step "chaos fuzz: $SCHEDULES schedules/protocol (ASan+UBSan)"
  if "$ASAN/tools/chaos_fuzz" --protocol=all --schedules="$SCHEDULES" --seed=1 \
      --out-dir="$ARTDIR"; then
    echo "ok"
  else
    echo "chaos fuzz under sanitizers FAILED"
    FAILED=1
  fi

  step "oracle sanity: --mutant=stuck-link must be caught, shrunk, and replay"
  if "$PLAIN/tools/chaos_fuzz" --protocol=omni --schedules=1 --seed=7 \
      --mutant=stuck-link --out-dir="$ARTDIR"; then
    echo "mutant NOT caught — oracle pipeline is broken"
    FAILED=1
  elif "$PLAIN/tools/chaos_fuzz" --replay="$ARTDIR/chaos-omni-seed7.chaos"; then
    echo "ok"
  else
    echo "mutant artifact did not replay deterministically"
    FAILED=1
  fi

  step "summary"
  if [ "$FAILED" -eq 0 ]; then
    echo "chaos smoke passed"
  else
    echo "CHAOS SMOKE FAILED"
  fi
  exit "$FAILED"
fi

BUILD="${1:-$ROOT/build-asan}"

step "sanitized build (ASan+UBSan) -> $BUILD"
cmake -B "$BUILD" -S "$ROOT" -DOPX_SANITIZE=ON >"$BUILD.configure.log" 2>&1 ||
  { echo "configure FAILED (see $BUILD.configure.log)"; exit 1; }
cmake --build "$BUILD" -j "$JOBS" >"$BUILD.build.log" 2>&1 ||
  { echo "build FAILED (see $BUILD.build.log)"; exit 1; }
echo "ok"

step "opx_analyze: protocol-aware static checks (DESIGN.md §11)"
if "$BUILD/tools/analyze/opx_analyze" --root="$ROOT"; then
  echo "ok"
else
  echo "opx_analyze FAILED"
  FAILED=1
fi

step "ctest under sanitizers (auditor on)"
if (cd "$BUILD" && ctest --output-on-failure -j "$JOBS"); then
  echo "ok"
else
  echo "ctest FAILED"
  FAILED=1
fi

step "TSan net smoke (-DOPX_SANITIZE=thread)"
if "$ROOT/tools/run_checks.sh" --tsan "$ROOT/build-tsan"; then
  echo "ok"
else
  echo "TSan smoke FAILED"
  FAILED=1
fi

step "clang-tidy (changed files vs origin/main)"
if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy not installed; skipping"
else
  # compile_commands.json comes from the sanitized build dir.
  cmake -B "$BUILD" -S "$ROOT" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null 2>&1
  BASE="$(git -C "$ROOT" merge-base HEAD origin/main 2>/dev/null || echo HEAD)"
  CHANGED="$(git -C "$ROOT" diff --name-only "$BASE" -- '*.cc' '*.h' |
             while read -r f; do [ -f "$ROOT/$f" ] && echo "$ROOT/$f"; done)"
  if [ -z "$CHANGED" ]; then
    echo "no changed C++ files"
  elif echo "$CHANGED" | xargs clang-tidy -p "$BUILD" --quiet; then
    echo "ok"
  else
    echo "clang-tidy FAILED"
    FAILED=1
  fi
fi

step "summary"
if [ "$FAILED" -eq 0 ]; then
  echo "all checks passed"
else
  echo "CHECKS FAILED"
fi
exit "$FAILED"
